// Network fault model, end to end: drop / delay / duplicate / partition
// semantics in the simulator, the NetworkModel's determinism and healing
// rules, the partitioned-stuck outcome classification, and the explorer's
// network-candidate search over the NetworkCases() registry.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/explorer/explorer.h"
#include "src/explorer/strategy.h"
#include "src/interp/log_entry.h"
#include "src/interp/network_model.h"
#include "src/interp/simulator.h"
#include "src/ir/builder.h"
#include "src/systems/common.h"
#include "tests/test_util.h"

namespace anduril::interp {
namespace {

using ir::LogLevel;
using ir::MethodBuilder;
using ir::Program;

class NetworkFaultTest : public TwoNodeClusterTest {
 protected:
  NetworkFaultTest() { program_.DefineException("IOException"); }

  // Producer on n1 pumps `rounds` messages at a handler on n2; the handler
  // counts and acks back.
  void BuildPipeline(int rounds, int sleep_ms = 5) {
    {
      MethodBuilder b(&program_, "handler");
      b.Assign("handled", b.Plus("handled", 1));
      b.Send("ack", "n1");
    }
    {
      MethodBuilder b(&program_, "ack");
      b.Assign("acks", b.Plus("acks", 1));
      b.Signal("acks");
    }
    {
      MethodBuilder b(&program_, "pump");
      b.While(b.Lt("i", rounds), [&] {
        b.Assign("i", b.Plus("i", 1));
        b.Send("handler", "n2");
        b.Sleep(sleep_ms);
      });
    }
  }
};

// --- enumeration ----------------------------------------------------------------

TEST_F(NetworkFaultTest, SendStatementsAreEnumeratedAsSendSites) {
  BuildPipeline(3);
  program_.Finalize();
  ir::FaultSiteId to_n2 = Site("send:handler->n2");
  ir::FaultSiteId to_n1 = Site("send:ack->n1");
  ASSERT_NE(to_n2, ir::kInvalidId);
  ASSERT_NE(to_n1, ir::kInvalidId);
  EXPECT_EQ(program_.fault_site(to_n2).kind, ir::FaultSiteKind::kSend);
  EXPECT_EQ(program_.fault_site(to_n1).kind, ir::FaultSiteKind::kSend);
}

// --- drop -----------------------------------------------------------------------

TEST_F(NetworkFaultTest, DropFaultLosesExactlyOneMessage) {
  BuildPipeline(10);
  program_.Finalize();
  RunResult result = Run(
      "pump", 1,
      {InjectionCandidate{Site("send:handler->n2"), 3, ir::kInvalidId, FaultKind::kDrop}});
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(Var(result, "handled", "n2"), 9);
  EXPECT_EQ(Var(result, "acks", "n1"), 9);
  EXPECT_EQ(result.network.dropped_by_fault, 1);
  ASSERT_TRUE(result.injected.has_value());
  EXPECT_EQ(result.injected->kind, FaultKind::kDrop);
}

// --- delay ----------------------------------------------------------------------

TEST_F(NetworkFaultTest, DelayFaultDefersDeliveryWithoutLosingIt) {
  BuildPipeline(4);
  program_.Finalize();
  cluster_.AddNode("n1");
  cluster_.AddNode("n2");
  cluster_.network_delay_ms = 500;
  RunResult result = Run(
      "pump", 1,
      {InjectionCandidate{Site("send:handler->n2"), 2, ir::kInvalidId, FaultKind::kDelay}});
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
  // The delayed message still arrives: nothing is lost, the run just
  // stretches past the configured delay.
  EXPECT_EQ(Var(result, "handled", "n2"), 4);
  EXPECT_EQ(result.network.delayed, 1);
  EXPECT_GE(result.end_time_ms, 500);
  ASSERT_TRUE(result.injected.has_value());
  EXPECT_EQ(result.injected->kind, FaultKind::kDelay);
}

TEST(NetworkModelTest, SeedDerivedDelayIsDeterministicAndBounded) {
  NetworkModel a(42);
  NetworkModel b(42);
  for (int64_t occurrence = 1; occurrence <= 8; ++occurrence) {
    int64_t delay = a.DelayFor(/*site=*/7, occurrence, /*fixed_ms=*/0);
    EXPECT_EQ(delay, b.DelayFor(7, occurrence, 0));
    EXPECT_GE(delay, 20);
    EXPECT_LT(delay, 120);
  }
  // A configured fixed delay bypasses the seed-derived draw.
  EXPECT_EQ(a.DelayFor(7, 1, 250), 250);
}

// --- duplicate ------------------------------------------------------------------

TEST_F(NetworkFaultTest, DuplicateFaultDeliversTwice) {
  BuildPipeline(10);
  program_.Finalize();
  RunResult result =
      Run("pump", 1,
          {InjectionCandidate{Site("send:handler->n2"), 3, ir::kInvalidId,
                              FaultKind::kDuplicate}});
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
  EXPECT_EQ(Var(result, "handled", "n2"), 11);
  EXPECT_EQ(Var(result, "acks", "n1"), 11);
  EXPECT_EQ(result.network.duplicated, 1);
  ASSERT_TRUE(result.injected.has_value());
  EXPECT_EQ(result.injected->kind, FaultKind::kDuplicate);
}

// --- partition ------------------------------------------------------------------

TEST_F(NetworkFaultTest, UnboundedPartitionDropsAllTrafficBothWays) {
  BuildPipeline(10);
  program_.Finalize();
  RunResult result =
      Run("pump", 1,
          {InjectionCandidate{Site("send:handler->n2"), 3, ir::kInvalidId,
                              FaultKind::kPartition}});
  // Messages 1-2 made it; the partition swallows 3..10 (and would swallow
  // acks coming back, were any still attempted).
  EXPECT_EQ(Var(result, "handled", "n2"), 2);
  EXPECT_EQ(Var(result, "acks", "n1"), 2);
  EXPECT_EQ(result.network.dropped_by_partition, 8);
  EXPECT_EQ(result.network.partitions_severed, 1);
  EXPECT_EQ(result.network.partitions_healed, 0);
  ASSERT_EQ(result.partition_events.size(), 1u);
  EXPECT_TRUE(result.partition_events[0].sever);
  EXPECT_EQ(result.partition_events[0].node_a, "n1");
  EXPECT_EQ(result.partition_events[0].node_b, "n2");
}

TEST_F(NetworkFaultTest, BoundedPartitionHealsAndTrafficResumes) {
  BuildPipeline(10, /*sleep_ms=*/30);
  program_.Finalize();
  cluster_.AddNode("n1");
  cluster_.AddNode("n2");
  cluster_.partition_heal_ms = 40;
  RunResult result =
      Run("pump", 1,
          {InjectionCandidate{Site("send:handler->n2"), 3, ir::kInvalidId,
                              FaultKind::kPartition}});
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
  // Severed at the 3rd send (t=60ms), healed 40ms later: sends 3 and 4 are
  // lost, send 5 (t=120ms) and everything after goes through again.
  EXPECT_EQ(Var(result, "handled", "n2"), 8);
  EXPECT_EQ(result.network.dropped_by_partition, 2);
  EXPECT_EQ(result.network.partitions_severed, 1);
  EXPECT_EQ(result.network.partitions_healed, 1);
  ASSERT_EQ(result.partition_events.size(), 2u);
  EXPECT_TRUE(result.partition_events[0].sever);
  EXPECT_FALSE(result.partition_events[1].sever);
  EXPECT_GT(result.partition_events[1].time_ms, result.partition_events[0].time_ms);
}

TEST_F(NetworkFaultTest, UnhealedPartitionWithBlockedThreadClassifiesPartitionedStuck) {
  {
    MethodBuilder b(&program_, "phandler");
    b.Assign("phandled", b.Plus("phandled", 1));
    b.Send("pack", "n1");
  }
  {
    MethodBuilder b(&program_, "pack");
    b.Assign("packs", b.Plus("packs", 1));
    b.Signal("packs");
  }
  {
    MethodBuilder b(&program_, "waiter");
    b.Await(b.Ge("packs", 10));  // no timeout: starved forever if partitioned
    b.Log(LogLevel::kInfo, "t", "all acks in");
  }
  {
    MethodBuilder b(&program_, "main_wait");
    b.Send("waiter", "n1");
    b.While(b.Lt("i", 10), [&] {
      b.Assign("i", b.Plus("i", 1));
      b.Send("phandler", "n2");
      b.Sleep(5);
    });
  }
  program_.Finalize();
  RunResult result =
      Run("main_wait", 1,
          {InjectionCandidate{Site("send:phandler->n2"), 3, ir::kInvalidId,
                              FaultKind::kPartition}});
  EXPECT_EQ(result.outcome, RunOutcome::kPartitionedStuck);
  EXPECT_STREQ(RunOutcomeName(result.outcome), "partitioned-stuck");
  EXPECT_TRUE(result.IsThreadStuck("waiter"));
  EXPECT_GT(result.network.dropped_by_partition, 0);
  // Without the fault the same workload completes: the classification comes
  // from the standing partition, not from the await itself.
  RunResult clean = Run("main_wait", 1);
  EXPECT_EQ(clean.outcome, RunOutcome::kCompleted);
  EXPECT_TRUE(clean.HasLogContaining("all acks in"));
}

// --- determinism ----------------------------------------------------------------

TEST_F(NetworkFaultTest, NetworkFaultRunsAreDeterministic) {
  BuildPipeline(10);
  program_.Finalize();
  for (FaultKind kind :
       {FaultKind::kDrop, FaultKind::kDelay, FaultKind::kDuplicate, FaultKind::kPartition}) {
    InjectionCandidate candidate{Site("send:handler->n2"), 4, ir::kInvalidId, kind};
    RunResult a = Run("pump", 42, {candidate});
    RunResult b = Run("pump", 42, {candidate});
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(FormatLogFile(a.log), FormatLogFile(b.log));
    EXPECT_EQ(a.end_time_ms, b.end_time_ms);
    EXPECT_EQ(a.network, b.network);
  }
}

TEST_F(NetworkFaultTest, UnfiredNetworkCandidateLeavesRunByteIdentical) {
  BuildPipeline(10);
  program_.Finalize();
  RunResult clean = Run("pump", 7);
  // An armed candidate whose occurrence never arrives must not perturb the
  // rng stream: the send-jitter draw happens whether or not a fault fires.
  RunResult armed = Run(
      "pump", 7,
      {InjectionCandidate{Site("send:handler->n2"), 50, ir::kInvalidId, FaultKind::kDrop}});
  EXPECT_FALSE(armed.injected.has_value());
  EXPECT_EQ(FormatLogFile(clean.log), FormatLogFile(armed.log));
  EXPECT_EQ(clean.end_time_ms, armed.end_time_ms);
}

}  // namespace
}  // namespace anduril::interp

// --- explorer over the NetworkCases registry ------------------------------------

namespace anduril::explorer {
namespace {

ExplorerOptions NetworkOptions() {
  ExplorerOptions options;
  options.network_candidates = true;
  return options;
}

TEST(NetworkScenarioTest, RegistryIsSeparateAndCoversAllFourKinds) {
  EXPECT_EQ(systems::AllCases().size(), 22u);
  ASSERT_GE(systems::NetworkCases().size(), 4u);
  bool has_kind[4] = {false, false, false, false};
  for (const systems::FailureCase& failure_case : systems::NetworkCases()) {
    ASSERT_TRUE(interp::IsNetworkFaultKind(failure_case.root_kind)) << failure_case.id;
    switch (failure_case.root_kind) {
      case interp::FaultKind::kDrop: has_kind[0] = true; break;
      case interp::FaultKind::kDelay: has_kind[1] = true; break;
      case interp::FaultKind::kDuplicate: has_kind[2] = true; break;
      case interp::FaultKind::kPartition: has_kind[3] = true; break;
      default: break;
    }
    // Reachable through FindCase like every other case.
    EXPECT_EQ(systems::FindCase(failure_case.id), &failure_case);
  }
  EXPECT_TRUE(has_kind[0]) << "no drop-rooted scenario";
  EXPECT_TRUE(has_kind[1]) << "no delay-rooted scenario";
  EXPECT_TRUE(has_kind[2]) << "no duplicate-rooted scenario";
  EXPECT_TRUE(has_kind[3]) << "no partition-rooted scenario";
}

TEST(NetworkScenarioTest, SendCandidatesEnumeratedOnlyBehindFlag) {
  const systems::FailureCase* failure_case = systems::FindCase("zk-net-1");
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case);

  Explorer without(built.spec, ExplorerOptions{});
  for (const FaultCandidate& candidate : without.context().candidates()) {
    EXPECT_FALSE(interp::IsNetworkFaultKind(candidate.kind));
  }

  Explorer with(built.spec, NetworkOptions());
  int network_candidates = 0;
  bool kind_seen[4] = {false, false, false, false};
  for (const FaultCandidate& candidate : with.context().candidates()) {
    if (!interp::IsNetworkFaultKind(candidate.kind)) {
      continue;
    }
    ++network_candidates;
    EXPECT_EQ(built.spec.program->fault_site(candidate.site).kind,
              ir::FaultSiteKind::kSend);
    switch (candidate.kind) {
      case interp::FaultKind::kDrop: kind_seen[0] = true; break;
      case interp::FaultKind::kDelay: kind_seen[1] = true; break;
      case interp::FaultKind::kDuplicate: kind_seen[2] = true; break;
      case interp::FaultKind::kPartition: kind_seen[3] = true; break;
      default: break;
    }
  }
  EXPECT_GT(network_candidates, 0);
  EXPECT_EQ(network_candidates % 4, 0) << "one candidate of each kind per send site";
  EXPECT_TRUE(kind_seen[0] && kind_seen[1] && kind_seen[2] && kind_seen[3]);
}

TEST(NetworkScenarioTest, ScenariosReproduceWithNetworkCandidatesAndReplay) {
  for (const systems::FailureCase& failure_case : systems::NetworkCases()) {
    SCOPED_TRACE(failure_case.id);
    systems::BuiltCase built = systems::BuildCase(failure_case);
    ExploreResult result = RunSearch(built, NetworkOptions());
    ASSERT_TRUE(result.reproduced);
    ASSERT_TRUE(result.script.has_value());
    EXPECT_TRUE(interp::IsNetworkFaultKind(result.script->kind))
        << "reachable only via network faults by construction";
    // The emitted script replays deterministically.
    EXPECT_TRUE(Explorer::Replay(built.spec, *result.script));
    EXPECT_TRUE(Explorer::Replay(built.spec, *result.script));
  }
}

TEST(NetworkScenarioTest, ExceptionOnlySearchCannotReachNetworkScenarios) {
  // Without network_candidates the candidate space contains no message-layer
  // instances, so the oracles can never be satisfied.
  for (const systems::FailureCase& failure_case : systems::NetworkCases()) {
    SCOPED_TRACE(failure_case.id);
    systems::BuiltCase built = systems::BuildCase(failure_case);
    ExplorerOptions options;
    options.max_rounds = 150;  // bounded: this search is expected to fail
    ExploreResult result = RunSearch(built, options);
    EXPECT_FALSE(result.reproduced);
  }
}

TEST(NetworkScenarioTest, PartitionSearchAccountsPartitionedStuckRounds) {
  const systems::FailureCase* failure_case = systems::FindCase("zk-net-1");
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  ExploreResult result = RunSearch(built, NetworkOptions());
  ASSERT_TRUE(result.reproduced);
  // The search necessarily passes through partition candidates that leave
  // the monitor stuck; the taxonomy must count them, and the per-round
  // records must carry the sever/heal transitions for diagnosis.
  EXPECT_EQ(static_cast<int>(result.records.size()), result.rounds);
  EXPECT_GT(std::count_if(result.records.begin(), result.records.end(),
                          [](const RoundRecord& record) {
                            return record.outcome == interp::RunOutcome::kPartitionedStuck;
                          }),
            0);
  bool saw_partition_event = false;
  bool saw_network_candidates = false;
  for (const RoundRecord& record : result.records) {
    saw_partition_event |= !record.partition_events.empty();
    saw_network_candidates |= record.network_candidates_tried > 0;
  }
  EXPECT_TRUE(saw_partition_event);
  EXPECT_TRUE(saw_network_candidates);
}

}  // namespace
}  // namespace anduril::explorer
