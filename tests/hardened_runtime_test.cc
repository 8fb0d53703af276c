// Hardened exploration runtime, interp layer: crash and stall fault kinds,
// the run-outcome taxonomy, the step limit, and the FaultRuntime reset /
// pinned-vs-window pre-emption contracts.

#include <gtest/gtest.h>

#include "src/explorer/iterative.h"
#include "src/interp/log_entry.h"
#include "src/interp/simulator.h"
#include "src/ir/builder.h"
#include "tests/test_util.h"

namespace anduril::interp {
namespace {

using ir::Expr;
using ir::LogLevel;
using ir::MethodBuilder;
using ir::Program;

class HardenedRuntimeTest : public TwoNodeClusterTest {
 protected:
  HardenedRuntimeTest() {
    program_.DefineException("IOException");
    program_.DefineException("TimeoutException");
  }

  // Producer on n1 pumps `rounds` messages at a handler on n2; the handler
  // executes an external call, logs, counts, and acks back to n1.
  void BuildPipeline(int rounds) {
    {
      MethodBuilder b(&program_, "handler");
      b.External("h_op", {"IOException"});
      b.Assign("handled", b.Plus("handled", 1));
      b.Log(LogLevel::kInfo, "t", "handled {}", {b.V("handled")});
      b.Send("ack", "n1");
    }
    {
      MethodBuilder b(&program_, "ack");
      b.Assign("acks", b.Plus("acks", 1));
    }
    {
      MethodBuilder b(&program_, "pump");
      b.While(b.Lt("i", rounds), [&] {
        b.Assign("i", b.Plus("i", 1));
        b.Send("handler", "n2");
        b.Sleep(5);
      });
    }
  }
};

// --- crash faults ---------------------------------------------------------------

TEST_F(HardenedRuntimeTest, CrashFaultHaltsNodeAndClassifiesRun) {
  BuildPipeline(10);
  program_.Finalize();
  RunResult result =
      Run("pump", 1, {InjectionCandidate{Site("h_op"), 4, ir::kInvalidId, FaultKind::kCrash}});
  EXPECT_EQ(result.outcome, RunOutcome::kCrashed);
  EXPECT_TRUE(result.DidNodeCrash("n2"));
  EXPECT_FALSE(result.DidNodeCrash("n1"));
  ASSERT_EQ(result.crashed_nodes.size(), 1u);
  EXPECT_EQ(result.crashed_nodes[0], "n2");
  // Three handler executions completed before occurrence 4 crashed the node.
  EXPECT_EQ(Var(result, "handled", "n2"), 3);
  EXPECT_EQ(Var(result, "acks", "n1"), 3);
  ASSERT_TRUE(result.injected.has_value());
  EXPECT_EQ(result.injected->kind, FaultKind::kCrash);
}

TEST_F(HardenedRuntimeTest, CrashTruncatesPerThreadLog) {
  BuildPipeline(10);
  program_.Finalize();
  RunResult result =
      Run("pump", 1, {InjectionCandidate{Site("h_op"), 4, ir::kInvalidId, FaultKind::kCrash}});
  // The crash point leaves no log line of its own, and nothing after it.
  EXPECT_TRUE(result.HasLogContaining("handled 3"));
  EXPECT_FALSE(result.HasLogContaining("handled 4"));
  EXPECT_FALSE(result.HasLogContaining("handled 5"));
}

TEST_F(HardenedRuntimeTest, CrashedNodeThreadsReportCrashedState) {
  BuildPipeline(6);
  program_.Finalize();
  RunResult result =
      Run("pump", 1, {InjectionCandidate{Site("h_op"), 2, ir::kInvalidId, FaultKind::kCrash}});
  bool found = false;
  for (const ThreadSummary& thread : result.threads) {
    if (thread.node == "n2" && thread.name == "handler") {
      EXPECT_EQ(thread.state, ThreadEndState::kCrashed);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // A crashed thread is not "stuck": oracles distinguish crash from stall.
  EXPECT_FALSE(result.IsThreadStuck("handler"));
}

TEST_F(HardenedRuntimeTest, MessagesToCrashedNodeNeverSpawnLiveThreads) {
  // The pump keeps sending to a *new* handler thread name after the crash;
  // threads born on a crashed node must be born dead.
  {
    MethodBuilder b(&program_, "late_handler");
    b.Assign("lateRuns", b.Plus("lateRuns", 1));
  }
  BuildPipeline(4);
  {
    MethodBuilder b(&program_, "pump_late");
    b.Invoke("pump");
    b.Sleep(100);
    b.Send("late_handler", "n2", ir::SendOpts{.handler_thread = "FreshThread"});
    b.Sleep(50);
  }
  program_.Finalize();
  RunResult result = Run(
      "pump_late", 1, {InjectionCandidate{Site("h_op"), 1, ir::kInvalidId, FaultKind::kCrash}});
  EXPECT_EQ(result.outcome, RunOutcome::kCrashed);
  EXPECT_EQ(Var(result, "lateRuns", "n2"), 0);
}

// --- stall faults ---------------------------------------------------------------

TEST_F(HardenedRuntimeTest, StallFaultWedgesCallAndClassifiesRunHung) {
  BuildPipeline(10);
  program_.Finalize();
  RunResult result =
      Run("pump", 1, {InjectionCandidate{Site("h_op"), 4, ir::kInvalidId, FaultKind::kStall}});
  EXPECT_EQ(result.outcome, RunOutcome::kHung);
  // The handler wedged at occurrence 4: three completions, then silence —
  // but the run itself still terminates.
  EXPECT_EQ(Var(result, "handled", "n2"), 3);
  EXPECT_TRUE(result.IsThreadStuck("handler"));
  EXPECT_TRUE(result.IsThreadStuckIn(program_, "n2/handler", "handler"));
  ASSERT_TRUE(result.injected.has_value());
  EXPECT_EQ(result.injected->kind, FaultKind::kStall);
}

TEST_F(HardenedRuntimeTest, OrdinaryBlockedThreadsDoNotMakeRunHung) {
  // A thread parked forever on a never-signaled condition is kBlocked, but
  // without a stall fault the run is still kCompleted: service threads block
  // routinely at run end.
  {
    MethodBuilder b(&program_, "waiter");
    b.Await(b.Eq("never", 1));
  }
  {
    MethodBuilder b(&program_, "m");
    b.Send("waiter", "n2");
    b.Sleep(20);
  }
  program_.Finalize();
  RunResult result = Run("m");
  EXPECT_TRUE(result.IsThreadStuck("waiter"));
  EXPECT_EQ(result.outcome, RunOutcome::kCompleted);
}

// --- step limit -----------------------------------------------------------------

TEST_F(HardenedRuntimeTest, StepLimitClassifiesAsBudgetExceeded) {
  {
    MethodBuilder b(&program_, "spin");
    b.While(b.Lt("i", 900'000), [&] { b.Assign("i", b.Plus("i", 1)); });
  }
  program_.Finalize();
  cluster_.AddNode("n1");
  cluster_.AddNode("n2");
  cluster_.step_limit = 10'000;
  RunResult result = Run("spin");
  EXPECT_TRUE(result.hit_step_limit);
  EXPECT_EQ(result.outcome, RunOutcome::kBudgetExceeded);
}

// --- FaultRuntime reset and pre-emption contracts -------------------------------

TEST_F(HardenedRuntimeTest, BeginRunFullyResetsPerRunState) {
  {
    MethodBuilder b(&program_, "m");
    b.While(b.Lt("i", 5), [&] {
      b.Assign("i", b.Plus("i", 1));
      b.TryCatch([&] { b.External("op", {"IOException"}); },
                 {{"IOException", [&] { b.Assign("failures", b.Plus("failures", 1)); }}});
    });
  }
  program_.Finalize();
  cluster_.AddNode("n1");
  cluster_.AddNode("n2");
  cluster_.AddTask("n1", "main", program_.FindMethod("m"), 0);

  FaultRuntime runtime(&program_);
  ir::ExceptionTypeId io = program_.FindException("IOException");
  runtime.SetWindow({InjectionCandidate{Site("op"), 3, io}});
  runtime.SetPinned({InjectionCandidate{Site("op"), 3, io}});

  Simulator first(&program_, &cluster_, 1, &runtime);
  first.Run();
  EXPECT_GT(runtime.injection_requests(), 0);
  EXPECT_FALSE(runtime.occurrence_counts().empty());

  runtime.BeginRun();
  EXPECT_EQ(runtime.injection_requests(), 0);
  EXPECT_EQ(runtime.decision_nanos(), 0);
  EXPECT_TRUE(runtime.occurrence_counts().empty());
  EXPECT_TRUE(runtime.trace().empty());
  EXPECT_FALSE(runtime.injected().has_value());
  EXPECT_TRUE(runtime.preempted_window().empty());

  // A second run over the reset runtime behaves exactly like the first:
  // occurrence counters restart at 1, so the occurrence-3 faults fire again.
  Simulator second(&program_, &cluster_, 1, &runtime);
  RunResult result = second.Run();
  EXPECT_EQ(result.NodeVar(program_, "n1", "failures"), 1);
}

TEST_F(HardenedRuntimeTest, PinnedAndWindowAtSameInstanceInjectOnce) {
  {
    MethodBuilder b(&program_, "m");
    b.While(b.Lt("i", 6), [&] {
      b.Assign("i", b.Plus("i", 1));
      b.TryCatch([&] { b.External("op", {"IOException"}); },
                 {{"IOException", [&] { b.Assign("failures", b.Plus("failures", 1)); }}});
    });
  }
  program_.Finalize();
  ir::ExceptionTypeId io = program_.FindException("IOException");
  InjectionCandidate instance{Site("op"), 3, io};
  RunResult result = Run("m", 1, /*window=*/{instance}, /*pinned=*/{instance});
  // Exactly one exception fired at the shared (site, occurrence); the pinned
  // fault claimed it, and the window candidate was reported as pre-empted so
  // the search can retire it.
  EXPECT_EQ(Var(result, "failures"), 1);
  EXPECT_FALSE(result.injected.has_value());
  ASSERT_EQ(result.preempted_window.size(), 1u);
  EXPECT_EQ(result.preempted_window[0], instance);
}

TEST_F(HardenedRuntimeTest, PinnedCrashPreemptsWindowWithoutDoubleFiring) {
  BuildPipeline(8);
  program_.Finalize();
  InjectionCandidate crash{Site("h_op"), 3, ir::kInvalidId, FaultKind::kCrash};
  RunResult result = Run("pump", 1, /*window=*/{crash}, /*pinned=*/{crash});
  EXPECT_EQ(result.outcome, RunOutcome::kCrashed);
  EXPECT_TRUE(result.DidNodeCrash("n2"));
  EXPECT_FALSE(result.injected.has_value());  // the pin fired, not the window
  ASSERT_EQ(result.preempted_window.size(), 1u);
  EXPECT_EQ(result.preempted_window[0], crash);
}

// --- crash faults compose with the network model --------------------------------

TEST_F(HardenedRuntimeTest, InFlightMessagesToCrashedNodeAreDroppedByNetworkModel) {
  BuildPipeline(10);
  program_.Finalize();
  RunResult result =
      Run("pump", 1, {InjectionCandidate{Site("h_op"), 4, ir::kInvalidId, FaultKind::kCrash}});
  EXPECT_EQ(result.outcome, RunOutcome::kCrashed);
  // Everything addressed to n2 from the crash on is swallowed by the network
  // model (not by a dead-thread special case), so the drops are observable
  // in the run's network accounting.
  EXPECT_GT(result.network.dropped_to_crashed, 0);
  EXPECT_EQ(Var(result, "handled", "n2"), 3);
}

TEST_F(HardenedRuntimeTest, CrashAndNetworkDropFaultsCompose) {
  BuildPipeline(10);
  program_.Finalize();
  // Message 2 is dropped by an explicit network fault; the node later
  // crashes at its 4th handler execution. Both fault layers account
  // independently: one drop by fault, the post-crash sends by the crash.
  RunResult result = Run(
      "pump", 1,
      /*window=*/{InjectionCandidate{Site("h_op"), 4, ir::kInvalidId, FaultKind::kCrash}},
      /*pinned=*/
      {InjectionCandidate{Site("send:handler->n2"), 2, ir::kInvalidId, FaultKind::kDrop}});
  EXPECT_EQ(result.outcome, RunOutcome::kCrashed);
  EXPECT_EQ(result.network.dropped_by_fault, 1);
  EXPECT_GT(result.network.dropped_to_crashed, 0);
  // Handler ran for messages 1, 3, 4 and crashed on its 4th execution
  // (message 5): three completions despite ten sends.
  EXPECT_EQ(Var(result, "handled", "n2"), 3);
  EXPECT_TRUE(result.DidNodeCrash("n2"));
}

// --- chain-stitch runs: whole-chain demotion -------------------------------------

TEST_F(HardenedRuntimeTest, WedgedStitchRunDemotesWholeChainCandidate) {
  BuildPipeline(10);
  program_.Finalize();
  cluster_.AddNode("n1");
  cluster_.AddNode("n2");
  cluster_.AddTask("n1", "main", program_.FindMethod("pump"), 0);

  explorer::ExperimentSpec spec;
  spec.program = &program_;
  spec.cluster = &cluster_;
  // The accepted chain prefix: a message-drop step is already pinned.
  spec.pinned_faults.push_back(
      InjectionCandidate{Site("send:handler->n2"), 2, ir::kInvalidId, FaultKind::kDrop});
  // Candidate under stitch: a stall that wedges the degraded pipeline.
  explorer::StitchRunResult stitch = explorer::RunChainStitch(
      spec, InjectionCandidate{Site("h_op"), 4, ir::kInvalidId, FaultKind::kStall},
      explorer::ExplorerOptions{});
  EXPECT_EQ(stitch.run.outcome, RunOutcome::kHung);
  // Prefix and candidate both fired in the same ordered run.
  EXPECT_EQ(stitch.run.pinned_fired, 2);
  // A hung intermediate step condemns the *whole* chain candidate — the
  // explorer drops it instead of searching continuations on a wedged system.
  EXPECT_TRUE(stitch.demote_chain);
}

// --- determinism of the new kinds ----------------------------------------------

TEST_F(HardenedRuntimeTest, CrashAndStallRunsAreDeterministic) {
  BuildPipeline(10);
  program_.Finalize();
  for (FaultKind kind : {FaultKind::kCrash, FaultKind::kStall}) {
    InjectionCandidate candidate{Site("h_op"), 5, ir::kInvalidId, kind};
    RunResult a = Run("pump", 42, {candidate});
    RunResult b = Run("pump", 42, {candidate});
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(FormatLogFile(a.log), FormatLogFile(b.log));
    EXPECT_EQ(a.end_time_ms, b.end_time_ms);
  }
}

}  // namespace
}  // namespace anduril::interp
