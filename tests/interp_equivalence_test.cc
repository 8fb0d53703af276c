// Differential semantics: the flattened direct-threaded interpreter must be
// observably identical to the legacy statement-tree walker — same outcome,
// logs, fault-instance trace, thread end states, network accounting, and
// final node state — on every registered scenario (the paper cases,
// crash/stall, network, cascade and storm registries): fault-free, with its
// ground-truth fault injected, and with the multi-candidate window a search
// arms. decision_nanos is the one exempt field: it is host wall-clock (and
// the fast path samples it), so only its sign is checked elsewhere, never its
// value.
//
// The explorer always runs the flat engine; the tree walker stays, behind
// Simulator::set_tree_walk, as the reference this suite and
// bench_interp_speed compare it against.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/explorer/context.h"
#include "src/interp/log_entry.h"
#include "src/interp/simulator.h"
#include "src/ir/flatten.h"
#include "src/systems/common.h"
#include "tests/test_util.h"

namespace anduril {
namespace {

interp::RunResult RunMode(const systems::BuiltCase& built, const interp::ClusterSpec& cluster,
                          uint64_t seed, const std::vector<interp::InjectionCandidate>& window,
                          bool tree_walk,
                          const std::vector<interp::InjectionCandidate>& pinned = {}) {
  interp::RunScratch scratch;
  interp::FaultRuntime runtime(built.program.get());
  runtime.SetWindow(window);
  runtime.SetPinned(pinned);
  interp::Simulator simulator(built.program.get(), &cluster, seed, &runtime,
                              /*flat=*/nullptr, &scratch);
  if (tree_walk) {
    simulator.set_tree_walk(true);
  }
  return simulator.Run();
}

void ExpectSameResult(const interp::RunResult& flat, const interp::RunResult& tree,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(flat.outcome, tree.outcome);
  EXPECT_EQ(flat.end_time_ms, tree.end_time_ms);
  EXPECT_EQ(flat.hit_time_limit, tree.hit_time_limit);
  EXPECT_EQ(flat.hit_step_limit, tree.hit_step_limit);
  EXPECT_EQ(flat.hit_wall_budget, tree.hit_wall_budget);
  EXPECT_EQ(interp::FormatLogFile(flat.log), interp::FormatLogFile(tree.log));

  ASSERT_EQ(flat.trace.size(), tree.trace.size());
  for (size_t i = 0; i < flat.trace.size(); ++i) {
    EXPECT_EQ(flat.trace[i].site, tree.trace[i].site) << "trace[" << i << "]";
    EXPECT_EQ(flat.trace[i].occurrence, tree.trace[i].occurrence) << "trace[" << i << "]";
    EXPECT_EQ(flat.trace[i].log_clock, tree.trace[i].log_clock) << "trace[" << i << "]";
    EXPECT_EQ(flat.trace[i].time_ms, tree.trace[i].time_ms) << "trace[" << i << "]";
    EXPECT_EQ(flat.trace[i].thread_id, tree.trace[i].thread_id) << "trace[" << i << "]";
  }

  ASSERT_EQ(flat.threads.size(), tree.threads.size());
  for (size_t i = 0; i < flat.threads.size(); ++i) {
    EXPECT_EQ(flat.threads[i].node, tree.threads[i].node) << "thread " << i;
    EXPECT_EQ(flat.threads[i].name, tree.threads[i].name) << "thread " << i;
    EXPECT_EQ(flat.threads[i].state, tree.threads[i].state) << "thread " << i;
    EXPECT_EQ(flat.threads[i].blocked_at, tree.threads[i].blocked_at) << "thread " << i;
    EXPECT_EQ(flat.threads[i].current_method, tree.threads[i].current_method)
        << "thread " << i;
    EXPECT_EQ(flat.threads[i].death_exception, tree.threads[i].death_exception)
        << "thread " << i;
  }

  EXPECT_EQ(flat.node_vars, tree.node_vars);
  EXPECT_EQ(flat.crashed_nodes, tree.crashed_nodes);
  EXPECT_EQ(flat.network, tree.network);

  ASSERT_EQ(flat.partition_events.size(), tree.partition_events.size());
  for (size_t i = 0; i < flat.partition_events.size(); ++i) {
    EXPECT_EQ(flat.partition_events[i].time_ms, tree.partition_events[i].time_ms);
    EXPECT_EQ(flat.partition_events[i].node_a, tree.partition_events[i].node_a);
    EXPECT_EQ(flat.partition_events[i].node_b, tree.partition_events[i].node_b);
    EXPECT_EQ(flat.partition_events[i].sever, tree.partition_events[i].sever);
  }

  EXPECT_EQ(flat.injection_requests, tree.injection_requests);
  EXPECT_EQ(flat.pinned_fired, tree.pinned_fired);
  EXPECT_EQ(flat.injected, tree.injected);
  EXPECT_EQ(flat.preempted_window, tree.preempted_window);
  // decision_nanos deliberately not compared: wall-clock, sampled.
}

// Runs one workload on both interpreters and compares the results.
void ExpectSameRun(const systems::BuiltCase& built, const interp::ClusterSpec& cluster,
                   uint64_t seed, const std::vector<interp::InjectionCandidate>& window,
                   const std::vector<interp::InjectionCandidate>& pinned,
                   const std::string& label) {
  ExpectSameResult(RunMode(built, cluster, seed, window, false, pinned),
                   RunMode(built, cluster, seed, window, true, pinned), label);
}

void CheckCase(const systems::FailureCase& failure_case) {
  SCOPED_TRACE(failure_case.id);
  systems::BuiltCase built = systems::BuildCase(failure_case, /*verify=*/false);

  // Fault-free exploration workload, two seeds.
  for (uint64_t seed : {failure_case.explore_seed, failure_case.explore_seed + 17}) {
    ExpectSameRun(built, built.cluster, seed, {}, {},
                  failure_case.id + " fault-free seed " + std::to_string(seed));
  }
  // Failure workload with the ground truth injected the way BuildCase
  // generates the failure log: a cascade's earlier chain steps pinned, its
  // last step (ground_truth) windowed.
  std::vector<interp::InjectionCandidate> pinned;
  if (!built.ground_truth_chain.empty()) {
    pinned.assign(built.ground_truth_chain.begin(), built.ground_truth_chain.end() - 1);
  }
  ExpectSameRun(built, built.failure_cluster, failure_case.failure_seed, {built.ground_truth},
                pinned, failure_case.id + " ground truth");
  // The multi-candidate window shape a search arms: the context's first 10
  // candidates, each at occurrence 1.
  explorer::ExplorerContext context(built.spec, systems::OptionsForCase(failure_case));
  std::vector<interp::InjectionCandidate> window;
  for (size_t c = 0; c < std::min<size_t>(10, context.candidates().size()); ++c) {
    window.push_back(explorer::Arm(context.candidates()[c], 1));
  }
  ASSERT_FALSE(window.empty());
  ExpectSameRun(built, built.cluster, failure_case.explore_seed, window, {},
                failure_case.id + " first-10 window");
}

TEST(InterpEquivalence, AllRegisteredScenarios) {
  for (const systems::FailureCase& failure_case : systems::AllCases()) {
    CheckCase(failure_case);
  }
}

TEST(InterpEquivalence, CrashStallScenarios) {
  for (const systems::FailureCase& failure_case : systems::CrashStallCases()) {
    CheckCase(failure_case);
  }
}

TEST(InterpEquivalence, NetworkScenarios) {
  for (const systems::FailureCase& failure_case : systems::NetworkCases()) {
    CheckCase(failure_case);
  }
}

TEST(InterpEquivalence, CascadeScenarios) {
  for (const systems::FailureCase& failure_case : systems::CascadeCases()) {
    CheckCase(failure_case);
  }
}

TEST(InterpEquivalence, StormScenarios) {
  for (const systems::FailureCase& failure_case : systems::StormCases()) {
    CheckCase(failure_case);
  }
}

// The shared, context-cached FlatProgram must behave exactly like a
// per-simulator self-lowered one.
TEST(InterpEquivalence, SharedFlatProgramMatchesSelfLowered) {
  const systems::FailureCase* failure_case = systems::FindCase("zk-2247");
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case, /*verify=*/false);
  ir::FlatProgram flat(*built.program);

  interp::FaultRuntime shared_runtime(built.program.get());
  interp::Simulator shared_sim(built.program.get(), &built.cluster,
                               failure_case->explore_seed, &shared_runtime, &flat);
  interp::RunResult shared = shared_sim.Run();

  ExpectSameResult(shared,
                   RunMode(built, built.cluster, failure_case->explore_seed, {}, false),
                   "shared vs self-lowered");
}

}  // namespace
}  // namespace anduril
