// Property-style invariant sweeps (TEST_P) across the failure dataset and
// across seeds. These check what must hold for *every* case and *every*
// run, independent of scenario specifics:
//
//   - runs are deterministic functions of (program, cluster, seed, window)
//   - at most one window injection fires per run, at the exact occurrence
//   - the instance trace is consistent (per-site occurrences dense, log
//     clocks monotone, every armed candidate either fires or never occurs)
//   - log files round-trip through the parser
//   - the causal graph is well-formed (priors in range, sources are real
//     fault sites, finite distances only to graph nodes)
//   - the ground truth is occurrence-sensitive where the case says so

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/explorer/explorer.h"
#include "src/interp/log_entry.h"
#include "src/interp/simulator.h"
#include "src/logdiff/parser.h"
#include "src/obs/metrics.h"
#include "src/systems/common.h"

namespace anduril::systems {
namespace {

struct SweepParam {
  std::string case_id;
  uint64_t seed;
};

std::vector<SweepParam> SweepParams() {
  std::vector<SweepParam> params;
  for (const FailureCase& failure_case : AllCases()) {
    for (uint64_t seed : {1ull, 7ull, 1234ull}) {
      params.push_back(SweepParam{failure_case.id, seed});
    }
  }
  return params;
}

class RunSweepTest : public ::testing::TestWithParam<SweepParam> {
 public:
  static std::string Name(const ::testing::TestParamInfo<SweepParam>& info) {
    std::string name = info.param.case_id + "_seed" + std::to_string(info.param.seed);
    for (char& c : name) {
      if (c == '-') {
        c = '_';
      }
    }
    return name;
  }
};

TEST_P(RunSweepTest, RunsAreDeterministic) {
  const FailureCase& failure_case = *FindCase(GetParam().case_id);
  BuiltCase built = BuildCase(failure_case, /*verify=*/false);
  interp::RunResult a = RunOnce(*built.program, built.cluster, GetParam().seed);
  interp::RunResult b = RunOnce(*built.program, built.cluster, GetParam().seed);
  EXPECT_EQ(interp::FormatLogFile(a.log), interp::FormatLogFile(b.log));
  EXPECT_EQ(a.end_time_ms, b.end_time_ms);
  EXPECT_EQ(a.trace.size(), b.trace.size());
  EXPECT_EQ(a.injection_requests, b.injection_requests);
}

TEST_P(RunSweepTest, TraceInvariantsHold) {
  const FailureCase& failure_case = *FindCase(GetParam().case_id);
  BuiltCase built = BuildCase(failure_case, /*verify=*/false);
  interp::RunResult run = RunOnce(*built.program, built.cluster, GetParam().seed);

  // Per-site occurrence counters are dense starting at 1; log clocks are
  // monotone along the trace.
  std::map<ir::FaultSiteId, int64_t> last_occurrence;
  int64_t last_clock = 0;
  for (const interp::FaultInstanceEvent& event : run.trace) {
    EXPECT_EQ(event.occurrence, last_occurrence[event.site] + 1);
    last_occurrence[event.site] = event.occurrence;
    EXPECT_GE(event.log_clock, last_clock);
    last_clock = event.log_clock;
    EXPECT_LE(event.log_clock, static_cast<int64_t>(run.log.size()));
  }
  EXPECT_EQ(static_cast<int64_t>(run.trace.size()), run.injection_requests);
}

TEST_P(RunSweepTest, AtMostOneWindowInjectionFires) {
  const FailureCase& failure_case = *FindCase(GetParam().case_id);
  BuiltCase built = BuildCase(failure_case, /*verify=*/false);
  // Arm a window full of instances of the ground-truth site.
  std::vector<interp::InjectionCandidate> window;
  for (int64_t occ = 1; occ <= 5; ++occ) {
    window.push_back(interp::InjectionCandidate{built.ground_truth.site, occ * 2,
                                                built.ground_truth.type});
  }
  interp::RunResult run = RunOnce(*built.program, built.cluster, GetParam().seed, window);
  if (run.injected.has_value()) {
    // The injected candidate must be one of the armed ones.
    bool armed = false;
    for (const interp::InjectionCandidate& candidate : window) {
      armed |= candidate == *run.injected;
    }
    EXPECT_TRUE(armed);
  }
}

TEST_P(RunSweepTest, LogRoundTripsThroughParser) {
  const FailureCase& failure_case = *FindCase(GetParam().case_id);
  BuiltCase built = BuildCase(failure_case, /*verify=*/false);
  interp::RunResult run = RunOnce(*built.program, built.cluster, GetParam().seed);
  logdiff::ParsedLog parsed = logdiff::ParseLogFile(interp::FormatLogFile(run.log));
  ASSERT_EQ(parsed.lines.size(), run.log.size());
  for (size_t i = 0; i < parsed.lines.size(); ++i) {
    EXPECT_EQ(parsed.lines[i].message, run.log[i].message);
    EXPECT_EQ(parsed.lines[i].thread, run.log[i].FullThreadName());
    EXPECT_EQ(parsed.lines[i].level, ir::LogLevelName(run.log[i].level));
  }
}

// The metrics a run flushes must agree with its RunResult: the registry is
// an *aggregated view* of the same facts, never an independent count.
TEST_P(RunSweepTest, MetricsAgreeWithRunResult) {
  const FailureCase& failure_case = *FindCase(GetParam().case_id);
  BuiltCase built = BuildCase(failure_case, /*verify=*/false);
  // Arm the ground truth so the injected-fault counters are exercised too.
  std::vector<interp::InjectionCandidate> window = {built.ground_truth};

  obs::MetricsRegistry metrics;
  interp::FaultRuntime runtime(built.program.get());
  runtime.SetWindow(window);
  interp::Simulator simulator(built.program.get(), &built.cluster, GetParam().seed, &runtime);
  simulator.set_metrics(&metrics);
  interp::RunResult run = simulator.Run();

  EXPECT_EQ(metrics.counter("sim.runs"), 1);
  EXPECT_EQ(metrics.counter(std::string("sim.outcome.") + interp::RunOutcomeName(run.outcome)),
            1);
  EXPECT_EQ(metrics.counter("fault.requests"), run.injection_requests);
  EXPECT_EQ(metrics.counter("fault.pinned_fired"), run.pinned_fired);
  if (run.injected.has_value()) {
    EXPECT_EQ(metrics.counter(std::string("fault.injected.") +
                              interp::FaultKindName(run.injected->kind)),
              1);
  } else {
    for (const auto& [name, value] : metrics.Snapshot().counters) {
      EXPECT_TRUE(name.rfind("fault.injected.", 0) != 0) << name << "=" << value;
    }
  }
  EXPECT_EQ(metrics.counter("net.messages_sent"), run.network.messages_sent);
  EXPECT_EQ(metrics.counter("net.dropped_by_fault"), run.network.dropped_by_fault);
  EXPECT_EQ(metrics.counter("net.dropped_by_partition"), run.network.dropped_by_partition);
  EXPECT_EQ(metrics.counter("net.delayed"), run.network.delayed);
  EXPECT_EQ(metrics.counter("net.duplicated"), run.network.duplicated);
  EXPECT_EQ(metrics.counter("net.partitions_severed"), run.network.partitions_severed);
  EXPECT_EQ(metrics.histogram("sim.end_time_ms").count, 1);
  EXPECT_EQ(metrics.histogram("sim.end_time_ms").sum, run.end_time_ms);
}

INSTANTIATE_TEST_SUITE_P(AllCasesBySeeds, RunSweepTest, ::testing::ValuesIn(SweepParams()),
                         RunSweepTest::Name);

// --- causal-graph well-formedness across all cases --------------------------------

class GraphSweepTest : public ::testing::TestWithParam<std::string> {};

TEST_P(GraphSweepTest, GraphIsWellFormed) {
  const FailureCase& failure_case = *FindCase(GetParam());
  BuiltCase built = BuildCase(failure_case, /*verify=*/false);
  explorer::ExplorerOptions options;
  explorer::Explorer ex(built.spec, options);
  const analysis::CausalGraph& graph = ex.context().graph();

  for (size_t n = 0; n < graph.node_count(); ++n) {
    for (analysis::CausalNodeId prior : graph.priors(static_cast<int32_t>(n))) {
      ASSERT_GE(prior, 0);
      ASSERT_LT(static_cast<size_t>(prior), graph.node_count());
    }
  }
  for (const auto& source : graph.sources()) {
    const analysis::CausalNode& node = graph.node(source.node);
    EXPECT_TRUE(node.kind == analysis::CausalNodeKind::kExternalExc ||
                node.kind == analysis::CausalNodeKind::kNewExc);
    EXPECT_EQ(built.program->FaultSiteAt(node.loc), source.site);
  }
  // Every candidate must be reachable from at least one observable.
  for (size_t c = 0; c < ex.context().candidates().size(); ++c) {
    bool reachable = false;
    for (size_t k = 0; k < ex.context().observables().size(); ++k) {
      reachable |= ex.context().Distance(c, k) != analysis::CausalGraph::kUnreachable;
    }
    EXPECT_TRUE(reachable) << "candidate " << c << " is not connected to any observable";
  }
}

TEST_P(GraphSweepTest, GroundTruthSiteIsACandidate) {
  const FailureCase& failure_case = *FindCase(GetParam());
  BuiltCase built = BuildCase(failure_case, /*verify=*/false);
  explorer::ExplorerOptions options;
  explorer::Explorer ex(built.spec, options);
  bool found = false;
  for (const explorer::FaultCandidate& candidate : ex.context().candidates()) {
    found |= candidate.site == built.ground_truth.site;
  }
  EXPECT_TRUE(found)
      << "the causal graph pruned the real root cause — the search could never succeed";
}

std::vector<std::string> AllIds() {
  std::vector<std::string> ids;
  for (const FailureCase& failure_case : AllCases()) {
    ids.push_back(failure_case.id);
  }
  return ids;
}

INSTANTIATE_TEST_SUITE_P(AllCases, GraphSweepTest, ::testing::ValuesIn(AllIds()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// --- occurrence sensitivity -----------------------------------------------------------

// For timing-sensitive cases, injecting the right exception at the *wrong*
// occurrence must not satisfy the oracle (that is the whole point of
// temporal priorities, §5.2.3).
TEST(OccurrenceSensitivity, Hbase25905WindowIsNarrow) {
  const FailureCase& failure_case = *FindCase("hb-25905");
  BuiltCase built = BuildCase(failure_case);
  int satisfied = 0;
  int tried = 0;
  for (int64_t occ = 1; occ <= 24; ++occ) {
    auto candidate = built.ground_truth;
    candidate.occurrence = occ;
    interp::RunResult run =
        RunOnce(*built.program, built.failure_cluster, failure_case.failure_seed, {candidate});
    if (!run.injected.has_value()) {
      continue;
    }
    ++tried;
    satisfied += failure_case.oracle(*built.program, run) ? 1 : 0;
  }
  EXPECT_GE(tried, 10);
  EXPECT_GE(satisfied, 1);
  // Only a narrow band of occurrences wedges the WAL.
  EXPECT_LE(satisfied, tried / 2) << "the occurrence window is too permissive";
}

TEST(OccurrenceSensitivity, Kafka10048OnlyLastCheckpointMatters) {
  const FailureCase& failure_case = *FindCase("ka-10048");
  BuiltCase built = BuildCase(failure_case);
  int satisfied = 0;
  for (int64_t occ = 1; occ <= 4; ++occ) {
    auto candidate = built.ground_truth;
    candidate.occurrence = occ;
    interp::RunResult run =
        RunOnce(*built.program, built.failure_cluster, failure_case.failure_seed, {candidate});
    if (run.injected.has_value() && failure_case.oracle(*built.program, run)) {
      ++satisfied;
    }
  }
  EXPECT_EQ(satisfied, 1) << "only the final checkpoint emission creates the gap";
}

TEST(OccurrenceSensitivity, WrongExceptionTypeDoesNotReproduce) {
  // hb-19608: an InterruptedException mid-procedure leaves the failed flag;
  // an IOException at the same site is retried and must not reproduce.
  const FailureCase& failure_case = *FindCase("hb-19608");
  BuiltCase built = BuildCase(failure_case);
  auto candidate = built.ground_truth;
  candidate.type = built.program->FindException("IOException");
  interp::RunResult run =
      RunOnce(*built.program, built.failure_cluster, failure_case.failure_seed, {candidate});
  ASSERT_TRUE(run.injected.has_value());
  EXPECT_FALSE(failure_case.oracle(*built.program, run));
}

// --- search-level metrics consistency -------------------------------------------------

TEST(MetricsConsistency, SearchCountersMatchExploreResult) {
  const FailureCase& failure_case = *FindCase("zk-2247");
  BuiltCase built = BuildCase(failure_case);
  obs::MetricsRegistry metrics;
  explorer::ExplorerOptions options;
  options.metrics = &metrics;
  explorer::Explorer ex(built.spec, options);
  auto strategy = explorer::MakeFullFeedbackStrategy();
  explorer::ExploreResult result = ex.Explore(strategy.get());
  ASSERT_TRUE(result.reproduced);

  EXPECT_EQ(metrics.counter("explore.rounds"), result.rounds);
  EXPECT_EQ(metrics.counter("explore.reproduced"), 1);
  EXPECT_EQ(metrics.gauge("explore.last_round"), result.rounds);
  // One simulation per round (runs_per_round = 1), so the
  // injected-fault counters must equal the count of injected rounds.
  int64_t injected_rounds = 0;
  for (const explorer::RoundRecord& record : result.records) {
    injected_rounds += record.injected ? 1 : 0;
  }
  int64_t injected_total = 0;
  for (const auto& [name, value] : metrics.Snapshot().counters) {
    if (name.rfind("fault.injected.", 0) == 0) {
      injected_total += value;
    }
  }
  EXPECT_EQ(injected_total, injected_rounds);
  EXPECT_EQ(metrics.counter("sim.runs"), result.rounds);
  // The final snapshot the explorer stored is exactly the registry's state.
  EXPECT_EQ(result.metrics, metrics.Snapshot());
}

// --- reproduction script determinism across the dataset -------------------------------

TEST(ScriptDeterminism, ThreeCasesReplayTenTimes) {
  for (const char* id : {"zk-3157", "hb-25905", "ka-10048"}) {
    const FailureCase& failure_case = *FindCase(id);
    BuiltCase built = BuildCase(failure_case);
    explorer::ExplorerOptions options;
    options.max_rounds = 1000;
    explorer::Explorer ex(built.spec, options);
    auto strategy = explorer::MakeFullFeedbackStrategy();
    explorer::ExploreResult result = ex.Explore(strategy.get());
    ASSERT_TRUE(result.reproduced) << id;
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(explorer::Explorer::Replay(built.spec, *result.script)) << id;
    }
  }
}

}  // namespace
}  // namespace anduril::systems
