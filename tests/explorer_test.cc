#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <set>

#include "src/explorer/explorer.h"
#include "src/explorer/strategies/strategy_util.h"
#include "src/interp/log_entry.h"
#include "src/interp/simulator.h"
#include "src/ir/builder.h"
#include "src/obs/metrics.h"
#include "src/systems/common.h"
#include "src/systems/harness.h"

namespace anduril::explorer {
namespace {

using ir::Expr;
using ir::LogLevel;
using ir::MethodBuilder;
using ir::Program;

// A compact but non-trivial experiment: a pipeline with several tolerated
// fault sites plus one whose failure at a specific occurrence corrupts state
// and produces the symptom.
class ExplorerTest : public ::testing::Test {
 protected:
  void Build() {
    program_.DefineException("IOException");
    program_.DefineException("TimeoutException");
    {
      MethodBuilder b(&program_, "svc.process");
      b.TryCatch(
          [&] {
            b.External("svc.read", {"IOException"});
            b.External("svc.transform", {"IOException"});
            b.External("svc.write", {"IOException"});
            b.Assign("done", b.Plus("done", 1));
            b.Log(LogLevel::kInfo, "svc", "Processed item {}", {b.V("done")});
          },
          {{"IOException",
            [&] {
              b.LogExc(LogLevel::kWarn, "svc", "Item processing failed");
              // BUG: a failure while a checkpoint is pending corrupts state.
              b.If(b.Eq("checkpointPending", 1),
                   [&] { b.Assign("corrupted", Expr::Const(1)); });
            }}});
    }
    {
      MethodBuilder b(&program_, "svc.checkpointer");
      b.Sleep(45);
      b.Assign("checkpointPending", Expr::Const(1));
      b.Log(LogLevel::kInfo, "svc", "Checkpoint window open");
      b.Sleep(30);
      b.Assign("checkpointPending", Expr::Const(0));
      b.If(b.Eq("corrupted", 1), [&] {
        b.Log(LogLevel::kError, "svc", "State corrupted during checkpoint window");
      });
    }
    {
      MethodBuilder b(&program_, "client.pump");
      b.While(b.Lt("sent", 15), [&] {
        b.Assign("sent", b.Plus("sent", 1));
        b.Send("svc.process", "server", ir::SendOpts{.payload = b.V("sent")});
        b.Sleep(8);
      });
    }
    program_.Finalize();
    cluster_.AddNode("server");
    cluster_.AddNode("client");
    cluster_.AddTask("client", "pump", program_.FindMethod("client.pump"), 0);
    cluster_.AddTask("server", "Checkpointer", program_.FindMethod("svc.checkpointer"), 0);

    // Produce the failure log with the ground truth: svc.write fails at an
    // occurrence inside the checkpoint window.
    ground_truth_.site = Site("svc.write");
    ground_truth_.occurrence = 7;
    ground_truth_.type = program_.FindException("IOException");
    interp::FaultRuntime runtime(&program_);
    runtime.SetWindow({ground_truth_});
    interp::Simulator simulator(&program_, &cluster_, /*seed=*/555, &runtime);
    interp::RunResult failure = simulator.Run();
    ASSERT_TRUE(failure.injected.has_value());
    ASSERT_TRUE(Oracle()(program_, failure));

    spec_.program = &program_;
    spec_.cluster = &cluster_;
    spec_.failure_log_text = interp::FormatLogFile(failure.log);
    spec_.oracle = Oracle();
    spec_.base_seed = 1;
  }

  static explorer::Oracle Oracle() {
    return [](const ir::Program&, const interp::RunResult& run) {
      return run.HasLogContaining(ir::LogLevel::kError,
                                  "State corrupted during checkpoint window");
    };
  }

  ir::FaultSiteId Site(const std::string& prefix) const {
    for (const ir::FaultSite& site : program_.fault_sites()) {
      if (site.name.find(prefix + "@") == 0) {
        return site.id;
      }
    }
    return ir::kInvalidId;
  }

  Program program_;
  interp::ClusterSpec cluster_;
  interp::InjectionCandidate ground_truth_;
  ExperimentSpec spec_;
};

// --- context construction -------------------------------------------------------

TEST_F(ExplorerTest, ContextExtractsObservablesAndCandidates) {
  Build();
  ExplorerOptions options;
  ExplorerContext context(spec_, options);
  // The symptom ERROR and the WARN from the injection path must be relevant
  // observables.
  bool symptom = false;
  bool warn = false;
  for (const ObservableInfo& observable : context.observables()) {
    symptom |= observable.key.find("State corrupted") != std::string::npos;
    warn |= observable.key.find("Item processing failed") != std::string::npos;
  }
  EXPECT_TRUE(symptom);
  EXPECT_TRUE(warn);
  EXPECT_FALSE(context.candidates().empty());

  // Injectable candidates must include all three pipeline sites.
  bool write_found = false;
  for (const FaultCandidate& candidate : context.candidates()) {
    if (candidate.site == Site("svc.write")) {
      write_found = true;
    }
  }
  EXPECT_TRUE(write_found);
}

TEST_F(ExplorerTest, ContextInstancesCoverNormalTrace) {
  Build();
  ExplorerOptions options;
  ExplorerContext context(spec_, options);
  const auto& instances = context.InstancesOf(Site("svc.write"));
  EXPECT_GE(instances.size(), 10u);
  // failure positions must be within the failure log.
  for (const InstanceEstimate& instance : instances) {
    EXPECT_GE(instance.failure_pos, 0);
    EXPECT_LE(instance.failure_pos,
              static_cast<int64_t>(context.failure_log().lines.size()));
  }
}

TEST_F(ExplorerTest, DistancesAreFiniteOnlyForConnectedPairs) {
  Build();
  ExplorerOptions options;
  ExplorerContext context(spec_, options);
  bool some_finite = false;
  for (size_t c = 0; c < context.candidates().size(); ++c) {
    for (size_t k = 0; k < context.observables().size(); ++k) {
      if (context.Distance(c, k) != analysis::CausalGraph::kUnreachable) {
        some_finite = true;
        EXPECT_GE(context.Distance(c, k), 0);
      }
    }
  }
  EXPECT_TRUE(some_finite);
}

// --- search ------------------------------------------------------------------------

TEST_F(ExplorerTest, FullFeedbackReproduces) {
  Build();
  ExplorerOptions options;
  Explorer ex(spec_, options);
  auto strategy = MakeFullFeedbackStrategy();
  ExploreResult result = ex.Explore(strategy.get());
  ASSERT_TRUE(result.reproduced);
  ASSERT_TRUE(result.script.has_value());
  // All three pipeline sites share the buggy catch block, so any of them at
  // an occurrence inside the checkpoint window is a true root cause.
  EXPECT_TRUE(result.script->site == Site("svc.read") ||
              result.script->site == Site("svc.transform") ||
              result.script->site == Site("svc.write"));
}

TEST_F(ExplorerTest, ReproductionScriptReplaysDeterministically) {
  Build();
  ExplorerOptions options;
  Explorer ex(spec_, options);
  auto strategy = MakeFullFeedbackStrategy();
  ExploreResult result = ex.Explore(strategy.get());
  ASSERT_TRUE(result.reproduced);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(Explorer::Replay(spec_, *result.script));
  }
}

TEST_F(ExplorerTest, EveryStrategyInterfaceRuns) {
  Build();
  for (const char* name : {"full", "exhaustive", "site-distance", "site-distance-limit",
                           "site-feedback", "multiply", "stacktrace", "fate", "crashtuner"}) {
    ExplorerOptions options;
    options.max_rounds = 400;
    Explorer ex(spec_, options);
    auto strategy = MakeStrategy(name);
    EXPECT_EQ(strategy->name(), name);
    ExploreResult result = ex.Explore(strategy.get());
    // Every strategy terminates; the targeted ones must reproduce.
    if (std::string(name) == "full" || std::string(name) == "multiply") {
      EXPECT_TRUE(result.reproduced) << name;
    }
  }
}

TEST_F(ExplorerTest, FullBeatsExhaustiveInRounds) {
  Build();
  ExplorerOptions options;
  options.max_rounds = 500;
  int full_rounds = 0;
  int exhaustive_rounds = 0;
  {
    Explorer ex(spec_, options);
    auto strategy = MakeStrategy("full");
    ExploreResult result = ex.Explore(strategy.get());
    ASSERT_TRUE(result.reproduced);
    full_rounds = result.rounds;
  }
  {
    Explorer ex(spec_, options);
    auto strategy = MakeStrategy("exhaustive");
    ExploreResult result = ex.Explore(strategy.get());
    exhaustive_rounds = result.reproduced ? result.rounds : options.max_rounds;
  }
  EXPECT_LE(full_rounds, exhaustive_rounds);
}

TEST_F(ExplorerTest, TrackedRankIsReported) {
  Build();
  ExplorerOptions options;
  options.track_site = ground_truth_.site;
  Explorer ex(spec_, options);
  auto strategy = MakeFullFeedbackStrategy();
  ExploreResult result = ex.Explore(strategy.get());
  ASSERT_FALSE(result.records.empty());
  EXPECT_GE(result.records.front().tracked_rank, 1);
}

TEST_F(ExplorerTest, MaxRoundsLimitsSearch) {
  Build();
  ExplorerOptions options;
  options.max_rounds = 1;
  Explorer ex(spec_, options);
  // An impossible oracle: never reproduced.
  ExperimentSpec hard = spec_;
  hard.oracle = [](const ir::Program&, const interp::RunResult&) { return false; };
  Explorer ex2(hard, options);
  auto strategy = MakeFullFeedbackStrategy();
  ExploreResult result = ex2.Explore(strategy.get());
  EXPECT_FALSE(result.reproduced);
  EXPECT_LE(result.rounds, 1);
}

TEST_F(ExplorerTest, UnreproducibleFailureExhaustsOrHitsBudget) {
  Build();
  ExperimentSpec hard = spec_;
  hard.oracle = [](const ir::Program&, const interp::RunResult&) { return false; };
  ExplorerOptions options;
  options.max_rounds = 3000;
  Explorer ex(hard, options);
  auto strategy = MakeStrategy("exhaustive");
  ExploreResult result = ex.Explore(strategy.get());
  EXPECT_FALSE(result.reproduced);
  // Exhaustive enumerates a finite instance list, so it must stop early.
  EXPECT_LT(result.rounds, options.max_rounds);
}

// Exhaustive arms each instance once per fault kind its site has a
// candidate of, not just as the site's first candidate: on zk-crash-1 it
// reaches the ground-truth site as an exception, a crash and a stall.
TEST(ExhaustiveStrategyTest, ArmsEveryKindAtTheGroundTruthSite) {
  const systems::FailureCase* failure_case = systems::FindCase("zk-crash-1");
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  const ExplorerContext context(built.spec, systems::OptionsForCase(*failure_case));
  std::unique_ptr<InjectionStrategy> strategy = MakeStrategy("exhaustive");
  strategy->Initialize(context);
  std::set<interp::FaultKind> kinds;
  for (std::vector<interp::InjectionCandidate> window = strategy->NextWindow();
       !window.empty(); window = strategy->NextWindow()) {
    ASSERT_EQ(window.size(), 1u);
    if (window.front().site == built.ground_truth.site) {
      kinds.insert(window.front().kind);
    }
    RoundOutcome outcome;
    outcome.injected = window.front();
    strategy->OnRound(outcome);
  }
  EXPECT_TRUE(strategy->Exhausted());
  EXPECT_EQ(kinds, (std::set<interp::FaultKind>{interp::FaultKind::kException,
                                                 interp::FaultKind::kCrash,
                                                 interp::FaultKind::kStall}));
}

// --- feedback unit behavior ----------------------------------------------------------

// Algorithm 2: a round's present relevant key raises that observable's I_k
// by the context's feedback adjustment; a key outside the observable set
// moves nothing.
TEST_F(ExplorerTest, FeedbackDeprioritizesPresentObservables) {
  Build();
  for (const int adjustment : {1, 5}) {
    SCOPED_TRACE(adjustment);
    ExplorerOptions options;
    options.feedback_adjustment = adjustment;
    ExplorerContext context(spec_, options);
    ASSERT_FALSE(context.observables().empty());
    std::unique_ptr<InjectionStrategy> strategy = MakeFullFeedbackStrategy();
    strategy->Initialize(context);

    RoundOutcome outcome;
    outcome.round = 1;
    outcome.present_keys = {context.observables()[0].key, "not an observable"};
    strategy->OnRound(outcome);
    StrategyCheckpoint state;
    ASSERT_TRUE(strategy->SaveState(&state));
    std::vector<int64_t> expected(context.observables().size(), 0);
    expected[0] = adjustment;
    EXPECT_EQ(state.observable_priorities, expected);
  }
}

TEST_F(ExplorerTest, TemporalDistanceMinOverPositions) {
  InstanceEstimate instance{3, 50};
  EXPECT_EQ(TemporalDistance(instance, {10, 47, 90}), 3);
  EXPECT_EQ(TemporalDistance(instance, {50}), 0);
  EXPECT_EQ(TemporalDistance(instance, {}), 0);
  EXPECT_EQ(TemporalDistance(instance, {100}), 50);
}

// --- window behavior -----------------------------------------------------------------

TEST_F(ExplorerTest, WindowNeverExceedsConfiguredSizeInitially) {
  Build();
  ExplorerOptions options;
  options.initial_window = 3;
  Explorer ex(spec_, options);
  auto strategy = MakeFullFeedbackStrategy();
  strategy->Initialize(ex.context());
  auto window = strategy->NextWindow();
  EXPECT_LE(window.size(), 3u);
  EXPECT_FALSE(window.empty());
}

TEST_F(ExplorerTest, WindowDoublesWhenNothingInjected) {
  Build();
  ExplorerOptions options;
  options.initial_window = 2;
  Explorer ex(spec_, options);
  auto strategy = MakeFullFeedbackStrategy();
  strategy->Initialize(ex.context());
  (void)strategy->NextWindow();
  RoundOutcome outcome;
  outcome.round = 1;  // no injection
  strategy->OnRound(outcome);
  auto window = strategy->NextWindow();
  EXPECT_LE(window.size(), 4u);
  EXPECT_GE(window.size(), 3u);  // doubled from 2 (if enough candidates)
}

// A search that injects nothing round after round keeps doubling its window.
// With initial_window 10 the 28th doubling would pass INT_MAX; the window
// saturates there instead of wrapping to a size that never arms again.
TEST_F(ExplorerTest, WindowDoublingSaturatesInsteadOfOverflowing) {
  Build();
  ExplorerOptions options;
  options.initial_window = 10;
  Explorer ex(spec_, options);
  auto strategy = MakeFullFeedbackStrategy();
  strategy->Initialize(ex.context());
  StrategyCheckpoint state;
  ASSERT_TRUE(strategy->SaveState(&state));
  int previous = state.window_size;
  for (int round = 1; round <= 40; ++round) {
    (void)strategy->NextWindow();
    RoundOutcome outcome;
    outcome.round = round;  // no injection
    strategy->OnRound(outcome);
    ASSERT_TRUE(strategy->SaveState(&state));
    EXPECT_GE(state.window_size, previous) << "after round " << round;
    previous = state.window_size;
  }
  EXPECT_EQ(state.window_size, std::numeric_limits<int>::max());
  EXPECT_FALSE(strategy->NextWindow().empty());
}

TEST_F(ExplorerTest, InjectedInstanceIsNotRetried) {
  Build();
  ExplorerOptions options;
  options.initial_window = 1;
  Explorer ex(spec_, options);
  auto strategy = MakeFullFeedbackStrategy();
  strategy->Initialize(ex.context());
  auto first = strategy->NextWindow();
  ASSERT_EQ(first.size(), 1u);
  RoundOutcome outcome;
  outcome.round = 1;
  outcome.injected = first[0];
  strategy->OnRound(outcome);
  auto second = strategy->NextWindow();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_FALSE(first[0] == second[0]);
}

// A context shared across searches hands none of its builder's sinks to the
// searches that reuse it: the strategy counts into the registry of the
// Explorer that runs it. Two heap registries, so neither can alias the
// other at a reused stack address.
TEST(SharedContextMetricsTest, StrategyCountsIntoTheSearchingExplorersRegistry) {
  const systems::FailureCase* failure_case = systems::FindCase("zk-2247");
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  auto builder_metrics = std::make_unique<obs::MetricsRegistry>();
  auto search_metrics = std::make_unique<obs::MetricsRegistry>();
  ExplorerOptions builder_options = systems::OptionsForCase(*failure_case);
  builder_options.metrics = builder_metrics.get();
  ExplorerOptions search_options = systems::OptionsForCase(*failure_case);
  search_options.metrics = search_metrics.get();

  Explorer builder(built.spec, builder_options);
  EXPECT_EQ(builder.context().options().metrics, nullptr);
  EXPECT_EQ(builder.context().options().tracer, nullptr);
  EXPECT_EQ(builder.context().options().cancel, nullptr);
  Explorer searcher(builder.shared_context(), search_options);
  auto strategy = MakeFullFeedbackStrategy();
  const ExploreResult result = searcher.Explore(strategy.get());
  ASSERT_TRUE(result.reproduced);
  ASSERT_GT(result.rounds, 1);

  auto strategy_counters = [](const obs::MetricsRegistry& metrics) {
    int64_t total = 0;
    for (const auto& [name, value] : metrics.Snapshot().counters) {
      if (name.rfind("strategy.", 0) == 0) {
        total += value;
      }
    }
    return total;
  };
  EXPECT_EQ(search_metrics->counter("strategy.retired"), result.rounds - 1);
  EXPECT_EQ(search_metrics->gauge("strategy.window_size"),
            systems::OptionsForCase(*failure_case).initial_window);
  EXPECT_EQ(strategy_counters(*builder_metrics), 0);
  EXPECT_EQ(builder_metrics->gauge("strategy.window_size"), 0);

  // The builder's registry gone, a later search over the shared context
  // still counts into its own.
  builder_metrics.reset();
  auto later_metrics = std::make_unique<obs::MetricsRegistry>();
  search_options.metrics = later_metrics.get();
  Explorer later(searcher.shared_context(), search_options);
  auto later_strategy = MakeFullFeedbackStrategy();
  const ExploreResult again = later.Explore(later_strategy.get());
  EXPECT_EQ(again.rounds, result.rounds);
  EXPECT_EQ(strategy_counters(*later_metrics), strategy_counters(*search_metrics));
}

}  // namespace
}  // namespace anduril::explorer
