// Forked search runs. A run that starts from a snapshot of the context's
// fault-free run (ExplorerContext::ForkPoint) must produce the RunResult a
// from-scratch run produces, field for field (interp::DigestRun, the digest
// tests/golden/interp_runs.txt pins), and forks must happen exactly where
// the seed-free rule allows: on the storm cases, whose fault-free runs never
// draw from the seed, and nowhere in the other registries, whose runs draw
// at their first cross-node send or are too short to capture.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/explorer/context.h"
#include "src/explorer/explorer.h"
#include "src/explorer/strategy.h"
#include "src/interp/simulator.h"
#include "src/ir/builder.h"
#include "src/obs/metrics.h"
#include "src/systems/common.h"
#include "tests/test_util.h"

namespace anduril::explorer {
namespace {

using Window = std::vector<interp::InjectionCandidate>;

// Forwards to full feedback and records every window it arms.
class WindowRecorder : public InjectionStrategy {
 public:
  WindowRecorder() : inner_(MakeFullFeedbackStrategy()) {}
  std::string name() const override { return inner_->name(); }
  void Initialize(const ExplorerContext& context) override { inner_->Initialize(context); }
  std::vector<interp::InjectionCandidate> NextWindow() override {
    windows.push_back(inner_->NextWindow());
    return windows.back();
  }
  void OnRound(const RoundOutcome& outcome) override { inner_->OnRound(outcome); }
  bool Exhausted() const override { return inner_->Exhausted(); }
  bool WantsLogFeedback() const override { return inner_->WantsLogFeedback(); }

  std::vector<Window> windows;

 private:
  std::unique_ptr<InjectionStrategy> inner_;
};

// A case built on the heap, so its spec can point at its cluster.
std::unique_ptr<systems::BuiltCase> Build(const systems::FailureCase& failure_case) {
  auto built =
      std::make_unique<systems::BuiltCase>(systems::BuildCase(failure_case, /*verify=*/false));
  built->spec.cluster = &built->cluster;  // the move left it at the temporary's
  return built;
}

// A run plus the "sim.*", "fault.*" and "net.*" metrics it flushed.
struct SimulatedRun {
  interp::RunResult result;
  std::string metrics;
};

// One run of `window` at `seed`: from `context`'s fork point when given (the
// context must have been built from `spec`), else from step 0. Forked runs
// share one scratch, so they also exercise the log prefix landing in
// recycled entries.
SimulatedRun Simulate(const ExperimentSpec& spec, const Window& window, uint64_t seed,
             const ExplorerContext* context, bool tracing = false) {
  static interp::RunScratch scratch;
  interp::FaultRuntime runtime(spec.program);
  runtime.set_tracing(tracing);
  runtime.SetWindow(window);
  runtime.SetPinned(spec.pinned_faults);
  interp::Simulator simulator(spec.program, spec.cluster, seed, &runtime, nullptr,
                              context != nullptr ? &scratch : nullptr);
  if (context != nullptr) {
    simulator.set_start(context->ForkPoint(window), &context->baseline_log());
  }
  obs::MetricsRegistry metrics;
  simulator.set_metrics(&metrics);
  SimulatedRun run;
  run.result = simulator.Run();
  run.metrics = metrics.DumpJson();
  return run;
}

// The first field two runs disagree on, or "" when they are equal.
std::string FirstDifference(const SimulatedRun& forked, const SimulatedRun& scratch) {
  std::vector<std::pair<std::string, uint64_t>> want;
  std::vector<std::pair<std::string, uint64_t>> got;
  interp::DigestRun(scratch.result, &want);
  interp::DigestRun(forked.result, &got);
  for (size_t i = 0; i < want.size(); ++i) {
    if (i >= got.size() || want[i] != got[i]) {
      return want[i].first;
    }
  }
  if (forked.result.steps != scratch.result.steps) {
    return "steps";
  }
  return forked.metrics == scratch.metrics ? "" : "metrics";
}

// Runs `window` forked and from scratch at `seed` and checks they agree.
// Returns whether the run forked.
bool CheckFork(const ExperimentSpec& spec, const ExplorerContext& context, const Window& window,
               uint64_t seed, const std::string& what) {
  const SimulatedRun forked = Simulate(spec, window, seed, &context);
  const SimulatedRun scratch = Simulate(spec, window, seed, nullptr);
  EXPECT_EQ(FirstDifference(forked, scratch), "")
      << what << " seed " << seed << ": forked at step " << forked.result.forked_at_step;
  EXPECT_EQ(scratch.result.forked_at_step, 0);
  return forked.result.forked_at_step > 0;
}

// Windows of one candidate each, armed at the first instance after every
// snapshot of the site that ran most before it: the fork lands right before
// the instance fires. The same instance one occurrence earlier was already
// reached at that snapshot, so it must fork from an earlier one.
std::vector<Window> BoundaryWindows(const ExplorerContext& context) {
  std::vector<Window> windows;
  for (const interp::RunSnapshot& snapshot : context.snapshots()) {
    const FaultCandidate* busiest = nullptr;
    for (const FaultCandidate& candidate : context.candidates()) {
      if (busiest == nullptr || snapshot.occurrences()[static_cast<size_t>(candidate.site)] >
                                    snapshot.occurrences()[static_cast<size_t>(busiest->site)]) {
        busiest = &candidate;
      }
    }
    const int64_t count = snapshot.occurrences()[static_cast<size_t>(busiest->site)];
    const interp::RunSnapshot* after = context.ForkPoint({Arm(*busiest, count + 1)});
    const interp::RunSnapshot* at = context.ForkPoint({Arm(*busiest, count)});
    EXPECT_TRUE(after != nullptr && after->steps() >= snapshot.steps());
    EXPECT_TRUE(at == nullptr || at->steps() < snapshot.steps());
    windows.push_back({Arm(*busiest, count + 1)});
    windows.push_back({Arm(*busiest, count)});
  }
  return windows;
}

bool IsStorm(const systems::FailureCase& failure_case) {
  for (const systems::FailureCase& storm : systems::StormCases()) {
    if (storm.id == failure_case.id) {
      return true;
    }
  }
  return false;
}

// Every registered scenario at two seeds: the context's first 10 candidates
// at occurrences 1 and 2, the ground truth (for a cascade, also under a
// context built with its earlier steps pinned), every window the full search
// arms, and on the storms a window on either side of every snapshot.
TEST(ForkDifferential, ForkedRunsMatchFromScratchOnEveryScenario) {
  int scenarios = 0;
  for (const std::vector<systems::FailureCase>* registry :
       {&systems::AllCases(), &systems::CrashStallCases(), &systems::NetworkCases(),
        &systems::CascadeCases(), &systems::StormCases()}) {
    for (const systems::FailureCase& failure_case : *registry) {
      ++scenarios;
      SCOPED_TRACE(failure_case.id);
      std::unique_ptr<systems::BuiltCase> built = Build(failure_case);
      const ExperimentSpec& spec = built->spec;
      ExplorerOptions options = OptionsForCase(failure_case);
      options.max_rounds = built->ground_truth_chain.empty() ? 300 : 40;
      Explorer explorer(spec, options);
      const ExplorerContext& context = explorer.context();

      std::vector<Window> windows;
      for (int64_t occurrence : {1, 2}) {
        Window window;
        for (size_t c = 0; c < std::min<size_t>(10, context.candidates().size()); ++c) {
          window.push_back(Arm(context.candidates()[c], occurrence));
        }
        windows.push_back(std::move(window));
      }
      windows.push_back({built->ground_truth});
      WindowRecorder recorder;
      const ExploreResult search = explorer.Explore(&recorder);
      windows.insert(windows.end(), recorder.windows.begin(), recorder.windows.end());
      for (Window& window : BoundaryWindows(context)) {
        windows.push_back(std::move(window));
      }

      std::unique_ptr<ExperimentSpec> chained;
      std::unique_ptr<ExplorerContext> chained_context;
      if (built->ground_truth_chain.size() > 1) {
        chained = std::make_unique<ExperimentSpec>(spec);
        chained->pinned_faults.assign(built->ground_truth_chain.begin(),
                                      built->ground_truth_chain.end() - 1);
        chained_context = std::make_unique<ExplorerContext>(*chained, options);
      }
      int forks = 0;
      for (uint64_t seed : {spec.base_seed, spec.base_seed + 7919}) {
        for (size_t w = 0; w < windows.size(); ++w) {
          forks += CheckFork(spec, context, windows[w], seed, "window " + std::to_string(w));
        }
        if (chained != nullptr) {
          forks += CheckFork(*chained, *chained_context, {built->ground_truth_chain.back()}, seed,
                             "ground-truth chain");
        }
      }
      int search_forks = 0;
      for (const RoundRecord& record : search.records) {
        search_forks += record.forked_runs;
      }
      if (IsStorm(failure_case)) {
        const std::vector<interp::RunSnapshot>& snapshots = context.snapshots();
        EXPECT_FALSE(snapshots.empty());
        EXPECT_LE(snapshots.size(), interp::Simulator::kMaxSnapshots);
        for (size_t i = 1; i < snapshots.size(); ++i) {
          EXPECT_LT(snapshots[i - 1].steps(), snapshots[i].steps());
        }
        EXPECT_GT(forks, 0);
        EXPECT_GT(search_forks, 0);
      } else {
        // Seed-dependent prefixes capture nothing; so do the seed-free
        // registry runs, which end below the capture threshold.
        EXPECT_TRUE(context.snapshots().empty());
        EXPECT_EQ(forks, 0);
        EXPECT_EQ(search_forks, 0);
      }
    }
  }
  EXPECT_EQ(scenarios, 33);
}

// Steps of the snapshots a 3,000-tick run captures: one event per tick (a
// 1 ms sleep), ~20k steps in all. At tick `send_at` (never, when 0) the run
// sends a message to the other node, which draws latency jitter from the
// seed.
std::vector<int64_t> CapturedSteps(int64_t send_at) {
  ir::Program program;
  program.DefineException("IOException");
  {
    ir::MethodBuilder b(&program, "peer.handle");
    b.Assign("got", ir::Expr::Const(1));
  }
  {
    ir::MethodBuilder b(&program, "main.tick");
    b.While(b.Lt("ticks", 3000), [&] {
      b.Assign("ticks", b.Plus("ticks", 1));
      b.External("disk.write", {"IOException"});
      b.If(b.Eq("ticks", send_at), [&] { b.Send("peer.handle", "n2"); });
      b.Sleep(1);
    });
  }
  program.Finalize();
  interp::ClusterSpec cluster;
  cluster.AddNode("n1");
  cluster.AddNode("n2");
  cluster.AddTask("n1", "main", program.FindMethod("main.tick"), 0);
  interp::FaultRuntime runtime(&program);
  std::vector<interp::RunSnapshot> snapshots;
  interp::Simulator simulator(&program, &cluster, /*seed=*/7, &runtime);
  simulator.set_capture(&snapshots);
  simulator.Run();
  std::vector<int64_t> steps;
  for (const interp::RunSnapshot& snapshot : snapshots) {
    steps.push_back(snapshot.steps());
  }
  return steps;
}

// Capture stops for good at the run's first draw from its seed, so every
// snapshot lies in the seed-free prefix; none is taken before
// kCaptureMinSteps.
TEST(ForkCapture, SeedDrawEndsCapture) {
  const std::vector<int64_t> seed_free = CapturedSteps(0);
  ASSERT_GE(seed_free.size(), 3u);
  EXPECT_GE(seed_free.front(), interp::Simulator::kCaptureMinSteps);
  EXPECT_TRUE(CapturedSteps(1).empty());
  const std::vector<int64_t> late_send = CapturedSteps(2700);
  ASSERT_FALSE(late_send.empty());
  ASSERT_LT(late_send.size(), seed_free.size());
  EXPECT_EQ(late_send,
            std::vector<int64_t>(seed_free.begin(),
                                 seed_free.begin() + static_cast<ptrdiff_t>(late_send.size())));
}

// The storms' search rounds after the first arm instances past the middle of
// the fault-free run, so every one of their runs forks and skips at least
// half its steps, at every base seed and thread count the benchmark uses.
TEST(ForkPlacement, StormRoundsTwoToFiveSkipHalfTheirSteps) {
  for (const systems::FailureCase& failure_case : systems::StormCases()) {
    for (uint64_t offset : {0, 1000, 7919}) {
      SCOPED_TRACE(failure_case.id + " +" + std::to_string(offset));
      std::unique_ptr<systems::BuiltCase> built = Build(failure_case);
      built->spec.base_seed += offset;
      ExplorerOptions options = OptionsForCase(failure_case, /*threads=*/4);
      options.runs_per_round = 4;
      Explorer explorer(built->spec, options);
      std::unique_ptr<InjectionStrategy> strategy = MakeFullFeedbackStrategy();
      const ExploreResult result = explorer.Explore(strategy.get());
      ASSERT_TRUE(result.reproduced);
      ASSERT_EQ(result.rounds, 5);
      EXPECT_EQ(result.records[0].forked_runs, 0);
      for (size_t r = 1; r < result.records.size(); ++r) {
        const RoundRecord& record = result.records[r];
        EXPECT_EQ(record.forked_runs, record.runs) << "round " << record.round;
        EXPECT_GE(2 * record.skipped_steps, record.steps) << "round " << record.round;
      }
    }
  }
}

// A chain phase builds its context over the chain prefix pinned into the
// fault-free run; its runs pin the same faults, so only the window decides
// the fork point.
TEST(ForkDifferential, ChainPhaseForksOverThePinnedBaseline) {
  const systems::FailureCase& failure_case = *systems::FindCase("zk-storm-1");
  std::unique_ptr<systems::BuiltCase> built = Build(failure_case);
  ExplorerOptions options = OptionsForCase(failure_case);
  ExperimentSpec phase = built->spec;
  {
    const ExplorerContext unpinned(built->spec, options);
    ASSERT_FALSE(unpinned.candidates().empty());
    phase.pinned_faults.push_back(Arm(unpinned.candidates().front(), 1));
  }
  const ExplorerContext context(phase, options);
  ASSERT_FALSE(context.snapshots().empty());
  int forks = 0;
  std::vector<Window> windows = BoundaryWindows(context);
  for (const int64_t occurrence : {1, 2}) {
    windows.push_back({Arm(context.candidates().back(), occurrence)});
  }
  for (size_t w = 0; w < windows.size(); ++w) {
    forks += CheckFork(phase, context, windows[w], phase.base_seed + 3,
                       "window " + std::to_string(w));
  }
  EXPECT_GT(forks, 0);
}

// The fault-free run's prefix holds only the pins it armed. Once a fault is
// pinned into the spec after its context was built, as ChainExplorer pins
// its own spec between phases, nothing forks: not a window the unpinned
// spec forks, and not a search over the shared context.
TEST(ForkDifferential, RepinnedSpecForksNothing) {
  const systems::FailureCase& failure_case = *systems::FindCase("ca-storm-1");
  std::unique_ptr<systems::BuiltCase> built = Build(failure_case);
  ExplorerOptions options = OptionsForCase(failure_case);
  options.max_rounds = 5;
  auto context = std::make_shared<const ExplorerContext>(built->spec, options);
  const Window window = BoundaryWindows(*context).back();
  ASSERT_NE(context->ForkPoint(window), nullptr);

  built->spec.pinned_faults.push_back(Arm(context->candidates().front(), 1));
  EXPECT_EQ(context->ForkPoint(window), nullptr);
  EXPECT_FALSE(CheckFork(built->spec, *context, window, built->spec.base_seed, "re-pinned"));
  Explorer explorer(context, options);
  std::unique_ptr<InjectionStrategy> strategy = MakeFullFeedbackStrategy();
  const ExploreResult search = explorer.Explore(strategy.get());
  ASSERT_FALSE(search.records.empty());
  for (const RoundRecord& record : search.records) {
    EXPECT_EQ(record.forked_runs, 0) << "round " << record.round;
  }
}

// Snapshots do not carry the fault-instance trace, so a tracing run ignores
// its fork point and simulates from step 0.
TEST(ForkDifferential, TracingRunStartsFromStepZero) {
  const systems::FailureCase& failure_case = *systems::FindCase("zk-storm-1");
  std::unique_ptr<systems::BuiltCase> built = Build(failure_case);
  const ExplorerContext context(built->spec, OptionsForCase(failure_case));
  ASSERT_FALSE(context.snapshots().empty());
  const Window window = BoundaryWindows(context).back();
  ASSERT_NE(context.ForkPoint(window), nullptr);
  const SimulatedRun traced =
      Simulate(built->spec, window, built->spec.base_seed, &context, /*tracing=*/true);
  const SimulatedRun scratch =
      Simulate(built->spec, window, built->spec.base_seed, nullptr, /*tracing=*/true);
  EXPECT_EQ(traced.result.forked_at_step, 0);
  EXPECT_FALSE(traced.result.trace.empty());
  EXPECT_EQ(FirstDifference(traced, scratch), "");
}

// A forked run times only its suffix's hook decisions and extrapolates them
// over the whole run, so the per-request estimate keeps its scale.
TEST(ForkDifferential, DecisionNanosCoverTheSkippedRequests) {
  const systems::FailureCase& failure_case = *systems::FindCase("ca-storm-1");
  std::unique_ptr<systems::BuiltCase> built = Build(failure_case);
  const ExplorerContext context(built->spec, OptionsForCase(failure_case));
  const Window window = BoundaryWindows(context).back();
  const interp::RunResult forked =
      Simulate(built->spec, window, built->spec.base_seed, &context).result;
  ASSERT_GT(forked.forked_at_step, 0);
  ASSERT_GT(forked.injection_requests, 0);
  EXPECT_GT(forked.decision_nanos, 0);
}

}  // namespace
}  // namespace anduril::explorer
