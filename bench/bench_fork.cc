// Fork benchmark: what starting search runs from snapshots of the fault-free
// run saves on the storm cases, the only registered scenarios whose
// fault-free runs are seed-free and long enough to capture. Emits
// BENCH_fork.json.
//
// Per storm case, the plans of rounds 2-5 of a full search at 4 runs per
// round (the windows the search armed, the seeds the explorer gives them)
// are executed forked — from ExplorerContext::ForkPoint — and from scratch,
// in alternating passes over the plans on one thread with one pooled
// scratch, as a search worker runs them. Reported: the median plan wall time both ways,
// the fraction of interpreter steps the forks skipped, the snapshot count
// and bytes, and the cost capture adds to the context build (the fault-free
// run with and without capture, alternating).
//
// The CHECKs are the CI gate: every forked run's digest (interp::DigestRun)
// equals the from-scratch run's, the forks skip at least half the plans'
// steps, and forked plans take at most 0.75x the from-scratch wall time — a
// loose bound, so shared runners do not flake.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/interp/simulator.h"
#include "src/systems/harness.h"
#include "src/util/check.h"
#include "src/util/stopwatch.h"
#include "src/util/strings.h"

namespace anduril::bench {
namespace {

using Window = std::vector<interp::InjectionCandidate>;

constexpr int kRunsPerRound = 4;
constexpr int kRepetitions = 30;        // timed passes over the plans, each way
constexpr int kCaptureRepetitions = 40;  // fault-free runs, each way
constexpr double kMinSkippedFraction = 0.5;
constexpr double kMaxForkedRatio = 0.75;

// Forwards to full feedback and records every window it arms.
class WindowRecorder : public explorer::InjectionStrategy {
 public:
  WindowRecorder() : inner_(explorer::MakeFullFeedbackStrategy()) {}
  std::string name() const override { return inner_->name(); }
  void Initialize(const explorer::ExplorerContext& context) override {
    inner_->Initialize(context);
  }
  std::vector<interp::InjectionCandidate> NextWindow() override {
    windows.push_back(inner_->NextWindow());
    return windows.back();
  }
  void OnRound(const explorer::RoundOutcome& outcome) override { inner_->OnRound(outcome); }
  bool Exhausted() const override { return inner_->Exhausted(); }
  bool WantsLogFeedback() const override { return inner_->WantsLogFeedback(); }

  std::vector<Window> windows;

 private:
  std::unique_ptr<explorer::InjectionStrategy> inner_;
};

struct PlanItem {
  Window window;
  uint64_t seed = 0;
};

struct CaseResult {
  std::string id;
  int items = 0;
  int forked_items = 0;
  int64_t steps = 0;
  int64_t skipped_steps = 0;
  size_t snapshots = 0;
  size_t snapshot_bytes = 0;
  double context_ms = 0;
  double baseline_ms = 0;          // fault-free run, no capture (median)
  double baseline_capture_ms = 0;  // the same run capturing (median)
  double scratch_ms = 0;           // one pass over the plans (median)
  double forked_ms = 0;

  double skipped_fraction() const {
    return static_cast<double>(skipped_steps) / static_cast<double>(steps);
  }
  double forked_ratio() const { return forked_ms / scratch_ms; }
};

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 != 0 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

interp::RunResult Simulate(const explorer::ExperimentSpec& spec,
                           const explorer::ExplorerContext& context, const PlanItem& item,
                           bool fork, interp::FaultRuntime* runtime,
                           interp::RunScratch* scratch) {
  runtime->set_tracing(false);
  runtime->SetWindow(item.window);
  runtime->SetPinned(spec.pinned_faults);
  interp::Simulator simulator(spec.program, spec.cluster, item.seed, runtime,
                              context.flat_program(), scratch);
  if (fork) {
    simulator.set_start(context.ForkPoint(item.window), &context.baseline_log());
  }
  return simulator.Run();
}

// The fault-free run the context starts with, timed with and without capture.
void TimeCapture(const explorer::ExperimentSpec& spec, const explorer::ExplorerContext& context,
                 CaseResult* result) {
  std::vector<double> plain;
  std::vector<double> capturing;
  for (int rep = 0; rep < kCaptureRepetitions; ++rep) {
    for (bool capture : {rep % 2 == 0, rep % 2 != 0}) {
      interp::FaultRuntime runtime(spec.program);
      std::vector<interp::RunSnapshot> snapshots;
      const Stopwatch timer;
      interp::Simulator simulator(spec.program, spec.cluster, spec.base_seed, &runtime,
                                  context.flat_program());
      if (capture) {
        simulator.set_capture(&snapshots);
      }
      simulator.Run();
      (capture ? capturing : plain).push_back(timer.ElapsedMillis());
    }
  }
  result->baseline_ms = Median(plain);
  result->baseline_capture_ms = Median(capturing);
}

CaseResult BenchCase(const systems::FailureCase& failure_case) {
  CaseResult result;
  result.id = failure_case.id;
  systems::BuiltCase built = systems::BuildCase(failure_case);
  const explorer::ExperimentSpec& spec = built.spec;
  explorer::ExplorerOptions options = systems::OptionsForCase(failure_case);
  options.runs_per_round = kRunsPerRound;

  const Stopwatch context_timer;
  explorer::Explorer explorer(spec, options);
  result.context_ms = context_timer.ElapsedMillis();
  const explorer::ExplorerContext& context = explorer.context();
  result.snapshots = context.snapshots().size();
  for (const interp::RunSnapshot& snapshot : context.snapshots()) {
    result.snapshot_bytes += snapshot.bytes();
  }
  TimeCapture(spec, context, &result);

  WindowRecorder recorder;
  const explorer::ExploreResult search = explorer.Explore(&recorder);
  ANDURIL_CHECK(search.reproduced && search.rounds == 5)
      << failure_case.id << ": full feedback took " << search.rounds << " rounds";
  std::vector<PlanItem> plan;
  for (int round = 2; round <= 5; ++round) {
    for (int rep = 0; rep < kRunsPerRound; ++rep) {
      plan.push_back(PlanItem{recorder.windows[static_cast<size_t>(round - 1)],
                              spec.base_seed + static_cast<uint64_t>(round * kRunsPerRound + rep)});
    }
  }
  result.items = static_cast<int>(plan.size());

  interp::FaultRuntime runtime(spec.program);
  interp::RunScratch scratch;
  for (const PlanItem& item : plan) {
    interp::RunResult forked = Simulate(spec, context, item, true, &runtime, &scratch);
    const uint64_t forked_digest = interp::DigestRun(forked);
    result.forked_items += forked.forked_at_step > 0 ? 1 : 0;
    result.steps += forked.steps;
    result.skipped_steps += forked.forked_at_step;
    scratch.Recycle(std::move(forked));
    interp::RunResult from_scratch = Simulate(spec, context, item, false, &runtime, &scratch);
    ANDURIL_CHECK(interp::DigestRun(from_scratch) == forked_digest)
        << failure_case.id << ": the forked run differs from the from-scratch run at seed "
        << item.seed;
    scratch.Recycle(std::move(from_scratch));
  }

  std::vector<double> scratch_ms;
  std::vector<double> forked_ms;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    // Alternate which side goes first, so drift on the host hits both.
    for (bool fork : {rep % 2 == 0, rep % 2 != 0}) {
      const Stopwatch timer;
      for (const PlanItem& item : plan) {
        scratch.Recycle(Simulate(spec, context, item, fork, &runtime, &scratch));
      }
      (fork ? forked_ms : scratch_ms).push_back(timer.ElapsedMillis());
    }
  }
  result.scratch_ms = Median(scratch_ms);
  result.forked_ms = Median(forked_ms);
  return result;
}

int Main() {
  std::vector<CaseResult> results;
  for (const systems::FailureCase& failure_case : systems::StormCases()) {
    results.push_back(BenchCase(failure_case));
  }

  std::printf("Forked search runs: rounds 2-5 of a full search, %d runs per round\n"
              "(median of %d alternating passes, one thread)\n\n",
              kRunsPerRound, kRepetitions);
  PrintRow({"case", "runs", "forked", "skipped", "scratch ms", "forked ms", "ratio", "snapshots",
            "KiB", "capture ms"},
           {12, 6, 8, 9, 12, 11, 7, 11, 7, 11});
  for (const CaseResult& result : results) {
    PrintRow({result.id, std::to_string(result.items), std::to_string(result.forked_items),
              StrFormat("%.1f%%", 100 * result.skipped_fraction()),
              StrFormat("%.2f", result.scratch_ms), StrFormat("%.2f", result.forked_ms),
              StrFormat("%.2f", result.forked_ratio()), std::to_string(result.snapshots),
              StrFormat("%.0f", static_cast<double>(result.snapshot_bytes) / 1024),
              StrFormat("%+.2f", result.baseline_capture_ms - result.baseline_ms)},
             {12, 6, 8, 9, 12, 11, 7, 11, 7, 11});
  }

  FILE* json = std::fopen("BENCH_fork.json", "w");
  ANDURIL_CHECK(json != nullptr);
  std::fprintf(json,
               "{\n  \"runs_per_round\": %d,\n  \"repetitions\": %d,\n"
               "  \"min_skipped_fraction\": %.2f,\n  \"max_forked_ratio\": %.2f,\n"
               "  \"cases\": [\n",
               kRunsPerRound, kRepetitions, kMinSkippedFraction, kMaxForkedRatio);
  for (size_t i = 0; i < results.size(); ++i) {
    const CaseResult& result = results[i];
    std::fprintf(
        json,
        "    {\"case\": \"%s\", \"runs\": %d, \"forked_runs\": %d, \"steps\": %lld, "
        "\"skipped_steps\": %lld, \"skipped_fraction\": %.4f, \"scratch_ms\": %.3f, "
        "\"forked_ms\": %.3f, \"forked_ratio\": %.3f, \"snapshots\": %zu, "
        "\"snapshot_bytes\": %zu, \"context_ms\": %.3f, \"baseline_run_ms\": %.3f, "
        "\"baseline_run_capture_ms\": %.3f, \"capture_ms\": %.3f}%s\n",
        result.id.c_str(), result.items, result.forked_items,
        static_cast<long long>(result.steps), static_cast<long long>(result.skipped_steps),
        result.skipped_fraction(), result.scratch_ms, result.forked_ms, result.forked_ratio(),
        result.snapshots, result.snapshot_bytes, result.context_ms, result.baseline_ms,
        result.baseline_capture_ms, result.baseline_capture_ms - result.baseline_ms,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nWrote BENCH_fork.json\n");

  for (const CaseResult& result : results) {
    ANDURIL_CHECK(result.forked_items == result.items)
        << result.id << ": only " << result.forked_items << " of " << result.items
        << " runs forked";
    ANDURIL_CHECK(result.skipped_fraction() >= kMinSkippedFraction)
        << result.id << ": forks skipped " << result.skipped_fraction()
        << " of the steps, floor " << kMinSkippedFraction;
    ANDURIL_CHECK(result.forked_ratio() <= kMaxForkedRatio)
        << result.id << ": forked plans took " << result.forked_ratio()
        << "x the from-scratch time, ceiling " << kMaxForkedRatio;
  }
  return 0;
}

}  // namespace
}  // namespace anduril::bench

int main() { return anduril::bench::Main(); }
