// Raw interpreter throughput: the flattened direct-threaded dispatch loop
// with the per-run state an explorer worker thread keeps (shared
// FlatProgram, pooled RunScratch with result recycling, one reused
// FaultRuntime), on the fault-free exploration workloads of zk-2247
// (exception root) and hd-net-1 (message-layer root), which is what every
// search round executes thousands of times. Fault-instance tracing stays on,
// as in every recorded BENCH_interp.json (search runs turn it off; the
// context's fault-free run keeps it). Emits BENCH_interp.json.
//
// Methodology: each sample is a back-to-back batch of identical runs, the
// best of kRepetitions batches is the floor, and ns/step divides it by the
// run's (deterministic) interpreter step count. The CHECKs at the end are
// the CI regression gate:
//   - steps_per_run must equal the count tests/golden/interp_runs.txt pins
//     for the same run (the step accounting is a contract, see flatten.h);
//   - ns/step must stay at or under a fixed per-case ceiling. The ceilings
//     are the last recorded ns/step of the statement-tree walker the flat
//     loop replaced (88.54 and 89.15; EXPERIMENTS.md keeps the rows)
//     divided by 2.5: the bar the former "flat is 2.5x the tree walker"
//     floor set. The flat path records ~17-20 ns/step, so the gate fails on
//     a ~2x regression without flaking on machine variance.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/interp/simulator.h"
#include "src/ir/flatten.h"
#include "src/obs/metrics.h"
#include "src/util/check.h"
#include "src/util/stopwatch.h"
#include "src/util/strings.h"

namespace anduril::bench {
namespace {

constexpr int kRepetitions = 200;  // timed batches per case
constexpr int kRunsPerBatch = 50;  // back-to-back runs in one timed sample
constexpr int kWarmupBatches = 3;  // untimed

struct Gate {
  const char* id;
  int64_t steps_per_run;  // pinned in tests/golden/interp_runs.txt
  double max_ns_per_step;
};

constexpr Gate kGates[] = {
    {"zk-2247", 2311, 35.4},
    {"hd-net-1", 2227, 35.7},
};

struct CaseResult {
  Gate gate;
  int64_t steps_per_run = 0;  // measured; deterministic across runs
  double best_seconds = 0;
};

CaseResult BenchCase(const Gate& gate) {
  const systems::FailureCase* failure_case = systems::FindCase(gate.id);
  ANDURIL_CHECK(failure_case != nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case, /*verify=*/false);
  const uint64_t seed = failure_case->explore_seed;

  ir::FlatProgram flat(*built.program);
  interp::RunScratch scratch;
  interp::FaultRuntime runtime(built.program.get());
  runtime.set_tracing(true);

  auto run_once = [&](obs::MetricsRegistry* metrics) {
    interp::Simulator simulator(built.program.get(), &built.cluster, seed, &runtime, &flat,
                                &scratch);
    if (metrics != nullptr) {
      simulator.set_metrics(metrics);
    }
    return simulator.Run();
  };

  CaseResult result;
  result.gate = gate;
  // Calibration: one metered run yields the ns/step denominator.
  {
    obs::MetricsRegistry metrics;
    interp::RunResult run = run_once(&metrics);
    ANDURIL_CHECK(run.outcome == interp::RunOutcome::kCompleted);
    result.steps_per_run = metrics.histogram("sim.steps").sum;
    scratch.Recycle(std::move(run));
  }

  // Each consumed result's buffers go back to the scratch, exactly as the
  // explorer's round loop does.
  auto run_batch = [&]() {
    for (int i = 0; i < kRunsPerBatch; ++i) {
      scratch.Recycle(run_once(nullptr));
    }
  };
  for (int i = 0; i < kWarmupBatches; ++i) {
    run_batch();
  }
  std::vector<double> samples;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    Stopwatch timer;
    run_batch();
    samples.push_back(timer.ElapsedSeconds());
  }
  result.best_seconds = *std::min_element(samples.begin(), samples.end());
  return result;
}

double RunsPerSecond(const CaseResult& result) {
  return kRunsPerBatch / result.best_seconds;
}

double NanosPerStep(const CaseResult& result) {
  return result.best_seconds * 1e9 / (static_cast<double>(kRunsPerBatch) *
                                      static_cast<double>(result.steps_per_run));
}

int Main() {
  std::vector<CaseResult> results;
  for (const Gate& gate : kGates) {
    results.push_back(BenchCase(gate));
  }

  std::printf("Interpreter throughput: flattened direct-threaded dispatch loop\n"
              "(fault-free workload, best of %d %d-run batches)\n\n",
              kRepetitions, kRunsPerBatch);
  PrintRow({"case", "steps", "runs/sec", "ns/step", "ceiling"}, {10, 8, 12, 10, 9});
  for (const CaseResult& result : results) {
    PrintRow({result.gate.id, std::to_string(result.steps_per_run),
              StrFormat("%.0f", RunsPerSecond(result)), StrFormat("%.1f", NanosPerStep(result)),
              StrFormat("%.1f", result.gate.max_ns_per_step)},
             {10, 8, 12, 10, 9});
  }

  FILE* json = std::fopen("BENCH_interp.json", "w");
  ANDURIL_CHECK(json != nullptr);
  std::fprintf(json, "{\n  \"repetitions\": %d,\n  \"runs_per_batch\": %d,\n  \"cases\": [\n",
               kRepetitions, kRunsPerBatch);
  for (size_t i = 0; i < results.size(); ++i) {
    const CaseResult& result = results[i];
    std::fprintf(json,
                 "    {\"case\": \"%s\", \"steps_per_run\": %lld, \"best_seconds\": %.6f, "
                 "\"runs_per_sec\": %.1f, \"ns_per_step\": %.2f, "
                 "\"max_ns_per_step\": %.1f}%s\n",
                 result.gate.id, static_cast<long long>(result.steps_per_run),
                 result.best_seconds, RunsPerSecond(result), NanosPerStep(result),
                 result.gate.max_ns_per_step, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nWrote BENCH_interp.json\n");

  for (const CaseResult& result : results) {
    ANDURIL_CHECK(result.steps_per_run == result.gate.steps_per_run)
        << result.gate.id << ": " << result.steps_per_run << " steps per run, the golden pins "
        << result.gate.steps_per_run;
    ANDURIL_CHECK(NanosPerStep(result) <= result.gate.max_ns_per_step)
        << "flattened-interpreter regression on " << result.gate.id << ": "
        << NanosPerStep(result) << " ns/step, ceiling " << result.gate.max_ns_per_step;
    std::printf("%s: %lld steps/run, %.1f ns/step (ceiling %.1f)\n", result.gate.id,
                static_cast<long long>(result.steps_per_run), NanosPerStep(result),
                result.gate.max_ns_per_step);
  }
  return 0;
}

}  // namespace
}  // namespace anduril::bench

int main() { return anduril::bench::Main(); }
