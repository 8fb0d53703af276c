// Parallel exploration engine speedup: serial vs N-thread wall clock on the
// workload the engine parallelizes — multi-repetition rounds
// (runs_per_round = 4, the §6 combined-runs remedy) — plus the saving of
// sharing one analysis context across searches, as the service's
// ContextCache does. Emits BENCH_parallel.json.
//
// Speedup is hardware-bound: the simulations are pure CPU, so the N-thread
// ratio approaches min(N, cores) on idle multi-core machines and ~1.0 on a
// single-core container. hardware_concurrency is recorded alongside every
// ratio so the numbers are interpretable wherever the bench ran. The
// determinism cross-check (same script at every thread count) runs either
// way and fails the bench loudly if it breaks.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/util/check.h"
#include "src/util/stopwatch.h"
#include "src/util/strings.h"

namespace anduril::bench {
namespace {

struct Measurement {
  std::string case_id;
  int threads = 1;
  double seconds = 0;
  int rounds = 0;
  bool reproduced = false;
  std::string script;
};

Measurement RunOnce(const systems::BuiltCase& built, const std::string& case_id, int threads) {
  explorer::ExplorerOptions options;
  options.num_threads = threads;
  options.runs_per_round = 4;
  Stopwatch timer;
  explorer::Explorer ex(built.spec, options);
  auto strategy = explorer::MakeFullFeedbackStrategy();
  explorer::ExploreResult result = ex.Explore(strategy.get());

  Measurement m;
  m.case_id = case_id;
  m.threads = threads;
  m.seconds = timer.ElapsedSeconds();
  m.rounds = result.rounds;
  m.reproduced = result.reproduced;
  if (result.script.has_value()) {
    m.script = result.script->ToText(*built.spec.program);
  }
  return m;
}

double MeasureContextReuse(const systems::BuiltCase& built, double* rebuild_seconds,
                           double* reuse_seconds) {
  explorer::ExplorerOptions options;
  // Rebuild: three searches, each constructing the analysis from scratch.
  Stopwatch rebuild_timer;
  for (int i = 0; i < 3; ++i) {
    explorer::ExplorerContext context(built.spec, options);
    ANDURIL_CHECK(!context.candidates().empty());
  }
  *rebuild_seconds = rebuild_timer.ElapsedSeconds();

  // Reuse: the first search builds the context, two more share it.
  Stopwatch reuse_timer;
  auto shared = std::make_shared<const explorer::ExplorerContext>(built.spec, options);
  for (int i = 0; i < 2; ++i) {
    explorer::Explorer ex(shared, options);
    ANDURIL_CHECK(!ex.context().candidates().empty());
  }
  *reuse_seconds = reuse_timer.ElapsedSeconds();
  return *rebuild_seconds / *reuse_seconds;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

int Main() {
  const std::vector<std::string> case_ids = {"zk-2247", "hd-4233", "hb-25905"};
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  unsigned hardware = std::thread::hardware_concurrency();

  if (hardware <= 1) {
    // A single-core (or unknown-core) host cannot measure a meaningful
    // thread-scaling ratio: every "speedup" would be noise around 1.0.
    // Emit a machine-readable skip marker instead of junk numbers.
    std::printf("hardware_concurrency = %u: single-core host, skipping speedup "
                "measurements\n",
                hardware);
    FILE* json = std::fopen("BENCH_parallel.json", "w");
    ANDURIL_CHECK(json != nullptr);
    std::fprintf(json, "{\n  \"hardware_concurrency\": %u,\n  \"skipped\": true\n}\n",
                 hardware);
    std::fclose(json);
    std::printf("Wrote BENCH_parallel.json (skipped)\n");
    return 0;
  }

  std::printf("Parallel exploration engine: serial vs N-thread wall clock\n");
  std::printf("hardware_concurrency = %u\n\n", hardware);
  PrintRow({"Case", "Threads", "Seconds", "Rounds", "Speedup"}, {12, 9, 10, 8, 9});

  std::vector<Measurement> measurements;
  bool deterministic = true;
  double best_speedup_4t = 0;

  for (const std::string& case_id : case_ids) {
    const systems::FailureCase* failure_case = systems::FindCase(case_id);
    ANDURIL_CHECK(failure_case != nullptr);
    systems::BuiltCase built = systems::BuildCase(*failure_case);
    double serial_seconds = 0;
    std::string serial_script;
    for (int threads : thread_counts) {
      Measurement m = RunOnce(built, case_id, threads);
      if (threads == 1) {
        serial_seconds = m.seconds;
        serial_script = m.script;
      } else if (m.script != serial_script || !m.reproduced) {
        deterministic = false;
      }
      double speedup = m.seconds > 0 ? serial_seconds / m.seconds : 0;
      if (threads == 4) {
        best_speedup_4t = std::max(best_speedup_4t, speedup);
      }
      PrintRow({case_id, std::to_string(threads), StrFormat("%.3f", m.seconds),
                std::to_string(m.rounds), StrFormat("%.2fx", speedup)},
               {12, 9, 10, 8, 9});
      std::fflush(stdout);
      measurements.push_back(std::move(m));
    }
  }

  // Shared analysis cache: 3 searches, each building its context vs sharing one.
  const systems::FailureCase* reuse_case = systems::FindCase("zk-2247");
  systems::BuiltCase reuse_built = systems::BuildCase(*reuse_case);
  double rebuild_seconds = 0;
  double reuse_seconds = 0;
  double reuse_speedup = MeasureContextReuse(reuse_built, &rebuild_seconds, &reuse_seconds);
  std::printf("\nShared analysis cache (one context shared by 3 searches of zk-2247, as the "
              "service's ContextCache shares it): rebuild %.3fs vs reuse %.3fs -> %.2fx\n",
              rebuild_seconds, reuse_seconds, reuse_speedup);
  std::printf("Determinism across thread counts: %s\n", deterministic ? "OK" : "BROKEN");
  ANDURIL_CHECK(deterministic);

  FILE* json = std::fopen("BENCH_parallel.json", "w");
  ANDURIL_CHECK(json != nullptr);
  std::fprintf(json, "{\n  \"hardware_concurrency\": %u,\n", hardware);
  std::fprintf(json, "  \"deterministic_across_thread_counts\": %s,\n",
               deterministic ? "true" : "false");
  std::fprintf(json, "  \"best_speedup_at_4_threads\": %.3f,\n", best_speedup_4t);
  std::fprintf(json, "  \"context_reuse\": {\"rebuild_seconds\": %.6f, "
               "\"reuse_seconds\": %.6f, \"speedup\": %.3f},\n",
               rebuild_seconds, reuse_seconds, reuse_speedup);
  std::fprintf(json, "  \"runs\": [\n");
  for (size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    std::fprintf(json,
                 "    {\"case\": \"%s\", \"threads\": %d, \"seconds\": %.6f, "
                 "\"rounds\": %d, \"reproduced\": %s, \"script\": \"%s\"}%s\n",
                 m.case_id.c_str(), m.threads, m.seconds, m.rounds,
                 m.reproduced ? "true" : "false", JsonEscape(m.script).c_str(),
                 i + 1 < measurements.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nWrote BENCH_parallel.json\n");
  return 0;
}

}  // namespace
}  // namespace anduril::bench

int main() { return anduril::bench::Main(); }
