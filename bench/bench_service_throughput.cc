// Reproduction-service throughput: the full 22-case registry queue run
// end-to-end through RunService, serial (workers=0, the in-process baseline)
// versus sharded across N supervised worker processes. Reports wall-clock
// and cases/minute per configuration and emits BENCH_service.json.
//
// The default 200-round slice runs every case in one slice, so those rows
// measure spawn and per-case cost only. The 4-round rows cut the same queue
// into short slices, so each one pays the daemon/worker handoff (and, on a
// worker, a context rebuild whenever a case lands on a cold cache).
//
// Speedup is hardware-bound the same way bench_parallel_speedup's is, with
// two extra sources of overhead unique to the service: fork/exec of worker
// processes and the work-unit IPC (a unit packet and a result packet on the
// worker's socketpair per slice, plus the case's checkpoint and metrics
// writes). hardware_concurrency is recorded so the ratios are interpretable
// wherever the bench ran.
//
// The hard gates are correctness, not speed: every case must reproduce in
// every configuration, and the per-case outcomes (script, seed, rounds) must
// be identical across worker counts — the service-level determinism
// contract. The bench CHECK-fails loudly if either breaks.

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/service/daemon.h"
#include "src/util/check.h"
#include "src/util/stopwatch.h"
#include "src/util/strings.h"

namespace anduril::bench {
namespace {

namespace fs = std::filesystem;

struct Measurement {
  int workers = 0;  // 0 = in-process serial
  int slice_rounds = 0;
  double seconds = 0;
  double cases_per_minute = 0;
  int reproduced = 0;
  int slices = 0;
  int respawns = 0;
};

std::vector<service::QueueCase> FullRegistryQueue() {
  std::vector<service::QueueCase> seed;
  for (const systems::FailureCase& failure_case : systems::AllCases()) {
    service::QueueCase entry;
    entry.id = failure_case.id;
    entry.round_budget = 2000;
    seed.push_back(std::move(entry));
  }
  return seed;
}

// Per-case outcome fields that must not depend on the worker count.
using Outcome = std::tuple<std::string, std::string, uint64_t, int>;

std::vector<Outcome> Outcomes(const service::QueueManifest& manifest) {
  std::vector<Outcome> out;
  for (const service::QueueCase& entry : manifest.cases) {
    out.emplace_back(entry.id, entry.script, entry.script_seed, entry.rounds_done);
  }
  return out;
}

int Main() {
  const unsigned hardware = std::thread::hardware_concurrency();
  std::printf("Reproduction-service throughput (full %zu-case queue, "
              "hardware_concurrency=%u)\n\n",
              FullRegistryQueue().size(), hardware);
  PrintRow({"workers", "slice", "seconds", "cases/min", "slices", "respawns", "vs serial"},
           {8, 6, 9, 10, 7, 9, 10});

  const std::string root = fs::temp_directory_path().string() + "/anduril_bench_service";
  fs::remove_all(root);

  std::vector<Measurement> measurements;
  std::vector<Outcome> serial_outcomes;
  double serial_seconds = 0;
  bool deterministic = true;
  const int case_count = static_cast<int>(FullRegistryQueue().size());

  // Serial first at each width: the sharded rows compare against it.
  const int kDefaultSlice = service::ServeOptions().slice_rounds;
  const std::pair<int, int> configs[] = {
      {0, kDefaultSlice}, {2, kDefaultSlice}, {4, kDefaultSlice}, {8, kDefaultSlice},
      {0, 4},             {4, 4},
  };
  for (const auto& [workers, slice_rounds] : configs) {
    service::ServeOptions options;
    options.state_dir =
        root + "/w" + std::to_string(workers) + "-s" + std::to_string(slice_rounds);
    fs::create_directories(options.state_dir);
    options.seed_cases = FullRegistryQueue();
    options.workers = workers;
    options.slice_rounds = slice_rounds;
    options.serve_binary = ANDURIL_SERVE_BIN;
    options.verbose = false;

    Stopwatch timer;
    const service::ServeReport report = service::RunService(options);
    Measurement m;
    m.workers = workers;
    m.slice_rounds = slice_rounds;
    m.seconds = timer.ElapsedSeconds();
    m.cases_per_minute = m.seconds > 0 ? case_count / (m.seconds / 60.0) : 0;
    m.reproduced = report.manifest.CountState(service::CaseState::kReproduced);
    m.slices = report.slices_applied;
    m.respawns = report.worker_respawns;

    ANDURIL_CHECK(!report.error);
    ANDURIL_CHECK(!report.interrupted);
    ANDURIL_CHECK(m.reproduced == case_count);
    if (serial_outcomes.empty()) {
      serial_outcomes = Outcomes(report.manifest);
    } else if (Outcomes(report.manifest) != serial_outcomes) {
      deterministic = false;
    }
    if (workers == 0) {
      serial_seconds = m.seconds;
    }

    const double speedup = m.seconds > 0 ? serial_seconds / m.seconds : 0;
    PrintRow({workers == 0 ? "serial" : std::to_string(workers), std::to_string(slice_rounds),
              StrFormat("%.3f", m.seconds), StrFormat("%.1f", m.cases_per_minute),
              std::to_string(m.slices), std::to_string(m.respawns),
              StrFormat("%.2fx", speedup)},
             {8, 6, 9, 10, 7, 9, 10});
    std::fflush(stdout);
    measurements.push_back(m);
  }

  std::printf("\nDeterminism across worker counts and slice widths: %s\n",
              deterministic ? "OK" : "BROKEN");
  ANDURIL_CHECK(deterministic);

  FILE* json = std::fopen("BENCH_service.json", "w");
  ANDURIL_CHECK(json != nullptr);
  std::fprintf(json, "{\n  \"hardware_concurrency\": %u,\n", hardware);
  std::fprintf(json, "  \"queue_cases\": %d,\n", case_count);
  std::fprintf(json, "  \"deterministic_across_worker_counts\": %s,\n",
               deterministic ? "true" : "false");
  std::fprintf(json, "  \"runs\": [\n");
  for (size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    std::fprintf(json,
                 "    {\"workers\": %d, \"slice_rounds\": %d, \"seconds\": %.6f, "
                 "\"cases_per_minute\": %.3f, \"reproduced\": %d, "
                 "\"slices\": %d, \"respawns\": %d}%s\n",
                 m.workers, m.slice_rounds, m.seconds, m.cases_per_minute, m.reproduced,
                 m.slices, m.respawns, i + 1 < measurements.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("Wrote BENCH_service.json\n");

  fs::remove_all(root);
  return 0;
}

}  // namespace
}  // namespace anduril::bench

int main() { return anduril::bench::Main(); }
