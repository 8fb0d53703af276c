// Reproduction benchmark driver: one workload per invocation.
//
//   reprobench --workload registry-serial|storm-rep4|serve-sliced --seed N
//              --seconds S --trace 0|1 --workdir DIR
//   reprobench worker <dir> <daemon_pid>
//
// The second form is the service's worker process: serve-sliced runs the
// service with this binary as its worker, so workers see the same shifted
// case seeds as the driver. The first form prints one JSON object as its last
// line of output:
//   {"correct": bool, "attempted": N, "failed": N,
//    "metrics": {"<name>": {"value": x, "unit": "<unit>"}, ...}}

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "reprobench/workloads.h"
#include "src/service/worker.h"

namespace {

// Worker processes inherit the workload seed through the environment.
constexpr char kSeedShiftEnv[] = "REPROBENCH_SEED_SHIFT";

std::atomic<bool> g_cancel{false};

void OnDrainSignal(int /*signum*/) { g_cancel.store(true, std::memory_order_relaxed); }

int Worker(int argc, char** argv) {
  if (const char* shift = std::getenv(kSeedShiftEnv)) {
    reprobench::ShiftRegistrySeeds(std::strtoull(shift, nullptr, 10));
  }
  std::signal(SIGTERM, OnDrainSignal);
  std::signal(SIGINT, OnDrainSignal);
  anduril::service::WorkerOptions options;
  options.work_dir = argv[2];
  options.parent_pid = argc > 3 ? std::atoll(argv[3]) : 0;
  options.cancel = &g_cancel;
  return anduril::service::RunWorkerLoop(options);
}

int Usage() {
  std::fprintf(stderr,
               "usage: reprobench --workload registry-serial|storm-rep4|serve-sliced "
               "--seed N --seconds S --trace 0|1 --workdir DIR\n");
  return 2;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "worker") {
    return Worker(argc, argv);
  }
  reprobench::Args args;
  if (argc % 2 == 0) {
    return Usage();
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      return Usage();
    }
  }
  if (!reprobench::KnownWorkload(args.workload) || args.workdir.empty() ||
      !(args.seconds > 0)) {
    return Usage();
  }
  setenv(kSeedShiftEnv, std::to_string(args.seed).c_str(), 1);
  reprobench::ShiftRegistrySeeds(args.seed);

  reprobench::Report report = reprobench::RunWorkload(args);
  for (const reprobench::Metric& metric : report.metrics) {
    if (!std::isfinite(metric.value)) {
      report.Fail("metric " + metric.name + " is not finite");
    }
  }
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "reprobench: %s\n", error.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const reprobench::Metric& metric = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    json += (i == 0 ? "" : ", ") + JsonString(metric.name) + ": {\"value\": " + value +
            ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
