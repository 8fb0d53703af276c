// anduril_serve — reproduction-as-a-service daemon over the failure-case
// registry.
//
//   anduril_serve run <state_dir> [--cases=id[:budget],...] [--workers=N]
//                     [--slice-rounds=N] [--round-budget=N] [--quiet]
//                     [--heartbeat-timeout-ms=N]
//                     [--crash-after-slices=N] [--worker-crash-slice=K]
//                     [--worker-crash-rounds=R]
//       Enqueue the cases (default: all 22 base scenarios) and run the queue
//       to completion, sharding slices across N supervised worker processes
//       (0 = in-process serial). All state lives under <state_dir>; rerunning
//       with the same directory resumes the journaled queue — after a crash,
//       a SIGKILL, or a drain — with byte-identical final scripts and
//       metrics. Cascade cases are searched in chain mode automatically.
//       --crash-after-slices / --worker-crash-slice are deterministic
//       kill-emulation hooks used by the crash/resume tests. Every number is
//       a whole decimal; --slice-rounds must be at least 1, and a nonzero
//       --heartbeat-timeout-ms must exceed the 100 ms checkpoint interval. A
//       bad value, an unknown flag or an extra argument exits 2 before
//       anything is queued.
//   anduril_serve status <state_dir>
//       Print the journaled queue state.
//   anduril_serve worker <dir> [daemon_pid]
//       Internal: worker-process loop (spawned by `run` with the state
//       directory and its own pid, and its end of the daemon's channel at
//       descriptor 3; without one it exits 2).
//
// Exit codes for run: 0 every case reproduced, 1 some case starved/failed
// (or setup error, or a case's metrics file that cannot be merged), 2 usage,
// 3 drained by SIGTERM/SIGINT (resumable).

#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/explorer/checkpoint.h"
#include "src/service/daemon.h"
#include "src/service/manifest.h"
#include "src/service/worker.h"
#include "src/systems/common.h"

namespace anduril {
namespace {

std::atomic<bool> g_cancel{false};

void HandleDrainSignal(int /*signum*/) { g_cancel.store(true, std::memory_order_relaxed); }

void InstallDrainHandlers() {
  std::signal(SIGTERM, HandleDrainSignal);
  std::signal(SIGINT, HandleDrainSignal);
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: anduril_serve run <state_dir> [--cases=id[:budget],...] [--workers=N]\n"
      "                        [--slice-rounds=N] [--round-budget=N] [--quiet]\n"
      "                        [--heartbeat-timeout-ms=N]\n"
      "                        [--crash-after-slices=N] [--worker-crash-slice=K]\n"
      "                        [--worker-crash-rounds=R]\n"
      "       anduril_serve status <state_dir>\n"
      "       anduril_serve worker <dir> [daemon_pid]\n");
  return 2;
}

// Parses `text` as a whole decimal number no smaller than `min`.
template <typename Int>
bool ParseWhole(const std::string& text, Int min, Int* out) {
  Int value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, status] = std::from_chars(text.data(), end, value);
  if (text.empty() || status != std::errc() || stop != end || value < min) {
    return false;
  }
  *out = value;
  return true;
}

bool IsCascadeCase(const std::string& id) {
  for (const systems::FailureCase& failure_case : systems::CascadeCases()) {
    if (failure_case.id == id || failure_case.paper_id == id) {
      return true;
    }
  }
  return false;
}

// "id" or "id:budget" → QueueCase (budget falls back to default_budget).
bool ParseCaseSpec(const std::string& spec, int default_budget, service::QueueCase* out) {
  std::string id = spec;
  int budget = default_budget;
  if (const size_t colon = spec.find(':'); colon != std::string::npos) {
    id = spec.substr(0, colon);
    if (!ParseWhole(spec.substr(colon + 1), 0, &budget)) {
      std::fprintf(stderr, "case '%s': the budget must be a whole number\n", spec.c_str());
      return false;
    }
  }
  const systems::FailureCase* failure_case = systems::FindCase(id);
  if (failure_case == nullptr) {
    std::fprintf(stderr, "unknown case '%s' (try: anduril_case list)\n", id.c_str());
    return false;
  }
  out->id = failure_case->id;
  out->chain = IsCascadeCase(failure_case->id);
  out->round_budget = budget;
  return true;
}

int RunCommand(const std::string& state_dir, const std::vector<std::string>& case_specs,
               service::ServeOptions options, int round_budget) {
  for (const std::string& spec : case_specs) {
    service::QueueCase entry;
    if (!ParseCaseSpec(spec, round_budget, &entry)) {
      return 2;
    }
    options.seed_cases.push_back(std::move(entry));
  }
  if (options.seed_cases.empty()) {
    for (const systems::FailureCase& failure_case : systems::AllCases()) {
      service::QueueCase entry;
      entry.id = failure_case.id;
      entry.round_budget = round_budget;
      options.seed_cases.push_back(std::move(entry));
    }
  }
  options.state_dir = state_dir;
  options.cancel = &g_cancel;
  InstallDrainHandlers();
  const service::ServeReport report = service::RunService(options);
  if (report.interrupted) {
    return 3;
  }
  if (report.error) {
    return 1;
  }
  const bool all_reproduced =
      report.manifest.CountState(service::CaseState::kReproduced) ==
      static_cast<int>(report.manifest.cases.size());
  return all_reproduced ? 0 : 1;
}

int StatusCommand(const std::string& state_dir) {
  service::QueueManifest manifest;
  std::string error;
  if (!service::LoadManifestFile(service::ManifestPath(state_dir), &manifest, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  for (const service::QueueCase& entry : manifest.cases) {
    std::printf("%-12s %-10s %6d/%d rounds, %d slices, %d crashes%s\n", entry.id.c_str(),
                service::CaseStateName(entry.state), entry.rounds_done, entry.round_budget,
                entry.slices_done, entry.crashes, entry.chain ? " [chain]" : "");
  }
  std::printf("%d reproduced, %d starved, %d failed, %d pending\n",
              manifest.CountState(service::CaseState::kReproduced),
              manifest.CountState(service::CaseState::kStarved),
              manifest.CountState(service::CaseState::kFailed),
              manifest.CountState(service::CaseState::kPending));
  return 0;
}

int WorkerCommand(const std::string& dir, const std::string& parent_pid) {
  service::WorkerOptions options;
  if (!ParseWhole<int64_t>(parent_pid, 0, &options.parent_pid)) {
    return Usage();
  }
  InstallDrainHandlers();
  options.work_dir = dir;
  options.cancel = &g_cancel;
  return service::RunWorkerLoop(options);
}

int Main(int argc, char** argv) {
  std::vector<std::string> args;
  std::vector<std::string> case_specs;
  service::ServeOptions options;
  int round_budget = 2000;
  struct IntFlag {
    const char* name;
    int* out;
    int min;
  };
  const IntFlag int_flags[] = {
      {"workers", &options.workers, 0},
      {"slice-rounds", &options.slice_rounds, 1},
      {"round-budget", &round_budget, 0},
      {"heartbeat-timeout-ms", &options.heartbeat_timeout_ms, 0},
      {"crash-after-slices", &options.crash_after_slices, 0},
      {"worker-crash-slice", &options.worker_crash_slice, 0},
      {"worker-crash-rounds", &options.worker_crash_rounds, 0},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const IntFlag* int_flag = nullptr;
    for (const IntFlag& flag : int_flags) {
      if (arg.rfind(std::string("--") + flag.name + "=", 0) == 0) {
        int_flag = &flag;
      }
    }
    if (int_flag != nullptr) {
      const std::string value = arg.substr(arg.find('=') + 1);
      if (!ParseWhole(value, int_flag->min, int_flag->out)) {
        std::fprintf(stderr, "--%s wants a whole number of at least %d, got '%s'\n",
                     int_flag->name, int_flag->min, value.c_str());
        return Usage();
      }
    } else if (arg.rfind("--cases=", 0) == 0) {
      std::string list = arg.substr(std::string("--cases=").size());
      size_t start = 0;
      while (start <= list.size()) {
        const size_t comma = list.find(',', start);
        const std::string item = list.substr(
            start, comma == std::string::npos ? std::string::npos : comma - start);
        if (!item.empty()) {
          case_specs.push_back(item);
        }
        if (comma == std::string::npos) {
          break;
        }
        start = comma + 1;
      }
    } else if (arg == "--quiet") {
      options.verbose = false;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return Usage();
    } else {
      args.push_back(arg);
    }
  }
  if (options.heartbeat_timeout_ms > 0 &&
      std::chrono::milliseconds(options.heartbeat_timeout_ms) <=
          explorer::kCheckpointInterval) {
    std::fprintf(stderr,
                 "--heartbeat-timeout-ms must be 0 (off) or above the %lld ms checkpoint "
                 "interval, got %d\n",
                 static_cast<long long>(explorer::kCheckpointInterval.count()),
                 options.heartbeat_timeout_ms);
    return Usage();
  }
  if (args.size() < 2) {
    return Usage();
  }
  const std::string& command = args[0];
  if (command == "run" && args.size() == 2) {
    return RunCommand(args[1], case_specs, std::move(options), round_budget);
  }
  if (command == "status" && args.size() == 2) {
    return StatusCommand(args[1]);
  }
  if (command == "worker" && args.size() <= 3) {
    return WorkerCommand(args[1], args.size() > 2 ? args[2] : "0");
  }
  return Usage();
}

}  // namespace
}  // namespace anduril

int main(int argc, char** argv) { return anduril::Main(argc, argv); }
