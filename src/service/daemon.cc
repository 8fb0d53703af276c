#include "src/service/daemon.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/service/context_cache.h"
#include "src/service/runner.h"
#include "src/service/scheduler.h"
#include "src/service/work.h"
#include "src/util/backoff.h"
#include "src/util/file.h"

namespace anduril::service {

namespace fs = std::filesystem;

std::string ManifestPath(const std::string& state_dir) { return state_dir + "/queue.json"; }

std::string CaseCheckpointPath(const std::string& state_dir, const std::string& case_id) {
  return state_dir + "/ckpt-" + case_id + ".json";
}

std::string CaseMetricsPath(const std::string& state_dir, const std::string& case_id) {
  return state_dir + "/metrics-" + case_id + ".json";
}

std::string MergedMetricsPath(const std::string& state_dir) {
  return state_dir + "/merged_metrics.json";
}

namespace {

using SteadyClock = std::chrono::steady_clock;

// A case that kills its worker this many times in a row is demoted to
// kFailed, so it cannot wedge the queue.
constexpr int kMaxCaseCrashes = 3;

// How long a queue that is done waits for its idle workers to exit on
// SIGTERM before it SIGKILLs them.
constexpr std::chrono::milliseconds kShutdownGrace{2000};

struct WorkerSlot {
  int index = 0;
  pid_t pid = -1;
  std::string dir;
  int case_index = -1;  // -1 = idle
  fs::file_time_type dispatch_time{};
  bool awaiting_respawn = false;
  SteadyClock::time_point respawn_at{};
};

class Daemon {
 public:
  explicit Daemon(const ServeOptions& options) : options_(options) {}

  ServeReport Run() {
    if (!Init()) {
      return report_;
    }
    if (options_.workers <= 0) {
      RunInProcess();
    } else {
      RunSharded();
    }
    report_.manifest = manifest_;
    if (!report_.error && !report_.interrupted && manifest_.AllTerminal()) {
      MergeMetrics();
    }
    Summary();
    return report_;
  }

 private:
  bool Cancelled() const {
    return options_.cancel != nullptr &&
           options_.cancel->load(std::memory_order_relaxed);
  }

  void Log(const char* format, ...) {
    if (!options_.verbose) {
      return;
    }
    va_list args;
    va_start(args, format);
    std::vprintf(format, args);
    va_end(args);
    std::fflush(stdout);
  }

  void Fail(std::string message) {
    report_.error = true;
    report_.error_text = std::move(message);
    std::fprintf(stderr, "anduril_serve: %s\n", report_.error_text.c_str());
  }

  bool Init() {
    std::error_code ec;
    fs::create_directories(options_.state_dir, ec);
    const std::string manifest_path = ManifestPath(options_.state_dir);
    if (fs::exists(manifest_path)) {
      std::string error;
      if (!LoadManifestFile(manifest_path, &manifest_, &error)) {
        Fail(error);
        return false;
      }
      Log("resuming queue: %zu cases (%d reproduced, %d starved, %d failed so far)\n",
          manifest_.cases.size(), manifest_.CountState(CaseState::kReproduced),
          manifest_.CountState(CaseState::kStarved),
          manifest_.CountState(CaseState::kFailed));
    } else {
      if (options_.seed_cases.empty()) {
        Fail("no queue manifest at " + manifest_path + " and no cases to enqueue");
        return false;
      }
      manifest_.slice_rounds = options_.slice_rounds;
      manifest_.cases = options_.seed_cases;
      if (!SaveManifestFile(manifest_path, manifest_)) {
        Fail("cannot journal queue to " + manifest_path);
        return false;
      }
      Log("queued %zu cases (slice=%d rounds, %d workers)\n", manifest_.cases.size(),
          manifest_.slice_rounds, options_.workers);
    }
    return true;
  }

  void Journal() {
    if (!SaveManifestFile(ManifestPath(options_.state_dir), manifest_)) {
      Fail("cannot journal queue to " + ManifestPath(options_.state_dir));
    }
  }

  void StarveOut() {
    for (int index : ApplyStarveOut(&manifest_)) {
      const QueueCase& entry = manifest_.cases[index];
      Log("[%s] starved out at %d rounds (budget %d) — demoted, queue continues\n",
          entry.id.c_str(), entry.rounds_done, entry.round_budget);
    }
  }

  WorkUnit UnitFor(const QueueCase& entry) {
    WorkUnit unit;
    unit.case_id = entry.id;
    unit.chain = entry.chain;
    unit.slice_rounds = manifest_.slice_rounds;
    unit.round_budget = entry.round_budget;
    unit.checkpoint_path = CaseCheckpointPath(options_.state_dir, entry.id);
    unit.metrics_path = CaseMetricsPath(options_.state_dir, entry.id);
    unit.daemon_pid = getpid();
    ++dispatched_;
    if (dispatched_ == options_.worker_crash_slice) {
      unit.emulate_crash_after_rounds =
          options_.worker_crash_rounds > 0 ? options_.worker_crash_rounds : 1;
    }
    return unit;
  }

  // Returns false when the result belongs to a previous daemon incarnation.
  bool ApplyResult(int case_index, const WorkResult& result) {
    if (result.daemon_pid != getpid()) {
      return false;
    }
    QueueCase& entry = manifest_.cases[case_index];
    entry.rounds_done = std::max(entry.rounds_done, result.rounds_done);
    ++entry.slices_done;
    entry.crashes = 0;
    switch (result.status) {
      case SliceStatus::kReproduced:
        entry.state = CaseState::kReproduced;
        entry.script = result.script;
        entry.script_seed = result.script_seed;
        Log("[%s] reproduced in %d rounds (%d slices)\n", entry.id.c_str(),
            entry.rounds_done, entry.slices_done);
        break;
      case SliceStatus::kSliceDone:
        Log("[%s] %d/%d rounds\n", entry.id.c_str(), entry.rounds_done, entry.round_budget);
        break;
      case SliceStatus::kExhausted:
        entry.state = CaseState::kStarved;
        Log("[%s] candidate space exhausted at %d rounds — demoted\n", entry.id.c_str(),
            entry.rounds_done);
        break;
      case SliceStatus::kInterrupted:
        Log("[%s] slice drained at %d rounds\n", entry.id.c_str(), entry.rounds_done);
        break;
      case SliceStatus::kError:
        entry.state = CaseState::kFailed;
        Log("[%s] failed: %s\n", entry.id.c_str(), result.error.c_str());
        break;
    }
    StarveOut();
    Journal();
    ++report_.slices_applied;
    if (options_.crash_after_slices > 0 &&
        report_.slices_applied >= options_.crash_after_slices) {
      // Daemon-kill emulation: die the instant after a journal commit, with
      // workers possibly mid-slice — exactly a SIGKILL between transitions.
      _exit(kWorkerEmulatedCrashExit);
    }
    return true;
  }

  // ---- In-process (serial) mode -------------------------------------------

  void RunInProcess() {
    ContextCache cache;
    while (!report_.error && !manifest_.AllTerminal()) {
      if (Cancelled()) {
        report_.interrupted = true;
        Journal();
        return;
      }
      StarveOut();
      Journal();
      const int index = PickNextCase(manifest_, {});
      if (index < 0) {
        break;
      }
      WorkResult result = RunSlice(&cache, UnitFor(manifest_.cases[index]), options_.cancel);
      result.daemon_pid = getpid();
      ApplyResult(index, result);
      if (result.status == SliceStatus::kInterrupted) {
        report_.interrupted = true;
        return;
      }
    }
  }

  // ---- Sharded mode --------------------------------------------------------

  void RunSharded() {
    // A queue with nothing left to dispatch (a rerun of a finished one)
    // needs no workers.
    StarveOut();
    if (manifest_.AllTerminal()) {
      Journal();
      return;
    }
    slots_.resize(options_.workers);
    backoffs_.reserve(options_.workers);
    for (int i = 0; i < options_.workers; ++i) {
      WorkerSlot& slot = slots_[i];
      slot.index = i;
      slot.dir = options_.state_dir + "/w" + std::to_string(i);
      std::error_code ec;
      fs::create_directories(slot.dir, ec);
      // Clear spool left by a previous incarnation: the manifest and the
      // checkpoints are the durable state, not in-flight commands/results.
      for (const fs::directory_entry& stale : fs::directory_iterator(slot.dir, ec)) {
        fs::remove_all(stale.path(), ec);
      }
      ExponentialBackoff::Options backoff_options;
      backoff_options.max_retries = 1 << 30;  // pacing only; cases gate crashes
      backoffs_.emplace_back(backoff_options, 0xB0FFu + static_cast<uint64_t>(i));
      Spawn(slot);
    }

    while (!report_.error && !manifest_.AllTerminal()) {
      if (Cancelled()) {
        Drain();
        return;
      }
      for (WorkerSlot& slot : slots_) {
        Reap(slot);
        Collect(slot);
        Heartbeat(slot);
        Respawn(slot);
        if (report_.error || manifest_.AllTerminal()) {
          break;
        }
        if (slot.pid > 0 && slot.case_index < 0) {
          Dispatch(slot);
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(options_.poll_ms));
    }
    Shutdown();
  }

  void Spawn(WorkerSlot& slot) {
    // The worker gets the daemon's pid on its command line: deriving it via
    // getppid() after exec races this daemon dying first (see worker.h).
    const std::string daemon_pid = std::to_string(getpid());
    // The drain signals stay blocked across fork(): a SIGTERM landing in the
    // child before exec would otherwise run this daemon's drain handler there
    // and be lost with the flag it sets, leaving the exec'd worker deaf to
    // the shutdown it was sent. The child restores the default handlers and
    // then unblocks, so a signal held since the fork ends it, and the exec'd
    // worker (which inherits the mask) starts with the signals deliverable.
    sigset_t drain_signals;
    sigemptyset(&drain_signals);
    sigaddset(&drain_signals, SIGTERM);
    sigaddset(&drain_signals, SIGINT);
    sigset_t previous_mask;
    sigprocmask(SIG_BLOCK, &drain_signals, &previous_mask);
    const pid_t pid = fork();
    if (pid == 0) {
      signal(SIGTERM, SIG_DFL);
      signal(SIGINT, SIG_DFL);
      sigprocmask(SIG_UNBLOCK, &drain_signals, nullptr);
      execl(options_.serve_binary.c_str(), options_.serve_binary.c_str(), "worker",
            slot.dir.c_str(), daemon_pid.c_str(), static_cast<char*>(nullptr));
      std::fprintf(stderr, "worker %d: cannot exec %s\n", slot.index,
                   options_.serve_binary.c_str());
      _exit(127);
    }
    sigprocmask(SIG_SETMASK, &previous_mask, nullptr);
    if (pid < 0) {
      Fail("fork failed for worker " + std::to_string(slot.index));
      return;
    }
    slot.pid = pid;
    slot.case_index = -1;
    slot.awaiting_respawn = false;
  }

  void Dispatch(WorkerSlot& slot) {
    StarveOut();
    std::vector<bool> busy(manifest_.cases.size(), false);
    for (const WorkerSlot& other : slots_) {
      if (other.case_index >= 0) {
        busy[other.case_index] = true;
      }
    }
    const int index = PickNextCase(manifest_, busy);
    if (index < 0) {
      return;
    }
    const WorkUnit unit = UnitFor(manifest_.cases[index]);
    if (!WriteFileAtomic(slot.dir + "/cmd.json", SerializeWorkUnit(unit))) {
      Fail("cannot write command for worker " + std::to_string(slot.index));
      return;
    }
    slot.case_index = index;
    slot.dispatch_time = fs::file_time_type::clock::now();
  }

  void Collect(WorkerSlot& slot) {
    if (slot.pid <= 0 || slot.case_index < 0) {
      return;
    }
    const std::string result_path =
        slot.dir + "/result-" + std::to_string(slot.pid) + ".json";
    if (!fs::exists(result_path)) {
      return;
    }
    std::string text;
    if (!ReadFileToString(result_path, &text)) {
      return;
    }
    std::error_code ec;
    fs::remove(result_path, ec);
    WorkResult result;
    std::string error;
    if (!ParseWorkResult(text, &result, &error)) {
      Fail("worker " + std::to_string(slot.index) + ": " + error);
      return;
    }
    const int case_index = slot.case_index;
    slot.case_index = -1;
    backoffs_[slot.index].Reset();
    ApplyResult(case_index, result);
  }

  // A worker that died mid-slice: requeue its case (with crash accounting)
  // and schedule a respawn under backoff.
  void HandleDeath(WorkerSlot& slot, int status) {
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    // The worker may have finished the slice (result journaled) and died
    // after — a completed handoff, not a crash against the case.
    Collect(slot);
    if (slot.case_index >= 0) {
      QueueCase& entry = manifest_.cases[slot.case_index];
      ++entry.crashes;
      Log("[worker %d] died (%s %d) running %s — crash %d/%d, requeued\n", slot.index,
          WIFEXITED(status) ? "exit" : "signal",
          WIFEXITED(status) ? code : WTERMSIG(status), entry.id.c_str(), entry.crashes,
          kMaxCaseCrashes);
      if (entry.crashes >= kMaxCaseCrashes) {
        entry.state = CaseState::kFailed;
        Log("[%s] crashed its worker %d consecutive times — demoted to failed\n",
            entry.id.c_str(), entry.crashes);
      }
      Journal();
      slot.case_index = -1;
    }
    slot.pid = -1;
    slot.awaiting_respawn = true;
    const int64_t delay_ms = backoffs_[slot.index].NextDelayMs();
    slot.respawn_at = SteadyClock::now() + std::chrono::milliseconds(delay_ms);
    ++report_.worker_respawns;
    Log("[worker %d] respawning in %lldms\n", slot.index,
        static_cast<long long>(delay_ms));
  }

  void Reap(WorkerSlot& slot) {
    if (slot.pid <= 0) {
      return;
    }
    int status = 0;
    if (waitpid(slot.pid, &status, WNOHANG) == slot.pid) {
      HandleDeath(slot, status);
    }
  }

  // Heartbeat: a busy worker proves liveness by advancing its case's
  // checkpoint file. No progress within the timeout → SIGKILL + requeue.
  void Heartbeat(WorkerSlot& slot) {
    if (slot.pid <= 0 || slot.case_index < 0 || options_.heartbeat_timeout_ms <= 0) {
      return;
    }
    fs::file_time_type progress = slot.dispatch_time;
    std::error_code ec;
    const std::string checkpoint =
        CaseCheckpointPath(options_.state_dir, manifest_.cases[slot.case_index].id);
    const fs::file_time_type mtime = fs::last_write_time(checkpoint, ec);
    if (!ec && mtime > progress) {
      progress = mtime;
    }
    const auto stalled = std::chrono::duration_cast<std::chrono::milliseconds>(
        fs::file_time_type::clock::now() - progress);
    if (stalled.count() < options_.heartbeat_timeout_ms) {
      return;
    }
    Log("[worker %d] no heartbeat for %lldms on %s — killing\n", slot.index,
        static_cast<long long>(stalled.count()),
        manifest_.cases[slot.case_index].id.c_str());
    kill(slot.pid, SIGKILL);
    int status = 0;
    waitpid(slot.pid, &status, 0);
    HandleDeath(slot, status);
  }

  void Respawn(WorkerSlot& slot) {
    if (slot.pid > 0 || !slot.awaiting_respawn || report_.error) {
      return;
    }
    if (SteadyClock::now() >= slot.respawn_at) {
      Spawn(slot);
    }
  }

  // Graceful degradation: stop dispatching, let in-flight rounds finish
  // (workers drain at round boundaries and flush checkpoints), journal, and
  // leave the queue resumable.
  void Drain() {
    Log("draining: %zu cases pending, waiting for in-flight slices\n",
        static_cast<size_t>(manifest_.CountState(CaseState::kPending)));
    StopWorkers(std::chrono::milliseconds(std::max(options_.heartbeat_timeout_ms, 2000)));
    Journal();
    report_.interrupted = true;
  }

  // SIGTERMs every worker and reaps them, collecting results that land
  // meanwhile, until all have exited or `grace` ran out; SIGKILLs the rest.
  void StopWorkers(std::chrono::milliseconds grace) {
    for (WorkerSlot& slot : slots_) {
      if (slot.pid > 0) {
        kill(slot.pid, SIGTERM);
      }
    }
    const auto deadline = SteadyClock::now() + grace;
    while (SteadyClock::now() < deadline) {
      bool any_alive = false;
      for (WorkerSlot& slot : slots_) {
        if (slot.pid <= 0) {
          continue;
        }
        Collect(slot);
        int status = 0;
        if (waitpid(slot.pid, &status, WNOHANG) == slot.pid) {
          Collect(slot);  // result written between the poll and the exit
          slot.pid = -1;
          slot.case_index = -1;
        } else {
          any_alive = true;
        }
      }
      if (!any_alive) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(options_.poll_ms));
    }
    for (WorkerSlot& slot : slots_) {
      if (slot.pid > 0) {
        kill(slot.pid, SIGKILL);
        int status = 0;
        waitpid(slot.pid, &status, 0);
        slot.pid = -1;
      }
    }
  }

  void Shutdown() {
    StopWorkers(kShutdownGrace);
    Journal();
  }

  void MergeMetrics() {
    obs::MetricsRegistry merged;
    for (const QueueCase& entry : manifest_.cases) {
      std::string text;
      if (!ReadFileToString(CaseMetricsPath(options_.state_dir, entry.id), &text)) {
        continue;  // failed before its first slice completed
      }
      obs::MetricsSnapshot snapshot;
      std::string error;
      if (obs::ParseMetricsJson(text, &snapshot, &error)) {
        merged.Merge(snapshot);
      }
    }
    WriteFileAtomic(MergedMetricsPath(options_.state_dir), merged.DumpJson());
  }

  void Summary() {
    Log("queue %s: %d reproduced, %d starved, %d failed, %d pending (%d slices, %d "
        "respawns)\n",
        report_.interrupted ? "drained" : "done",
        manifest_.CountState(CaseState::kReproduced),
        manifest_.CountState(CaseState::kStarved), manifest_.CountState(CaseState::kFailed),
        manifest_.CountState(CaseState::kPending), report_.slices_applied,
        report_.worker_respawns);
  }

  ServeOptions options_;
  ServeReport report_;
  QueueManifest manifest_;
  std::vector<WorkerSlot> slots_;
  std::vector<ExponentialBackoff> backoffs_;
  int dispatched_ = 0;
};

}  // namespace

ServeReport RunService(const ServeOptions& options) {
  ServeOptions resolved = options;
  if (resolved.serve_binary.empty()) {
    char buffer[4096];
    const ssize_t length = readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
    if (length > 0) {
      buffer[length] = '\0';
      resolved.serve_binary = buffer;
    }
  }
  Daemon daemon(resolved);
  return daemon.Run();
}

}  // namespace anduril::service
