#include "src/service/daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "src/explorer/checkpoint.h"
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

// Upper bound on one wait for packets. Its only job is to notice a drain
// signal that lands just before the wait (or on another thread), which does
// not interrupt it; every other wake-up has its own event or deadline.
constexpr std::chrono::milliseconds kDrainCheckInterval{50};

struct WorkerSlot {
  int index = 0;
  pid_t pid = -1;
  int channel = -1;  // daemon's end of the worker's socketpair while pid > 0
  int case_index = -1;  // -1 = idle
  fs::file_time_type dispatch_time{};
  // Cases dispatched to the current worker process. Its ContextCache never
  // evicts, so this is exactly what that cache holds.
  std::vector<bool> warm;
  bool awaiting_respawn = false;
  SteadyClock::time_point respawn_at{};
};

// Time left until `deadline`, rounded up to whole milliseconds, never
// negative.
std::chrono::milliseconds Until(SteadyClock::time_point deadline) {
  return std::max(std::chrono::milliseconds(0),
                  std::chrono::ceil<std::chrono::milliseconds>(deadline - SteadyClock::now()));
}

// Waits on the channels of `slots` until one is readable or `timeout` ran
// out; returns the slots whose channel is ready (a packet or a hang-up).
// poll() skips the slots without a worker (channel -1).
std::vector<WorkerSlot*> PollChannels(std::vector<WorkerSlot>& slots,
                                      std::chrono::milliseconds timeout) {
  std::vector<pollfd> channels;
  for (const WorkerSlot& slot : slots) {
    channels.push_back({slot.channel, POLLIN, 0});
  }
  std::vector<WorkerSlot*> ready;
  // EINTR (a drain signal) returns no slots, so the caller re-checks.
  if (poll(channels.data(), channels.size(), static_cast<int>(timeout.count())) > 0) {
    for (size_t i = 0; i < channels.size(); ++i) {
      if (channels[i].revents != 0) {
        ready.push_back(&slots[i]);
      }
    }
  }
  return ready;
}

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
    if (options_.slice_rounds < 1) {
      Fail("slice_rounds must be at least 1 (got " + std::to_string(options_.slice_rounds) +
           ")");
      return false;
    }
    // A busy worker's checkpoint may stay silent for the checkpoint interval
    // plus a round, so a shorter heartbeat would kill healthy workers.
    if (options_.heartbeat_timeout_ms > 0 &&
        std::chrono::milliseconds(options_.heartbeat_timeout_ms) <=
            explorer::kCheckpointInterval) {
      Fail("heartbeat_timeout_ms must be 0 (off) or above the " +
           std::to_string(explorer::kCheckpointInterval.count()) +
           " ms checkpoint interval (got " + std::to_string(options_.heartbeat_timeout_ms) +
           ")");
      return false;
    }
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

  // Writes the manifest. The daemon-kill emulation dies right after the
  // first write that holds its Nth applied result.
  void Journal() {
    if (!SaveManifestFile(ManifestPath(options_.state_dir), manifest_)) {
      Fail("cannot journal queue to " + ManifestPath(options_.state_dir));
      return;
    }
    unjournaled_ = false;
    if (options_.crash_after_slices > 0 &&
        report_.slices_applied >= options_.crash_after_slices) {
      // Die the instant after a journal commit, with workers possibly
      // mid-slice — exactly a SIGKILL between transitions.
      _exit(kWorkerEmulatedCrashExit);
    }
  }

  // The one commit point for applied results and starve-outs: journals the
  // manifest when it changed since the last write.
  void Commit() {
    if (unjournaled_) {
      Journal();
    }
  }

  void StarveOut() {
    for (int index : ApplyStarveOut(&manifest_)) {
      const QueueCase& entry = manifest_.cases[index];
      Log("[%s] starved out at %d rounds (budget %d) — demoted, queue continues\n",
          entry.id.c_str(), entry.rounds_done, entry.round_budget);
      unjournaled_ = true;
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
    ++dispatched_;
    if (dispatched_ == options_.worker_crash_slice) {
      unit.emulate_crash_after_rounds =
          options_.worker_crash_rounds > 0 ? options_.worker_crash_rounds : 1;
    }
    return unit;
  }

  // Updates the manifest in memory; the next Commit journals it.
  void ApplyResult(int case_index, const WorkResult& result) {
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
    unjournaled_ = true;
    ++report_.slices_applied;
  }

  // ---- In-process (serial) mode -------------------------------------------

  void RunInProcess() {
    ContextCache cache;
    while (!report_.error && !manifest_.AllTerminal()) {
      if (Cancelled()) {
        report_.interrupted = true;
        break;
      }
      StarveOut();
      Commit();  // the last slice's result: one journal per slice
      const int index = PickNextCase(manifest_, {});
      if (index < 0) {
        break;
      }
      const WorkResult result =
          RunSlice(&cache, UnitFor(manifest_.cases[index]), options_.cancel);
      ApplyResult(index, result);
      if (result.status == SliceStatus::kInterrupted) {
        report_.interrupted = true;
        break;
      }
    }
    Commit();
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
      backoffs_.emplace_back(0xB0FFu + static_cast<uint64_t>(i));
      Spawn(slot);
    }

    while (!report_.error && !manifest_.AllTerminal()) {
      if (Cancelled()) {
        Drain();
        return;
      }
      for (WorkerSlot& slot : slots_) {
        Respawn(slot);
        if (slot.pid > 0 && slot.case_index < 0 && !report_.error) {
          Dispatch(slot);
        }
      }
      // Journal the results the last wait collected only after every idle
      // worker has its next slice, so the write does not sit between one
      // slice of a case and the next. A manifest one commit behind self-heals
      // from the checkpoints (see RunSlice).
      Commit();
      if (report_.error || manifest_.AllTerminal()) {
        break;
      }
      Wait();
    }
    Shutdown();
  }

  // Blocks until a packet, a hang-up, a heartbeat deadline or a respawn
  // time (or kDrainCheckInterval), then handles what is due.
  void Wait() {
    std::chrono::milliseconds timeout = kDrainCheckInterval;
    for (WorkerSlot& slot : slots_) {
      timeout = std::min(timeout, Heartbeat(slot));
      if (slot.awaiting_respawn) {
        timeout = std::min(timeout, Until(slot.respawn_at));
      }
    }
    for (WorkerSlot* slot : PollChannels(slots_, timeout)) {
      if (!Collect(*slot)) {
        HandleDeath(*slot);
      }
      if (report_.error) {
        return;
      }
    }
  }

  void Spawn(WorkerSlot& slot) {
    const pid_t daemon = getpid();
    const std::string daemon_pid = std::to_string(daemon);
    int ends[2];
    if (socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, ends) != 0) {
      Fail("cannot create the channel for worker " + std::to_string(slot.index));
      return;
    }
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
      // A worker that outlived this daemon mid-slice would keep writing its
      // case's checkpoint beside a successor daemon's worker, and the two
      // would clobber each other's temp file. So the kernel kills it when
      // this daemon dies (checked after the call: it may be dead already).
      // The signal fires when the spawning thread exits; RunService stops
      // every worker before it returns.
      if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != daemon) {
        _exit(127);
      }
      // The worker finds its end at a fixed descriptor: reprobench's worker
      // entry point builds WorkerOptions from its command line alone, so no
      // argument, option or environment variable can carry it.
      const bool placed = ends[1] == kWorkerChannelFd
                              ? fcntl(ends[1], F_SETFD, 0) == 0
                              : dup2(ends[1], kWorkerChannelFd) == kWorkerChannelFd;
      if (!placed) {
        _exit(127);
      }
      execl(options_.serve_binary.c_str(), options_.serve_binary.c_str(), "worker",
            options_.state_dir.c_str(), daemon_pid.c_str(), static_cast<char*>(nullptr));
      std::fprintf(stderr, "worker %d: cannot exec %s\n", slot.index,
                   options_.serve_binary.c_str());
      _exit(127);
    }
    sigprocmask(SIG_SETMASK, &previous_mask, nullptr);
    close(ends[1]);
    if (pid < 0) {
      close(ends[0]);
      Fail("fork failed for worker " + std::to_string(slot.index));
      return;
    }
    slot.pid = pid;
    slot.channel = ends[0];
    slot.case_index = -1;
    slot.warm.assign(manifest_.cases.size(), false);
    slot.awaiting_respawn = false;
  }

  // Kills and reaps the slot's worker (one that has exited is unaffected by
  // the signal; one still running is wedged or sent an overlong packet),
  // applies a result it sent before it died, and forgets it. Returns its
  // wait status.
  int Reap(WorkerSlot& slot) {
    kill(slot.pid, SIGKILL);
    int status = 0;
    waitpid(slot.pid, &status, 0);
    Collect(slot);
    close(slot.channel);
    slot.channel = -1;
    slot.pid = -1;
    return status;
  }

  void Dispatch(WorkerSlot& slot) {
    StarveOut();
    std::vector<bool> busy(manifest_.cases.size(), false);
    for (const WorkerSlot& other : slots_) {
      if (other.case_index >= 0) {
        busy[other.case_index] = true;
      }
    }
    const int index = PickNextCase(manifest_, busy, slot.warm);
    if (index < 0) {
      return;
    }
    slot.case_index = index;
    slot.warm[index] = true;
    slot.dispatch_time = fs::file_time_type::clock::now();
    // A worker that died before the send hangs up instead; that requeues the
    // case like any death mid-slice.
    SendMessage(slot.channel, SerializeWorkUnit(UnitFor(manifest_.cases[index])));
  }

  // Applies every result packet pending on the slot's channel. Returns false
  // once the channel has hung up: the worker exited (its packets sent before
  // the exit come first) or broke the protocol.
  bool Collect(WorkerSlot& slot) {
    std::string packet;
    Received received;
    while ((received = ReceiveMessage(slot.channel, &packet)) == Received::kMessage) {
      if (slot.case_index < 0) {
        continue;  // no unit outstanding: nothing to apply it to
      }
      WorkResult result;
      std::string error;
      if (!ParseWorkResult(packet, &result, &error)) {
        Fail("worker " + std::to_string(slot.index) + ": " + error);
        return true;
      }
      backoffs_[slot.index].Reset();
      ApplyResult(std::exchange(slot.case_index, -1), result);
    }
    return received == Received::kEmpty;
  }

  // Reaps a dead or wedged worker, requeues a case it died running (with
  // crash accounting; a result it sent before dying is a completed handoff)
  // and schedules a respawn under backoff.
  void HandleDeath(WorkerSlot& slot) {
    const int status = Reap(slot);
    if (slot.case_index >= 0) {
      QueueCase& entry = manifest_.cases[slot.case_index];
      ++entry.crashes;
      Log("[worker %d] died (%s %d) running %s — crash %d/%d, requeued\n", slot.index,
          WIFEXITED(status) ? "exit" : "signal",
          WIFEXITED(status) ? WEXITSTATUS(status) : WTERMSIG(status), entry.id.c_str(),
          entry.crashes, kMaxCaseCrashes);
      if (entry.crashes >= kMaxCaseCrashes) {
        entry.state = CaseState::kFailed;
        Log("[%s] crashed its worker %d consecutive times — demoted to failed\n",
            entry.id.c_str(), entry.crashes);
      }
      Journal();
      slot.case_index = -1;
    }
    slot.awaiting_respawn = true;
    const int64_t delay_ms = backoffs_[slot.index].NextDelayMs();
    slot.respawn_at = SteadyClock::now() + std::chrono::milliseconds(delay_ms);
    ++report_.worker_respawns;
    Log("[worker %d] respawning in %lldms\n", slot.index,
        static_cast<long long>(delay_ms));
  }

  // Heartbeat: a busy worker proves liveness by advancing its case's
  // checkpoint file. No progress within the timeout → SIGKILL + requeue.
  // Returns how long the slot may stay silent from now on.
  std::chrono::milliseconds Heartbeat(WorkerSlot& slot) {
    if (slot.pid <= 0 || slot.case_index < 0 || options_.heartbeat_timeout_ms <= 0) {
      return std::chrono::milliseconds::max();
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
      return std::chrono::milliseconds(options_.heartbeat_timeout_ms) - stalled;
    }
    Log("[worker %d] no heartbeat for %lldms on %s — killing\n", slot.index,
        static_cast<long long>(stalled.count()),
        manifest_.cases[slot.case_index].id.c_str());
    HandleDeath(slot);
    return std::chrono::milliseconds::max();
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
    Commit();
    StopWorkers(std::chrono::milliseconds(std::max(options_.heartbeat_timeout_ms, 2000)));
    Commit();
    report_.interrupted = true;
  }

  // SIGTERMs every worker and waits for their hang-ups, collecting results
  // that land meanwhile, until all have exited or `grace` ran out; SIGKILLs
  // the rest.
  void StopWorkers(std::chrono::milliseconds grace) {
    for (WorkerSlot& slot : slots_) {
      if (slot.pid > 0) {
        kill(slot.pid, SIGTERM);
        // The worker can still send its result, and then reads a hang-up:
        // that also wakes one that checked its drain flag just before the
        // signal landed and then blocked on the channel.
        shutdown(slot.channel, SHUT_WR);
      }
    }
    const SteadyClock::time_point deadline = SteadyClock::now() + grace;
    auto any_alive = [this] {
      return std::any_of(slots_.begin(), slots_.end(),
                         [](const WorkerSlot& slot) { return slot.pid > 0; });
    };
    while (any_alive() && SteadyClock::now() < deadline) {
      for (WorkerSlot* slot : PollChannels(slots_, Until(deadline))) {
        if (!Collect(*slot)) {
          Reap(*slot);
          slot->case_index = -1;
        }
      }
    }
    for (WorkerSlot& slot : slots_) {
      if (slot.pid > 0) {
        Reap(slot);
      }
    }
  }

  void Shutdown() {
    Commit();
    StopWorkers(kShutdownGrace);
    Commit();
  }

  // A case's metrics file that does not parse, or a merged file that cannot
  // be written, fails the run and leaves merged_metrics.json as it was.
  void MergeMetrics() {
    obs::MetricsRegistry merged;
    for (const QueueCase& entry : manifest_.cases) {
      const std::string path = CaseMetricsPath(options_.state_dir, entry.id);
      std::string text;
      if (!ReadFileToString(path, &text)) {
        continue;  // failed before its first slice completed
      }
      obs::MetricsSnapshot snapshot;
      std::string error;
      if (!obs::ParseMetricsJson(text, &snapshot, &error)) {
        Fail("cannot merge " + path + ": " + error);
        return;
      }
      merged.Merge(snapshot);
    }
    const std::string merged_path = MergedMetricsPath(options_.state_dir);
    if (!WriteFileAtomic(merged_path, merged.DumpJson())) {
      Fail("cannot write " + merged_path);
    }
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
  bool unjournaled_ = false;  // manifest_ changed since its last write
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
