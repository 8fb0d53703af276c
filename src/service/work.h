// Work-unit handoff between the daemon and its worker processes.
//
// IPC is files plus a doorbell, and crash-shaped like everything else in the
// service. The files carry all the data: the daemon atomically writes
// "<worker_dir>/cmd.json"; the worker consumes it, runs one slice of one
// case, and atomically writes "<worker_dir>/result-<pid>.json". Either side
// dying at any point leaves only whole files behind, and a stale result from
// a previous daemon incarnation is recognized (and discarded) by its
// daemon_pid. The doorbell is an AF_UNIX socketpair per worker: after each
// file write the writer sends one byte, which means only "look at the
// spool", so neither side sleeps between polls. Its other job is liveness:
// a process's end closes when it exits, so the peer sees a hang-up.
//
// A work unit does not carry absolute round positions. The worker derives
// "where the search is" from the case's checkpoint file — the durable,
// byte-identically-resumable search state — so a manifest that is one
// commit behind (daemon killed between applying a result and journaling it)
// self-heals on the next dispatch.

#ifndef ANDURIL_SRC_SERVICE_WORK_H_
#define ANDURIL_SRC_SERVICE_WORK_H_

#include <cstdint>
#include <string>

namespace anduril::service {

struct WorkUnit {
  std::string case_id;
  bool chain = false;
  int slice_rounds = 0;   // run at most this many *new* rounds
  int round_budget = 0;   // absolute cap on total rounds (starve-out line)
  std::string checkpoint_path;
  std::string metrics_path;
  // Owning daemon's pid; echoed back in WorkResult so results written by
  // orphaned workers of a dead daemon are never applied to the live queue.
  int64_t daemon_pid = 0;
  // Test-only crash emulation: checkpoint this many rounds into the slice,
  // then _exit(kWorkerEmulatedCrashExit) without reporting — exactly what a
  // SIGKILL between two rounds looks like to the daemon.
  int emulate_crash_after_rounds = 0;

  friend bool operator==(const WorkUnit&, const WorkUnit&) = default;
};

enum class SliceStatus : uint8_t {
  kReproduced,   // oracle satisfied; script + seed attached
  kSliceDone,    // slice cap reached, budget remains — reschedule
  kExhausted,    // candidate space dry before the cap — starve out
  kInterrupted,  // cooperative drain (SIGTERM) stopped it mid-slice
  kError,        // setup failure (unknown case, unreadable checkpoint, ...)
};

const char* SliceStatusName(SliceStatus status);
bool SliceStatusFromName(const std::string& name, SliceStatus* out);

struct WorkResult {
  std::string case_id;
  SliceStatus status = SliceStatus::kError;
  int rounds_done = 0;  // case-total search rounds after this slice
  std::string script;   // reproduction recipe text (kReproduced only)
  uint64_t script_seed = 0;
  int64_t daemon_pid = 0;
  std::string error;

  friend bool operator==(const WorkResult&, const WorkResult&) = default;
};

// Worker exit code for an emulated mid-slice crash (test hook).
inline constexpr int kWorkerEmulatedCrashExit = 42;

// The descriptor at which a worker finds its end of the doorbell channel.
// It is fixed because the worker's command line and options cannot carry it.
inline constexpr int kWorkerChannelFd = 3;

// Sends one doorbell byte. A dead peer yields EPIPE (not SIGPIPE), which is
// ignored: its hang-up reaches the other side's wait on its own.
void RingDoorbell(int fd);

// Consumes every doorbell byte already pending on `fd`, without blocking.
// Returns false when the peer has hung up.
bool DrainDoorbells(int fd);

std::string SerializeWorkUnit(const WorkUnit& unit);
bool ParseWorkUnit(const std::string& text, WorkUnit* out, std::string* error);

std::string SerializeWorkResult(const WorkResult& result);
bool ParseWorkResult(const std::string& text, WorkResult* out, std::string* error);

}  // namespace anduril::service

#endif  // ANDURIL_SRC_SERVICE_WORK_H_
