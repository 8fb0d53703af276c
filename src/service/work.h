// Work-unit handoff between the daemon and its worker processes.
//
// Each worker shares one AF_UNIX SOCK_SEQPACKET socketpair with the daemon,
// and everything between them travels on it as whole JSON packets: the
// daemon sends a WorkUnit, the worker runs one slice of one case and sends
// back a WorkResult. A packet arrives whole or not at all, so either side
// dying at any point leaves nothing half-read, and a packet can only come
// from the process at the other end of this daemon's own socket. The channel
// also carries liveness: a process's end closes when it exits, so the peer
// reads a hang-up once the packets sent before the exit are consumed.
//
// A work unit does not carry absolute round positions. The worker derives
// "where the search is" from the case's checkpoint file — the durable,
// byte-identically-resumable search state — so a manifest that is one
// commit behind (daemon killed between applying a result and journaling it)
// self-heals on the next dispatch.

#ifndef ANDURIL_SRC_SERVICE_WORK_H_
#define ANDURIL_SRC_SERVICE_WORK_H_

#include <cstddef>
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
  int64_t daemon_pid = 0;  // unread by the service; stays because reprobench sets it
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
  int64_t daemon_pid = 0;  // unread by the service; stays because reprobench sets it
  std::string error;

  friend bool operator==(const WorkResult&, const WorkResult&) = default;
};

// Worker exit code for an emulated mid-slice crash (test hook).
inline constexpr int kWorkerEmulatedCrashExit = 42;

// The descriptor at which a worker finds its end of the channel. It is fixed
// because the worker's command line and options cannot carry it.
inline constexpr int kWorkerChannelFd = 3;

// Longest packet either side accepts. A unit is a few hundred bytes and a
// result's script a few lines, so a longer packet means a broken peer.
inline constexpr size_t kMaxMessageBytes = 64 * 1024;

// Sends `message` as one packet, blocking only while the socket buffer is
// full. Returns false when the peer has hung up (EPIPE, not SIGPIPE) or the
// message is longer than kMaxMessageBytes.
bool SendMessage(int fd, const std::string& message);

enum class Received : uint8_t {
  kMessage,  // *message holds the next packet
  kEmpty,    // nothing pending
  kHangUp,   // the peer exited or shut its side down, or sent an overlong packet
};

// Takes the next pending packet from `fd` without blocking. Packets the peer
// sent before it exited are delivered before the hang-up.
Received ReceiveMessage(int fd, std::string* message);

std::string SerializeWorkUnit(const WorkUnit& unit);
bool ParseWorkUnit(const std::string& text, WorkUnit* out, std::string* error);

std::string SerializeWorkResult(const WorkResult& result);
bool ParseWorkResult(const std::string& text, WorkResult* out, std::string* error);

}  // namespace anduril::service

#endif  // ANDURIL_SRC_SERVICE_WORK_H_
