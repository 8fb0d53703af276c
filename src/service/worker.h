// Worker-process main loop (the `anduril_serve worker` subcommand).
//
// A worker owns one spool directory under the daemon's state dir. It waits
// for "cmd.json", runs the slice in-process (keeping a ContextCache across
// slices so repeated dispatches of the same program skip the static
// analysis), reports through "result-<pid>.json", and rings the daemon's
// doorbell (work.h). It does not poll: with no command pending it blocks on
// its end of the doorbell channel, which the daemon places at descriptor
// kWorkerChannelFd before exec. A worker started without that channel (by
// hand) exits 2 at once.
//
// It exits 0 on its own in exactly four situations: the drain flag flipped
// (SIGTERM) and no work is pending, the channel hung up (the daemon died —
// orphans must not race a successor daemon for the spool), the spool
// directory disappeared, or the spool holds a command addressed to a
// different daemon incarnation. A worker in the middle of a slice when its
// daemon dies does not get that far: the daemon has the kernel SIGKILL it
// (daemon.cc, Spawn).
//
// The daemon passes its own pid down explicitly (parent_pid), and that pid
// gates command consumption: a command whose daemon_pid is not this worker's
// daemon was written by a successor daemon for its own workers, so an orphan
// that has not yet seen its daemon's hang-up exits and leaves the file
// untouched instead of stealing the unit (which would wedge the successor —
// its own worker would never see a command, while the stolen slice keeps the
// case checkpoint's heartbeat fresh).

#ifndef ANDURIL_SRC_SERVICE_WORKER_H_
#define ANDURIL_SRC_SERVICE_WORKER_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace anduril::service {

struct WorkerOptions {
  std::string work_dir;
  // Pid of the owning daemon (0 falls back to getppid() at startup; the
  // daemon always passes it).
  int64_t parent_pid = 0;
  // Cooperative drain flag, usually wired to the process's SIGTERM handler.
  const std::atomic<bool>* cancel = nullptr;
};

// Runs until drained or orphaned; returns the process exit code (2 without
// a doorbell channel).
int RunWorkerLoop(const WorkerOptions& options);

}  // namespace anduril::service

#endif  // ANDURIL_SRC_SERVICE_WORKER_H_
