// Worker-process main loop (the `anduril_serve worker` subcommand).
//
// A worker receives WorkUnit packets on its end of the daemon's channel
// (work.h), which the daemon places at descriptor kWorkerChannelFd before
// exec, runs each slice in-process (keeping a ContextCache across slices so
// repeated dispatches of the same case skip the static analysis), and sends
// back a WorkResult packet. It does not poll: with no unit pending it blocks
// on the channel. A worker started without that channel (by hand) exits 2
// at once.
//
// It exits 0 on its own in two situations: the drain flag flipped (SIGTERM)
// and no unit is pending, or the channel hung up (the daemon died, or shut
// the channel down to stop its workers). A worker in the middle of a slice
// when its daemon dies does not get that far: the daemon has the kernel
// SIGKILL it (daemon.cc, Spawn).

#ifndef ANDURIL_SRC_SERVICE_WORKER_H_
#define ANDURIL_SRC_SERVICE_WORKER_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace anduril::service {

struct WorkerOptions {
  std::string work_dir;    // unread by the service; stays because reprobench sets it
  int64_t parent_pid = 0;  // unread by the service; stays because reprobench sets it
  // Cooperative drain flag, usually wired to the process's SIGTERM handler.
  const std::atomic<bool>* cancel = nullptr;
};

// Runs until drained or orphaned; returns the process exit code (2 without
// a daemon channel).
int RunWorkerLoop(const WorkerOptions& options);

}  // namespace anduril::service

#endif  // ANDURIL_SRC_SERVICE_WORKER_H_
