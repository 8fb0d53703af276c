#include "src/service/worker.h"

#include <poll.h>
#include <sys/stat.h>

#include <cstdio>
#include <string>

#include "src/service/context_cache.h"
#include "src/service/runner.h"
#include "src/service/work.h"

namespace anduril::service {

int RunWorkerLoop(const WorkerOptions& options) {
  struct stat channel;
  if (fstat(kWorkerChannelFd, &channel) != 0 || !S_ISSOCK(channel.st_mode)) {
    std::fprintf(stderr,
                 "anduril_serve worker: no daemon channel on descriptor %d; workers are "
                 "started by `anduril_serve run`\n",
                 kWorkerChannelFd);
    return 2;
  }
  ContextCache cache;
  while (true) {
    std::string packet;
    const Received received = ReceiveMessage(kWorkerChannelFd, &packet);
    if (received == Received::kHangUp) {
      // The daemon died, or shut the channel down to stop this worker.
      return 0;
    }
    if (received == Received::kEmpty) {
      if (options.cancel != nullptr && options.cancel->load(std::memory_order_relaxed)) {
        return 0;
      }
      // Block until a unit or a hang-up; EINTR (a drain signal) loops back
      // to the drain flag.
      pollfd wait = {kWorkerChannelFd, POLLIN, 0};
      poll(&wait, 1, -1);
      continue;
    }
    WorkUnit unit;
    std::string error;
    const WorkResult result =
        ParseWorkUnit(packet, &unit, &error)
            ? RunSlice(&cache, unit, options.cancel)
            : WorkResult{.case_id = "?", .status = SliceStatus::kError, .error = error};
    if (!SendMessage(kWorkerChannelFd, SerializeWorkResult(result))) {
      return 0;  // the daemon hung up
    }
  }
}

}  // namespace anduril::service
