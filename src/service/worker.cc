#include "src/service/worker.h"

#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "src/service/context_cache.h"
#include "src/service/runner.h"
#include "src/service/work.h"
#include "src/util/file.h"

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
  const std::string cmd_path = options.work_dir + "/cmd.json";
  const std::string result_path =
      options.work_dir + "/result-" + std::to_string(getpid()) + ".json";
  const pid_t parent =
      options.parent_pid > 0 ? static_cast<pid_t>(options.parent_pid) : getppid();
  ContextCache cache;

  while (true) {
    std::string text;
    if (!ReadFileToString(cmd_path, &text)) {
      // No command pending: block until the daemon rings or hangs up.
      if (options.cancel != nullptr && options.cancel->load(std::memory_order_relaxed)) {
        return 0;
      }
      if (!std::filesystem::exists(options.work_dir)) {
        return 0;
      }
      pollfd wait = {kWorkerChannelFd, POLLIN, 0};
      // EINTR (a drain signal) loops back to the drain flag.
      if (poll(&wait, 1, -1) > 0 && !DrainDoorbells(kWorkerChannelFd)) {
        // Hang-up: the daemon died; a successor owns this spool now.
        return 0;
      }
      continue;
    }
    WorkUnit unit;
    std::string error;
    WorkResult result;
    const bool parsed = ParseWorkUnit(text, &unit, &error);
    if (parsed && unit.daemon_pid != static_cast<int64_t>(parent)) {
      // A successor daemon's command: this worker is an orphan that has not
      // seen its daemon's hang-up yet. Leave the file for the rightful worker.
      return 0;
    }
    std::filesystem::remove(cmd_path);
    if (parsed) {
      result = RunSlice(&cache, unit, options.cancel);
      result.daemon_pid = unit.daemon_pid;
    } else {
      result.case_id = "?";
      result.status = SliceStatus::kError;
      result.error = error;
    }
    if (!WriteFileAtomic(result_path, SerializeWorkResult(result))) {
      std::fprintf(stderr, "worker %d: cannot write %s\n", getpid(), result_path.c_str());
      return 1;
    }
    RingDoorbell(kWorkerChannelFd);
  }
}

}  // namespace anduril::service
