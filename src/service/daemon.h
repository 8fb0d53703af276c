// The reproduction-service daemon: accepts a queue of failure cases, shards
// round execution across supervised worker processes, streams per-case
// progress, and survives being killed at any instant.
//
// Robustness model, layer by layer:
//  - Queue: journaled to <state_dir>/queue.json (atomic writes, FNV
//    integrity hash) once per pass of the event loop, after every idle
//    worker has its next slice, and before a drain or shutdown; a worker
//    death's crash count is journaled at once. Per-case search state resumes
//    from the checkpoint files, whose byte-identical-resume invariant makes
//    an interrupted+resumed queue finish with the scripts and metrics of an
//    uninterrupted run, at any worker count; a manifest one commit behind
//    self-heals from them. The state dir holds nothing else but the cases'
//    metrics files.
//  - Workers: forked `anduril_serve worker` processes, each sharing one
//    socketpair with the daemon that carries its work units and results as
//    packets (work.h). The daemon blocks in poll() on every live channel
//    until a result, a hang-up (the worker exited; it is reaped), the
//    nearest heartbeat deadline (a busy search saves its checkpoint at least
//    every explorer::kCheckpointInterval plus a round, so its mtime must
//    advance within heartbeat_timeout_ms) or a respawn time, and at most a
//    short interval that only serves to notice a drain signal. A dead or
//    wedged worker is SIGKILLed, its case requeued, and the slot respawned
//    under bounded exponential backoff; a case that kills its worker three
//    times in a row is demoted to kFailed. Workers die with the daemon
//    (PR_SET_PDEATHSIG), so none outlives it to race a successor for a
//    case's checkpoint.
//  - Scheduling: fair share with starve-out, ties toward a case the idle
//    worker has already run (see scheduler.h).
//  - Degradation: the cancel flag (SIGTERM) drains in-flight slices at
//    round boundaries — checkpoints flushed, manifest saved — and the next
//    `anduril_serve run` picks up exactly where the drain stopped. Workers
//    are stopped with a SIGTERM and a shutdown of the daemon's end of their
//    channel, which an idle worker reads as a hang-up.
//
// Crash emulation for tests: crash_after_slices makes the *daemon* _exit()
// right after the first journal commit that holds N slice results (a kill
// between two commits); worker_crash_slice/_rounds make one dispatched slice
// die mid-search like a SIGKILLed worker.

#ifndef ANDURIL_SRC_SERVICE_DAEMON_H_
#define ANDURIL_SRC_SERVICE_DAEMON_H_

#include <atomic>
#include <string>
#include <vector>

#include "src/service/manifest.h"

namespace anduril::service {

struct ServeOptions {
  std::string state_dir;
  // Queue to create when no manifest exists yet; ignored on resume.
  std::vector<QueueCase> seed_cases;
  // Rounds per slice; RunService rejects a width below 1.
  int slice_rounds = 200;
  // Worker processes. 0 = run every slice in-process (serial mode: no
  // supervision layer, same queue/journal semantics — the bench baseline).
  int workers = 2;
  // 0 = off; otherwise RunService rejects a value at or below
  // explorer::kCheckpointInterval.
  int heartbeat_timeout_ms = 20000;
  // Test hooks (0 = off): see header comment.
  int crash_after_slices = 0;
  int worker_crash_slice = 0;   // 1-based index into dispatched slices
  int worker_crash_rounds = 0;  // rounds into that slice (default: 1)
  // Binary to exec for workers; defaults to /proc/self/exe.
  std::string serve_binary;
  const std::atomic<bool>* cancel = nullptr;
  bool verbose = true;
};

struct ServeReport {
  bool interrupted = false;
  bool error = false;
  std::string error_text;
  QueueManifest manifest;  // final journaled state
  int slices_applied = 0;
  int worker_respawns = 0;
};

// Runs the queue to completion (all cases terminal), drain, or error.
// On completion, merges every case's metrics into
// <state_dir>/merged_metrics.json via MetricsRegistry::Merge; a case's
// metrics file that does not parse is an error that names it.
ServeReport RunService(const ServeOptions& options);

// Per-case file locations inside the state dir (shared with tests).
std::string ManifestPath(const std::string& state_dir);
std::string CaseCheckpointPath(const std::string& state_dir, const std::string& case_id);
std::string CaseMetricsPath(const std::string& state_dir, const std::string& case_id);
std::string MergedMetricsPath(const std::string& state_dir);

}  // namespace anduril::service

#endif  // ANDURIL_SRC_SERVICE_DAEMON_H_
