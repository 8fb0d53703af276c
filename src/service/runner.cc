#include "src/service/runner.h"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>

#include "src/explorer/checkpoint.h"
#include "src/explorer/explorer.h"
#include "src/explorer/iterative.h"
#include "src/explorer/strategy.h"
#include "src/obs/metrics.h"
#include "src/util/file.h"

namespace anduril::service {
namespace {

std::string ChainToText(const ir::Program& program, const explorer::FaultChain& chain) {
  std::string text;
  for (size_t i = 0; i < chain.steps.size(); ++i) {
    const explorer::FaultChainStep& step = chain.steps[i];
    const char* what = step.candidate.kind == interp::FaultKind::kException
                           ? program.exception_type(step.candidate.type).name.c_str()
                           : interp::FaultKindName(step.candidate.kind);
    char line[256];
    std::snprintf(line, sizeof(line), "step %zu: %s, %s at occurrence %lld (seed %llu)\n",
                  i + 1, program.fault_site(step.candidate.site).name.c_str(), what,
                  static_cast<long long>(step.candidate.occurrence),
                  static_cast<unsigned long long>(step.seed));
    text += line;
  }
  return text;
}

// done + more, saturated to the int range: a slice width near INT_MAX
// means "no slice cap", not a negative one.
int RoundsAfter(int done, int more) {
  const int64_t sum = static_cast<int64_t>(done) + more;
  return static_cast<int>(std::clamp<int64_t>(sum, std::numeric_limits<int>::min(),
                                              std::numeric_limits<int>::max()));
}

WorkResult Error(const std::string& case_id, std::string message) {
  WorkResult result;
  result.case_id = case_id;
  result.status = SliceStatus::kError;
  result.error = std::move(message);
  return result;
}

}  // namespace

WorkResult RunSlice(ContextCache* cache, const WorkUnit& unit,
                    const std::atomic<bool>* cancel) {
  const systems::FailureCase* failure_case = systems::FindCase(unit.case_id);
  if (failure_case == nullptr) {
    return Error(unit.case_id, "unknown case '" + unit.case_id + "'");
  }
  ContextCache::Entry* entry = cache->Get(*failure_case);

  obs::MetricsRegistry metrics;
  explorer::ExplorerOptions options = entry->options;
  options.metrics = &metrics;
  options.cancel = cancel;

  // The checkpoint, not the manifest, says where the search is: a manifest
  // one commit behind (daemon killed between apply and journal) self-heals
  // here.
  explorer::SearchCheckpoint resumed;
  bool resume = false;
  if (!unit.checkpoint_path.empty() && std::filesystem::exists(unit.checkpoint_path)) {
    std::string error;
    if (!explorer::LoadCheckpointFile(unit.checkpoint_path, &resumed, &error)) {
      return Error(unit.case_id, "cannot resume checkpoint: " + error);
    }
    resume = true;
  }
  const int done = !resume ? 0
                   : unit.chain
                       ? resumed.chain.rounds_before_phase + resumed.rounds_completed
                       : resumed.rounds_completed;
  int cap = RoundsAfter(done, unit.slice_rounds);
  if (unit.round_budget > 0) {
    cap = std::min(cap, unit.round_budget);
  }
  // Crash emulation: run a truncated slice, leave the checkpoint exactly as
  // a mid-slice SIGKILL would, and die without reporting.
  const bool emulate_crash = unit.emulate_crash_after_rounds > 0;
  if (emulate_crash) {
    cap = std::min(cap, RoundsAfter(done, unit.emulate_crash_after_rounds));
  }
  if (cap <= done) {
    return Error(unit.case_id, "slice has no round budget (done=" + std::to_string(done) +
                                   ", cap=" + std::to_string(cap) + ")");
  }

  explorer::CheckpointConfig checkpoint;
  checkpoint.path = unit.checkpoint_path;
  checkpoint.resume = resume ? &resumed : nullptr;

  WorkResult result;
  result.case_id = unit.case_id;
  if (unit.chain) {
    options.max_rounds = std::max(options.max_rounds, cap);
    options.max_total_rounds = cap;
    explorer::ChainExplorer explorer(entry->built.spec, options);
    explorer::ChainResult chain = explorer.Explore(kServiceMaxChainLength, checkpoint);
    if (!chain.error.empty()) {
      return Error(unit.case_id, chain.error);
    }
    result.rounds_done = chain.total_rounds;
    if (chain.reproduced) {
      result.status = SliceStatus::kReproduced;
      result.script = ChainToText(*entry->built.program, chain.chain);
      result.script_seed = chain.chain.steps.back().seed;
    } else if (chain.interrupted) {
      result.status = SliceStatus::kInterrupted;
    } else {
      result.status =
          chain.total_rounds >= cap ? SliceStatus::kSliceDone : SliceStatus::kExhausted;
    }
  } else {
    options.max_rounds = cap;
    // First plain slice over this program builds and caches the context;
    // later slices (and other cases sharing the program) reuse it.
    std::unique_ptr<explorer::Explorer> explorer;
    if (entry->context == nullptr) {
      explorer = std::make_unique<explorer::Explorer>(entry->built.spec, options);
      entry->context = explorer->shared_context();
    } else {
      explorer = std::make_unique<explorer::Explorer>(entry->context, options);
    }
    std::unique_ptr<explorer::InjectionStrategy> strategy =
        explorer::MakeFullFeedbackStrategy();
    explorer::ExploreResult search = explorer->Explore(strategy.get(), checkpoint);
    if (!search.error.empty()) {
      return Error(unit.case_id, search.error);
    }
    result.rounds_done = search.rounds;
    result.status = search.reproduced      ? SliceStatus::kReproduced
                    : search.interrupted   ? SliceStatus::kInterrupted
                    : search.rounds >= cap ? SliceStatus::kSliceDone
                                           : SliceStatus::kExhausted;
    if (search.reproduced) {
      result.script = search.script->ToText(*entry->built.program);
      result.script_seed = search.script->seed;
    }
  }

  if (emulate_crash) {
    // The checkpoint of the last unsuccessful round is on disk; dying here
    // without a result is indistinguishable from SIGKILL to the daemon.
    _exit(kWorkerEmulatedCrashExit);
  }

  if (!unit.metrics_path.empty() &&
      !WriteFileAtomic(unit.metrics_path, metrics.DumpJson())) {
    return Error(unit.case_id, "cannot write metrics to " + unit.metrics_path);
  }
  return result;
}

}  // namespace anduril::service
