#include "src/interp/fault_runtime.h"

#include <chrono>

#include "src/obs/metrics.h"
#include "src/util/check.h"

namespace anduril::interp {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kException:
      return "exception";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kStall:
      return "stall";
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kPartition:
      return "partition";
  }
  return "unknown";
}

bool FaultKindFromName(const std::string& name, FaultKind* out) {
  for (FaultKind kind :
       {FaultKind::kException, FaultKind::kCrash, FaultKind::kStall, FaultKind::kDrop,
        FaultKind::kDelay, FaultKind::kDuplicate, FaultKind::kPartition}) {
    if (name == FaultKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

void FaultRuntime::BeginRun() {
  // Compile the fault plan: dense zeroed counters sized to the program's
  // site registry plus the armed-site bitmap over window + pinned. assign()
  // keeps the buffers' capacity across runs.
  size_t site_count = program_->fault_sites().size();
  occurrences_.assign(site_count, 0);
  armed_.assign((site_count + 63) / 64, 0);
  auto arm = [this](ir::FaultSiteId site) {
    if (site < 0) {
      return;
    }
    size_t word = static_cast<size_t>(site) >> 6;
    if (word >= armed_.size()) {
      armed_.resize(word + 1, 0);
    }
    armed_[word] |= uint64_t{1} << (static_cast<size_t>(site) & 63);
  };
  for (const InjectionCandidate& candidate : window_) {
    arm(candidate.site);
  }
  for (const InjectionCandidate& candidate : pinned_) {
    arm(candidate.site);
  }
  trace_len_ = 0;
  injected_.reset();
  preempted_window_.clear();
  injection_requests_ = 0;
  skipped_requests_ = 0;
  decision_nanos_ = 0;
  pinned_fired_ = 0;
}

void FaultRuntime::GrowTrace() {
  // A recycled buffer arrives trimmed to the previous run's live prefix
  // (CopyTraceTo swap): fill out its existing capacity before doubling so the
  // steady state value-initializes only the trimmed tail, never reallocates.
  if (trace_.size() < trace_.capacity()) {
    trace_.resize(trace_.capacity());
  } else {
    trace_.resize(trace_.empty() ? 64 : trace_.size() * 2);
  }
}

std::unordered_map<ir::FaultSiteId, int64_t> FaultRuntime::occurrence_counts() const {
  std::unordered_map<ir::FaultSiteId, int64_t> counts;
  for (size_t site = 0; site < occurrences_.size(); ++site) {
    if (occurrences_[site] != 0) {
      counts[static_cast<ir::FaultSiteId>(site)] = occurrences_[site];
    }
  }
  return counts;
}

void FaultRuntime::FlushMetrics(obs::MetricsRegistry* metrics) const {
  metrics->Add("fault.requests", injection_requests_);
  if (injected_.has_value()) {
    metrics->Add(std::string("fault.injected.") + FaultKindName(injected_->kind));
  }
  if (pinned_fired_ > 0) {
    metrics->Add("fault.pinned_fired", pinned_fired_);
  }
  if (!preempted_window_.empty()) {
    metrics->Add("fault.preempted", static_cast<int64_t>(preempted_window_.size()));
  }
}

bool FaultRuntime::MatchArmed(ir::FaultSiteId site, int64_t occurrence, FaultAction* action) {
  // Pinned faults (a chain search's prefix) fire unconditionally and do
  // not consume the window's single injection. A dynamic instance fires at
  // most once: if a window candidate names the same (site, occurrence) as a
  // pinned fault, the pinned fault wins and the window candidate is recorded
  // as pre-empted — not fired a second time, not left armed forever.
  for (const InjectionCandidate& pinned : pinned_) {
    if (pinned.site == site && pinned.occurrence == occurrence) {
      action->kind = pinned.kind;
      action->exception = pinned.kind == FaultKind::kException ? pinned.type : ir::kInvalidId;
      action->fired = pinned.kind != FaultKind::kException;
      ++pinned_fired_;
      if (!injected_.has_value()) {
        for (const InjectionCandidate& candidate : window_) {
          if (candidate.site == site && candidate.occurrence == occurrence) {
            preempted_window_.push_back(candidate);
            break;
          }
        }
      }
      return true;
    }
  }
  // Window injection: first candidate instance reached fires (§5.2.5). At
  // most one injection per run.
  if (!injected_.has_value()) {
    for (const InjectionCandidate& candidate : window_) {
      if (candidate.site == site && candidate.occurrence == occurrence) {
        injected_ = candidate;
        action->kind = candidate.kind;
        action->exception =
            candidate.kind == FaultKind::kException ? candidate.type : ir::kInvalidId;
        action->fired = candidate.kind != FaultKind::kException;
        action->injected = true;
        return true;
      }
    }
  }
  return false;
}

bool FaultRuntime::ExternalCallMatchArmed(ir::FaultSiteId site, int64_t occurrence,
                                          FaultAction* action) {
  bool matched = MatchArmed(site, occurrence, action);
  ANDURIL_CHECK(!matched || !IsNetworkFaultKind(action->kind))
      << "network fault armed at external-call site " << program_->fault_site(site).name;
  return matched;
}

bool FaultRuntime::SendMatchArmed(ir::FaultSiteId site, int64_t occurrence,
                                  FaultAction* action) {
  bool matched = MatchArmed(site, occurrence, action);
  ANDURIL_CHECK(!matched || IsNetworkFaultKind(action->kind))
      << "non-network fault armed at send site " << program_->fault_site(site).name;
  return matched;
}

FaultAction FaultRuntime::OnExternalCallFastTimed(ir::FaultSiteId site,
                                                  ir::ExceptionTypeId transient_type,
                                                  int32_t transient_every_n, int64_t log_clock,
                                                  int64_t time_ms, int32_t thread_id) {
  auto start = std::chrono::steady_clock::now();
  FaultAction action = ExternalCallFastImpl(site, transient_type, transient_every_n,
                                            log_clock, time_ms, thread_id);
  decision_nanos_ += kDecisionSample * std::chrono::duration_cast<std::chrono::nanoseconds>(
                                           std::chrono::steady_clock::now() - start)
                                           .count();
  return action;
}

FaultAction FaultRuntime::OnSendFastTimed(ir::FaultSiteId site, int64_t log_clock,
                                          int64_t time_ms, int32_t thread_id) {
  auto start = std::chrono::steady_clock::now();
  FaultAction action = SendFastImpl(site, log_clock, time_ms, thread_id);
  decision_nanos_ += kDecisionSample * std::chrono::duration_cast<std::chrono::nanoseconds>(
                                           std::chrono::steady_clock::now() - start)
                                           .count();
  return action;
}

}  // namespace anduril::interp
