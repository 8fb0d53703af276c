// Fault-injection runtime: the C++ analog of the paper's instrumented
// FIR.traceSite / FIR.throwIfEnabled hooks (Figure 3).
//
// Every ExternalCall and Send statement consults this runtime when executed
// (OnExternalCallFast / OnSendFast). The runtime (1) traces the dynamic
// fault *instance* (site + occurrence, with its position on the log-message
// timeline — the "logical clock" used for temporal distance in §5.2.3), and
// (2) decides whether to inject.
//
// The explorer hands the runtime a *window* of candidate instances
// (§5.2.5 flexible priority window): the first candidate whose (site,
// occurrence) is reached gets injected, even if it is not the top-priority
// one. A run injects at most one fault (single-root-cause scope, §2).
//
// Thread compatibility: the runtime reads the Program through a const
// pointer and keeps all per-run state (occurrence counters, trace) in its
// own members, so one runtime per concurrent simulation over a shared
// Program is safe. A single FaultRuntime instance serves one run at a time.

#ifndef ANDURIL_SRC_INTERP_FAULT_RUNTIME_H_
#define ANDURIL_SRC_INTERP_FAULT_RUNTIME_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ir/program.h"
#include "src/ir/types.h"

namespace anduril::obs {
class MetricsRegistry;
}  // namespace anduril::obs

namespace anduril::interp {

// What a fault does when it fires at a dynamic instance.
//
//   kException — the external call throws `type` (the original model).
//   kCrash     — the whole node halts at the call: every thread on it stops,
//                queued and in-flight work is discarded, and the per-thread
//                log is truncated at the crash point.
//   kStall     — the call blocks forever; the thread wedges until the run's
//                budget expires (a hang, not a death).
//
// Network kinds fire at kSend sites (the message layer) instead of external
// calls:
//
//   kDrop      — the message is discarded; the handler never runs.
//   kDelay     — delivery is deferred by a deterministic, seed-derived
//                number of simulated milliseconds (ClusterSpec::
//                network_delay_ms overrides the derived value).
//   kDuplicate — the message is delivered twice.
//   kPartition — the (src, dst) node pair is severed both ways; every
//                message crossing the pair — including ones already in
//                flight — is dropped until the partition heals
//                (ClusterSpec::partition_heal_ms; 0 = never).
enum class FaultKind : uint8_t { kException, kCrash, kStall, kDrop, kDelay, kDuplicate,
                                 kPartition };

const char* FaultKindName(FaultKind kind);

// Inverse of FaultKindName. Returns false (leaving *out untouched) for an
// unrecognized name — callers turn that into their own actionable error.
bool FaultKindFromName(const std::string& name, FaultKind* out);

// True for the message-layer kinds, which fire at kSend fault sites; the
// other kinds fire at kExternal sites.
inline bool IsNetworkFaultKind(FaultKind kind) {
  return kind == FaultKind::kDrop || kind == FaultKind::kDelay ||
         kind == FaultKind::kDuplicate || kind == FaultKind::kPartition;
}

// One candidate dynamic fault instance: inject a fault of `kind` at the
// `occurrence`-th (1-based) execution of `site`. `type` is the exception to
// throw for kException and kInvalidId for every other kind.
struct InjectionCandidate {
  ir::FaultSiteId site = ir::kInvalidId;
  int64_t occurrence = 0;
  ir::ExceptionTypeId type = ir::kInvalidId;
  FaultKind kind = FaultKind::kException;

  friend bool operator==(const InjectionCandidate&, const InjectionCandidate&) = default;
};

// The runtime's decision for one external-call or send execution.
struct FaultAction {
  FaultKind kind = FaultKind::kException;
  // Exception to throw (injected, pinned, or natural transient); kInvalidId
  // means no exception. Only meaningful when kind == kException.
  ir::ExceptionTypeId exception = ir::kInvalidId;
  // True when a non-exception fault (crash/stall/network) fired here.
  bool fired = false;
  // True only for a *window* injection (not pinned, not natural transient).
  bool injected = false;
  // The 1-based dynamic occurrence of the site this decision was made for
  // (the simulator folds it into the seed-derived delay for kDelay).
  int64_t occurrence = 0;
};

// A traced execution of a fault site.
struct FaultInstanceEvent {
  ir::FaultSiteId site = ir::kInvalidId;
  int64_t occurrence = 0;  // 1-based per-site counter
  int64_t log_clock = 0;   // number of log messages emitted before this point
  int64_t time_ms = 0;
  int32_t thread_id = 0;
};

class FaultRuntime {
 public:
  explicit FaultRuntime(const ir::Program* program) : program_(program) {}

  // Installs the candidate window for the next run. Empty window = fault-free.
  void SetWindow(std::vector<InjectionCandidate> window) { window_ = std::move(window); }

  // Faults injected unconditionally (each at its own site+occurrence), in
  // addition to the single window injection. Used by the chain search (§3):
  // a previously-identified root cause is "fixed into the workload" while
  // the search continues for the next one.
  void SetPinned(std::vector<InjectionCandidate> pinned) { pinned_ = std::move(pinned); }

  // Enables/disables instance tracing (tracing is cheap but the trace can be
  // large; baselines that do not need it can turn it off).
  void set_tracing(bool enabled) { tracing_ = enabled; }
  bool tracing() const { return tracing_; }

  // Called by the interpreter right before an external call executes, with
  // the statement's transient parameters pre-decoded by the flattener.
  // Returns the action to take: throw an exception (injected, pinned, or
  // natural transient), crash the node, stall the call, or proceed normally.
  //
  // OnSendFast is its counterpart for a Send statement about to hand its
  // message to the network: same tracing and window/pinned matching, but
  // the only kinds that can fire are the network ones
  // (drop/delay/duplicate/partition) and there is no natural transient.
  //
  // Both are hot. The per-site occurrence bump is a dense-array increment
  // and the armed check is one bitmap word load + branch (built by BeginRun
  // from the window + pinned sets), so the common not-armed case never
  // hashes — and the whole not-armed path is inlined into the dispatch loop
  // (only the armed candidate scan and the timed stride leave the header).
  // Decision latency is sampled — every kDecisionSample-th request is timed
  // and extrapolated — instead of reading the clock twice per request.
  // Requires BeginRun() (the armed bitmap is compiled there).
  FaultAction OnExternalCallFast(ir::FaultSiteId site, ir::ExceptionTypeId transient_type,
                                 int32_t transient_every_n, int64_t log_clock,
                                 int64_t time_ms, int32_t thread_id) {
    if ((injection_requests_ & (kDecisionSample - 1)) == 0) {
      return OnExternalCallFastTimed(site, transient_type, transient_every_n, log_clock,
                                     time_ms, thread_id);
    }
    return ExternalCallFastImpl(site, transient_type, transient_every_n, log_clock, time_ms,
                                thread_id);
  }
  FaultAction OnSendFast(ir::FaultSiteId site, int64_t log_clock, int64_t time_ms,
                         int32_t thread_id) {
    if ((injection_requests_ & (kDecisionSample - 1)) == 0) {
      return OnSendFastTimed(site, log_clock, time_ms, thread_id);
    }
    return SendFastImpl(site, log_clock, time_ms, thread_id);
  }

  // Resets per-run state (occurrence counters, trace, request count) while
  // keeping the window configuration.
  void BeginRun();

  // What a run snapshot keeps of this runtime: the per-site occurrence
  // counters, the request count and the pinned firings so far. A snapshot
  // is only taken before any window candidate fires, so the injection and
  // the pre-empted list are empty by construction; the trace is not kept
  // (a tracing run never forks, see Simulator::set_start).
  struct Progress {
    std::vector<int64_t> occurrences;
    int64_t injection_requests = 0;
    int64_t pinned_fired = 0;
  };
  Progress SaveProgress() const {
    return Progress{occurrences_, injection_requests_, pinned_fired_};
  }
  // After BeginRun: continues from `progress`, as a run forked from a
  // snapshot does. Decision sampling then lines up with a from-scratch run
  // (the stride is a function of the request count), and decision_nanos()
  // extrapolates the suffix's samples over the skipped requests.
  void RestoreProgress(const Progress& progress) {
    occurrences_ = progress.occurrences;
    injection_requests_ = progress.injection_requests;
    skipped_requests_ = progress.injection_requests;
    pinned_fired_ = progress.pinned_fired;
  }

  // --- Post-run accessors ----------------------------------------------------
  // The trace storage is resident — it survives BeginRun so no run pays for
  // re-growing or re-initializing it — and trace() copies out the live
  // prefix (trivially copyable, so the copy is one memcpy).
  std::vector<FaultInstanceEvent> trace() const {
    return std::vector<FaultInstanceEvent>(
        trace_.begin(), trace_.begin() + static_cast<std::ptrdiff_t>(trace_len_));
  }
  // Hands the trace to a caller-owned buffer. Instead of copying, the resident
  // buffer and `out` trade places: `out` receives the filled buffer trimmed
  // to the live prefix (the trim is O(1) — the event type is trivially
  // destructible) and the runtime keeps `out`'s old storage as the next
  // run's resident buffer. With a recycled `out` the two buffers simply
  // rotate between runs and no element is ever copied.
  void CopyTraceTo(std::vector<FaultInstanceEvent>* out) {
    std::swap(*out, trace_);
    out->resize(trace_len_);
    trace_len_ = 0;
  }
  // The candidate that actually fired this run, if any.
  const std::optional<InjectionCandidate>& injected() const { return injected_; }
  // Number of times the hooks consulted the runtime (paper Table 4/8
  // "Inject. Req.").
  int64_t injection_requests() const { return injection_requests_; }
  // Per-site dynamic occurrence counts observed this run (sites with a
  // nonzero count only; counters live in a dense array internally).
  std::unordered_map<ir::FaultSiteId, int64_t> occurrence_counts() const;
  // The program this runtime was built for (lets per-worker caches key their
  // reuse on it).
  const ir::Program& program() const { return *program_; }
  // Cumulative time spent inside injection decisions, for Table 4 latency.
  // A forked run times only its suffix and scales that up to every request
  // of the run, so decision_nanos() / injection_requests() stays a
  // per-request estimate.
  int64_t decision_nanos() const {
    const int64_t simulated = injection_requests_ - skipped_requests_;
    if (skipped_requests_ == 0 || simulated <= 0) {
      return decision_nanos_;
    }
    return static_cast<int64_t>(static_cast<double>(decision_nanos_) *
                                static_cast<double>(injection_requests_) /
                                static_cast<double>(simulated));
  }
  // Window candidates whose (site, occurrence) was claimed by a pinned fault
  // this run. The pinned fault fires (once — never a double injection); the
  // pre-empted window candidate is reported here so the search can retire it
  // instead of re-arming it forever.
  const std::vector<InjectionCandidate>& preempted_window() const { return preempted_window_; }
  // Pinned-fault firings this run (each pinned instance fires at most once).
  int64_t pinned_fired() const { return pinned_fired_; }

  // Folds this run's fault accounting ("fault.requests",
  // "fault.injected.<kind>", "fault.pinned_fired", "fault.preempted") into
  // the registry. Called by the simulator at the end of Run() when a metrics
  // sink is attached.
  void FlushMetrics(obs::MetricsRegistry* metrics) const;

 private:
  // Matches (site, occurrence) against pinned + window candidates, fills
  // `action` and returns true when one fired. Cold — only reached when the
  // site's armed bit is set.
  bool MatchArmed(ir::FaultSiteId site, int64_t occurrence, FaultAction* action);
  // Armed-site halves of the fast hooks: candidate scan plus a kind sanity
  // check. Cold by construction — a clear armed bit skips them entirely.
  bool ExternalCallMatchArmed(ir::FaultSiteId site, int64_t occurrence, FaultAction* action);
  bool SendMatchArmed(ir::FaultSiteId site, int64_t occurrence, FaultAction* action);
  // Timed-stride variants: run the same impl between two clock reads and
  // extrapolate across the stride.
  FaultAction OnExternalCallFastTimed(ir::FaultSiteId site, ir::ExceptionTypeId transient_type,
                                      int32_t transient_every_n, int64_t log_clock,
                                      int64_t time_ms, int32_t thread_id);
  FaultAction OnSendFastTimed(ir::FaultSiteId site, int64_t log_clock, int64_t time_ms,
                              int32_t thread_id);

  // One in every kDecisionSample fast-hook requests is timed. Power of two
  // so the stride test is a mask.
  static constexpr int64_t kDecisionSample = 256;

  // Appends one trace event through a raw cursor into pre-sized storage: a
  // handful of plain stores on the hot path instead of an out-of-line
  // vector::emplace_back per request. The vector is kept at size >=
  // trace_len_ (spare tail entries are default-constructed filler); the
  // accessors copy out the live prefix.
  void TraceAppend(ir::FaultSiteId site, int64_t occurrence, int64_t log_clock,
                   int64_t time_ms, int32_t thread_id) {
    if (trace_len_ == trace_.size()) {
      GrowTrace();
    }
    FaultInstanceEvent& event = trace_[trace_len_++];
    event.site = site;
    event.occurrence = occurrence;
    event.log_clock = log_clock;
    event.time_ms = time_ms;
    event.thread_id = thread_id;
  }
  void GrowTrace();

  FaultAction ExternalCallFastImpl(ir::FaultSiteId site, ir::ExceptionTypeId transient_type,
                                   int32_t transient_every_n, int64_t log_clock,
                                   int64_t time_ms, int32_t thread_id) {
    ++injection_requests_;
    int64_t occurrence = BumpOccurrence(site);
    FaultAction action;
    action.occurrence = occurrence;
    if (tracing_) {
      TraceAppend(site, occurrence, log_clock, time_ms, thread_id);
    }
    if (Armed(site)) {
      if (ExternalCallMatchArmed(site, occurrence, &action)) {
        return action;
      }
    }
    // Natural transient failure (deterministic, present in fault-free runs
    // too): models handled errors that make production logs noisy.
    if (transient_every_n > 0 && occurrence % transient_every_n == 0) {
      action.exception = transient_type;
    }
    return action;
  }
  FaultAction SendFastImpl(ir::FaultSiteId site, int64_t log_clock, int64_t time_ms,
                           int32_t thread_id) {
    ++injection_requests_;
    int64_t occurrence = BumpOccurrence(site);
    FaultAction action;
    action.occurrence = occurrence;
    if (tracing_) {
      TraceAppend(site, occurrence, log_clock, time_ms, thread_id);
    }
    if (Armed(site)) {
      SendMatchArmed(site, occurrence, &action);
    }
    return action;
  }

  int64_t BumpOccurrence(ir::FaultSiteId site) {
    size_t index = static_cast<size_t>(site);
    if (index >= occurrences_.size()) {
      // Direct hook users (benchmarks, unit tests) may skip BeginRun; grow
      // lazily rather than requiring the sizing pass.
      occurrences_.resize(index + 1, 0);
    }
    return ++occurrences_[index];
  }
  bool Armed(ir::FaultSiteId site) const {
    size_t word = static_cast<size_t>(site) >> 6;
    return word < armed_.size() &&
           ((armed_[word] >> (static_cast<size_t>(site) & 63)) & 1) != 0;
  }

  const ir::Program* program_;
  std::vector<InjectionCandidate> window_;
  std::vector<InjectionCandidate> pinned_;
  bool tracing_ = true;

  // Dense per-site occurrence counters (index = FaultSiteId) and the per-run
  // armed-site bitmap: bit `site` is set iff some window or pinned candidate
  // names that site, so a clear bit proves no candidate scan is needed.
  std::vector<int64_t> occurrences_;
  std::vector<uint64_t> armed_;
  std::vector<FaultInstanceEvent> trace_;
  size_t trace_len_ = 0;
  std::optional<InjectionCandidate> injected_;
  std::vector<InjectionCandidate> preempted_window_;
  int64_t injection_requests_ = 0;
  // Requests a forked run restored instead of executing (RestoreProgress).
  int64_t skipped_requests_ = 0;
  int64_t decision_nanos_ = 0;
  int64_t pinned_fired_ = 0;
};

}  // namespace anduril::interp

#endif  // ANDURIL_SRC_INTERP_FAULT_RUNTIME_H_
