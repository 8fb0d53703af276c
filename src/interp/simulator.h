// Deterministic discrete-event interpreter for the anduril IR.
//
// A Simulator executes one run of a simulated distributed system: nodes with
// per-node variable state, named threads processing tasks serially, message
// passing with latency, executor/future semantics with cross-thread
// exception wrapping (Java's ExecutionException, §4.1 of the paper), condition
// waits with timeouts, Log4j-style logging, and fault-injection hooks at
// every external-call fault site.
//
// Determinism: a run is a pure function of (program, cluster spec, seed,
// injection window). No host clock can end it: the cluster spec's
// simulated-time and step limits bound every run. This is what lets a
// successful search end with a script that deterministically reproduces the
// failure (§3 step 4.a).
//
// Execution: the simulator runs the flattened direct-threaded program
// (ir::FlatProgram). A caller may supply a shared pre-built one (the explorer
// builds it once per context); otherwise the simulator lowers its own at
// Run(). What a run produces — outcome, log, fault trace, thread end states,
// node state, network accounting, and the step count — is pinned for six
// runs of every registered scenario by tests/golden/interp_runs.txt, which
// interp_equivalence_test checks.
//
// Snapshots and forks: a run can record snapshots of its own state
// (set_capture), and a later run can start from one instead of from step 0
// (set_start). A snapshot is the whole run state at an event boundary — the
// top of Run()'s event loop, where no thread is mid-step — minus the log,
// of which it records only the length: the capturing run's log holds every
// snapshot's prefix. Capture is limited to the *seed-free* prefix of a run,
// the part before its first draw from the seed (the send-latency jitter or
// a seed-derived network delay), and a run at any seed whose armed
// (site, occurrence) instances all lie past a snapshot executes exactly
// that prefix. So a fork reseeds from its own seed and produces a RunResult
// equal, field for field, to the from-scratch run's (decision_nanos, host
// wall clock, is extrapolated; see FaultRuntime::decision_nanos). Capture
// is tried every 256 events at the top of the event loop, starts past
// kCaptureMinSteps and keeps at most kMaxSnapshots, thinning to every other
// snapshot (and doubling the stride) when full. Choosing a snapshot is the
// caller's job (ExplorerContext::ForkPoint): the simulator trusts that the
// run's armed instances lie past it.
//
// Thread compatibility: a Simulator only *reads* the Program, ClusterSpec,
// and FlatProgram it is given (all held by const pointer; none has lazy
// caches or other hidden mutation) and keeps all run state in its own
// members. Distinct (FaultRuntime, Simulator) pairs over the same shared
// Program/ClusterSpec/FlatProgram may therefore run concurrently — the
// property the parallel exploration engine fans out on. A single Simulator
// instance is not thread-safe.

#ifndef ANDURIL_SRC_INTERP_SIMULATOR_H_
#define ANDURIL_SRC_INTERP_SIMULATOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/interp/cluster.h"
#include "src/interp/fault_runtime.h"
#include "src/interp/log_entry.h"
#include "src/interp/network_model.h"
#include "src/interp/run_result.h"
#include "src/ir/flatten.h"
#include "src/ir/program.h"
#include "src/util/rng.h"

namespace anduril::obs {
class MetricsRegistry;
}  // namespace anduril::obs

namespace anduril::interp {

class RunSnapshot;
class Simulator;

// Reusable per-run buffer pool. A worker thread keeps one RunScratch alive
// (e.g. thread_local) and hands it to every Simulator it constructs; the
// simulator borrows the pooled containers for the duration of the run and
// returns them — cleared, capacity intact — when Run() finishes, so
// back-to-back runs on the same worker stop paying per-run allocation for
// their environments, thread tables, event heaps, and futures. Optional:
// a null scratch simply allocates fresh buffers. One RunScratch serves one
// Simulator at a time and is not thread-safe.
class RunScratch {
 public:
  RunScratch();
  ~RunScratch();
  RunScratch(const RunScratch&) = delete;
  RunScratch& operator=(const RunScratch&) = delete;

  // Hands a consumed RunResult's buffers back for reuse. The next run on
  // this scratch overwrites the recycled log entries in place — their string
  // capacity survives, so steady-state log emission allocates nothing — and
  // refills the recycled trace buffer instead of growing a fresh one.
  // Optional: results that are kept alive (or never returned) simply cost
  // the allocations again on the following run.
  void Recycle(RunResult&& result);

 private:
  friend class Simulator;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

class Simulator {
 public:
  // `flat` is an optional pre-built flattening of `program` (shared,
  // read-only); when null, Run() lowers one privately. `scratch` optionally
  // pools per-run buffers across runs.
  Simulator(const ir::Program* program, const ClusterSpec* spec, uint64_t seed,
            FaultRuntime* fault_runtime, const ir::FlatProgram* flat = nullptr,
            RunScratch* scratch = nullptr);
  ~Simulator();

  // Attaches a metrics sink; at the end of Run() the simulator folds its
  // per-run accounting ("sim.*") plus the fault runtime's ("fault.*") and
  // network model's ("net.*") into it. Null (the default) disables the flush
  // entirely — a single pointer test per run.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  // Records snapshots of this run's seed-free prefix into `sink`, in step
  // order (see the header comment). Only for a run that starts at step 0.
  void set_capture(std::vector<RunSnapshot>* sink) { capture_ = sink; }

  // Starts Run() from `snapshot` instead of step 0. `log` is the capturing
  // run's log, whose first snapshot->log_len() entries become this run's
  // log prefix; both must outlive Run(). The caller guarantees that every
  // (site, occurrence) this run arms (window and pinned faults) lies past
  // the snapshot, apart from pinned faults the capturing run armed too. A
  // tracing runtime ignores the snapshot and starts from step 0: snapshots
  // do not carry the fault-instance trace.
  void set_start(const RunSnapshot* snapshot, const std::vector<LogEntry>* log) {
    start_ = snapshot;
    start_log_ = log;
  }

  // Executes the run to completion and returns the result. Call once.
  RunResult Run();

  // Capture bounds (see the header comment): no snapshot before this many
  // interpreter steps — a short run has little to skip — and at most this
  // many per run.
  static constexpr int64_t kCaptureMinSteps = 10'000;
  static constexpr size_t kMaxSnapshots = 64;

 private:
  friend class RunScratch;
  friend struct RunScratch::Impl;
  friend class RunSnapshot;

  // --- Runtime exception values ---------------------------------------------
  struct ExcValue {
    ir::ExceptionTypeId type = ir::kInvalidId;
    ir::GlobalStmt origin;
    ir::FaultSiteId origin_site = ir::kInvalidId;
    bool injected = false;
    std::shared_ptr<ExcValue> cause;

    bool valid() const { return type != ir::kInvalidId; }
    const ExcValue& Root() const { return cause ? cause->Root() : *this; }
  };

  // Call frame of the flattened dispatch loop: a program counter into the
  // shared op array plus this frame's base offsets into the thread's
  // loop-iteration and caught-exception slot stacks.
  struct FlatFrame {
    int32_t pc = 0;
    ir::MethodId method = ir::kInvalidId;
    int64_t payload = 0;
    int32_t loop_base = 0;
    int32_t caught_base = 0;
  };

  struct Task {
    ir::MethodId method = ir::kInvalidId;
    int64_t payload = 0;
    int64_t future = -1;  // future completed when this task finishes
  };

  struct Thread {
    int32_t id = -1;
    int32_t node = -1;
    std::string name;
    std::deque<Task> queue;
    std::vector<FlatFrame> fstack;
    std::vector<int64_t> loop_iters;  // frame-relative loop slots
    std::vector<ExcValue> caughts;    // frame-relative caught slots
    int64_t current_future = -1;

    enum class State : uint8_t { kIdle, kBlocked, kDead };
    State state = State::kIdle;
    bool crashed = false;  // dead because its node crashed, not an exception

    enum class BlockKind : uint8_t { kNone, kAwait, kFuture, kSleep, kStall };
    BlockKind block_kind = BlockKind::kNone;
    ir::GlobalStmt blocked_at;
    uint64_t epoch = 0;  // stale-wakeup guard
    std::vector<ir::VarId> wait_vars;
    int64_t wait_future = -1;
    ir::ExceptionTypeId death_exception = ir::kInvalidId;
  };

  struct FutureState {
    bool done = false;
    ExcValue exception;  // invalid type = success
    std::vector<int32_t> waiters;
  };

  struct Event {
    int64_t time = 0;
    uint64_t seq = 0;
    enum class Kind : uint8_t { kDeliver, kWake, kTimer } kind = Kind::kDeliver;
    int32_t thread = -1;
    uint64_t epoch = 0;
    // Sending node for cross-node (kSend) deliveries; -1 for same-node work
    // (kSubmit, initial tasks), which never touches the network.
    int32_t src_node = -1;
    Task task;  // kDeliver

    bool operator>(const Event& other) const {
      if (time != other.time) {
        return time > other.time;
      }
      return seq > other.seq;
    }
  };

  // Heap entry for the event queue: the ordering key plus a slot index into
  // events_. Sifting moves these 16-byte refs instead of whole Events
  // (~64 bytes with an embedded Task). (time, seq) is a total order — seq is
  // unique per run and a run never pushes more than 2^32 events — so the pop
  // sequence is identical to heaping the Events themselves; determinism is
  // unaffected.
  struct EventRef {
    int64_t time = 0;
    uint32_t seq = 0;
    uint32_t slot = 0;

    bool operator>(const EventRef& other) const {
      if (time != other.time) {
        return time > other.time;
      }
      return seq > other.seq;
    }
  };

  enum class RaiseResult : uint8_t { kHandled, kTaskFailed, kThreadDied };

  // --- Core loop --------------------------------------------------------------
  void RunThreadFlat(Thread* thread);
  RaiseResult FlatRaise(Thread* thread, ExcValue exc);
  void HandleUncaught(Thread* thread, const ExcValue& exc);
  void ProcessWakeFlat(const Event& event);
  void PushFlatFrame(Thread* thread, ir::MethodId method, int64_t payload);
  void PopFlatFrame(Thread* thread);
  Thread* FlatThread(int32_t node, int32_t name_id);
  void EmitLogFlat(Thread* thread, const FlatFrame& frame, const ir::FlatOp& op);
  void PrepareFlatRun();
  // Run()'s two starting states: the initial task deliveries at step 0, or
  // a copy of start_.
  void PushInitialTasks();
  void Restore(const RunSnapshot& snapshot);
  // Takes a snapshot when one is due (called every 256 events while
  // capturing).
  void MaybeCapture();

  // --- Helpers ----------------------------------------------------------------
  int32_t NodeIndex(const std::string& name) const;
  Thread* GetThread(int32_t node, const std::string& name);
  // A thread object from the scratch pool (contents stale) or a fresh one.
  std::unique_ptr<Thread> NewThread();
  int64_t& EnvRef(int32_t node, ir::VarId var);
  int64_t EvalExprAt(int32_t node, int64_t payload, const ir::Expr& expr) const;
  bool EvalCondAt(int32_t node, const ir::Cond& cond) const;
  void EmitBuiltinLog(Thread* thread, ir::LogLevel level, const std::string& logger,
                      const std::string& message, ir::MethodId uncaught_method);
  // Returns the next log slot: a recycled entry (overwritten in place by the
  // caller — every field, or stale data leaks across runs) when one is
  // available, else a freshly appended one. Advances log_len_.
  LogEntry& NextLogEntry() {
    if (log_len_ < log_.size()) {
      return log_[log_len_++];
    }
    ++log_len_;
    return log_.emplace_back();
  }
  // Appends "<type> at <origin>[; caused by <cause type>]" for `exc` to `out`
  // (the " [exc=...]" suffix of log lines and uncaught-exception reports).
  void AppendExceptionDescription(std::string* out, const ExcValue& exc) const;
  void PushEvent(Event event);
  Event PopEvent();
  // Halts every thread on `node`: clears queues and stacks, bumps epochs so
  // pending wakes go stale, and marks the node crashed in the NetworkModel,
  // which drops in-flight messages to it (so crash and network faults
  // compose in one place; the event loop's dead-thread check remains as the
  // backstop for threads dead from uncaught exceptions).
  void CrashNode(int32_t node);
  void BlockThread(Thread* thread, Thread::BlockKind kind, ir::GlobalStmt at);
  void UnblockThread(Thread* thread);
  void WakeWaitersOf(int32_t node, ir::VarId var);
  void CompleteFuture(int64_t future_id, ExcValue exc);
  void ResetThread(Thread* thread);
  void BorrowScratch();
  void ReturnScratch();

  const ir::Program* program_;
  const ClusterSpec* spec_;
  FaultRuntime* fault_runtime_;
  const ir::FlatProgram* flat_ = nullptr;
  std::unique_ptr<ir::FlatProgram> owned_flat_;
  RunScratch* scratch_ = nullptr;
  uint64_t seed_ = 0;
  Rng rng_;
  NetworkModel network_;

  std::vector<std::string> node_names_;
  std::unordered_map<std::string, int32_t> node_index_;
  std::vector<std::vector<int64_t>> env_;  // [node][var]

  std::vector<std::unique_ptr<Thread>> threads_;
  std::unordered_map<std::string, int32_t> thread_index_;  // "node_idx/name"

  // (node * thread_name_count + name_id) -> thread id, lazily filled so hot
  // Send/Submit statements skip the string-keyed map.
  std::vector<int32_t> flat_threads_;
  // Per-FlatSend static target node index (-1 = dynamic target or unknown
  // node; unknown is CHECKed when the send executes).
  std::vector<int32_t> send_targets_;

  // (node, var) -> blocked waiter thread ids
  std::unordered_map<int64_t, std::vector<int32_t>> waiters_;

  std::vector<FutureState> futures_;  // futures_[0] unused; ids start at 1

  // Event queue: events_ is a slot store (recycled via free_event_slots_)
  // and event_heap_ is the min-heap of EventRefs ordered by (time, seq) (a
  // plain vector + push/pop_heap rather than priority_queue so the buffers
  // can be pooled).
  std::vector<Event> events_;
  std::vector<EventRef> event_heap_;
  std::vector<int32_t> free_event_slots_;
  uint64_t event_seq_ = 0;
  int64_t now_ = 0;
  int64_t steps_ = 0;

  // The run's log stream. log_len_ is the live count: entries past it are
  // recycled LogEntry shells from a previous run on the same scratch (their
  // strings keep their heap buffers; NextLogEntry reuses them in place).
  // Run() trims to log_len_ before moving the vector into the result.
  std::vector<LogEntry> log_;
  size_t log_len_ = 0;
  ir::ExceptionTypeId execution_exception_ = ir::kInvalidId;

  bool hit_time_limit_ = false;
  bool hit_step_limit_ = false;
  bool stall_fired_ = false;
  std::vector<int32_t> crashed_node_indices_;
  uint64_t events_processed_ = 0;
  bool ran_ = false;
  obs::MetricsRegistry* metrics_ = nullptr;

  // Capture state (set_capture): the sink (null once the prefix stops being
  // seed-free), the event count of the next snapshot and the stride between
  // snapshots, in events.
  std::vector<RunSnapshot>* capture_ = nullptr;
  uint64_t next_capture_ = 0;
  uint64_t capture_stride_ = 256;
  // Fork state (set_start) and the step the run was restored at.
  const RunSnapshot* start_ = nullptr;
  const std::vector<LogEntry>* start_log_ = nullptr;
  int64_t forked_at_step_ = 0;
};

// The state of a run at an event boundary of its seed-free prefix (see
// Simulator's header comment): every thread (frames, loop and caught slots,
// task queue, block state, epoch), the event store, heap and sequence
// counter, node variables, futures, condition waiters, the thread tables,
// the clocks and counters, crashed nodes, the network model and the fault
// runtime's progress. The log is kept once, by the capturing run, and the
// send-target table is not kept at all: every run derives it from the
// cluster spec. Immutable once captured, so several threads may fork from
// one snapshot at a time.
// Exception cause chains are shared with the capturing run: they are
// created whole by make_shared and never mutated.
class RunSnapshot {
 public:
  // Interpreter steps executed before the snapshot.
  int64_t steps() const { return steps_; }
  // Log entries emitted before the snapshot.
  size_t log_len() const { return log_len_; }
  // Per-site fault occurrence counts at the snapshot (index = FaultSiteId).
  const std::vector<int64_t>& occurrences() const { return fault_.occurrences; }
  // Approximate heap footprint, for reporting.
  size_t bytes() const;

 private:
  friend class Simulator;

  std::vector<Simulator::Thread> threads_;
  std::unordered_map<std::string, int32_t> thread_index_;
  std::vector<int32_t> flat_threads_;
  std::vector<std::vector<int64_t>> env_;
  std::unordered_map<int64_t, std::vector<int32_t>> waiters_;
  std::vector<Simulator::FutureState> futures_;
  std::vector<Simulator::Event> events_;
  std::vector<Simulator::EventRef> event_heap_;
  std::vector<int32_t> free_event_slots_;
  uint64_t event_seq_ = 0;
  int64_t now_ = 0;
  int64_t steps_ = 0;
  // One less than the capturing run's count: the snapshot sits before the
  // count of the event at the heap's top, which the fork counts again.
  uint64_t events_processed_ = 0;
  size_t log_len_ = 0;
  bool stall_fired_ = false;
  std::vector<int32_t> crashed_node_indices_;
  NetworkModel network_{0};
  FaultRuntime::Progress fault_;
};

}  // namespace anduril::interp

#endif  // ANDURIL_SRC_INTERP_SIMULATOR_H_
