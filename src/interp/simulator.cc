#include "src/interp/simulator.h"

#include <algorithm>
#include <charconv>

#include "src/obs/metrics.h"
#include "src/util/check.h"

namespace anduril::interp {

namespace {

int64_t WaiterKey(int32_t node, ir::VarId var) {
  return (static_cast<int64_t>(node) << 32) | static_cast<uint32_t>(var);
}

constexpr int64_t kWhileIterationCap = 1'000'000;

}  // namespace

// The pooled containers a RunScratch lends to its current Simulator. All are
// empty between runs but keep their heap allocations (vector capacity, hash
// buckets, recycled Thread objects).
struct RunScratch::Impl {
  std::vector<std::unique_ptr<Simulator::Thread>> thread_pool;
  std::vector<std::vector<int64_t>> env;
  std::vector<std::string> node_names;
  std::unordered_map<std::string, int32_t> node_index;
  std::vector<std::unique_ptr<Simulator::Thread>> threads;
  std::unordered_map<std::string, int32_t> thread_index;
  std::unordered_map<int64_t, std::vector<int32_t>> waiters;
  std::vector<Simulator::FutureState> futures;
  std::vector<Simulator::Event> events;
  std::vector<Simulator::EventRef> event_heap;
  std::vector<int32_t> free_event_slots;
  std::vector<int32_t> flat_threads;
  std::vector<int32_t> send_targets;
  // Sizing hints from previous runs on this worker: pre-reserving the log
  // avoids the growth reallocations that move every already-emitted entry
  // (four string moves each).
  size_t log_reserve = 0;
  // Buffers salvaged from consumed results via RunScratch::Recycle. The log
  // pool keeps its entries intact (not cleared) so the next run can
  // overwrite them in place, reusing each entry's string capacity.
  std::vector<LogEntry> log_pool;
  std::vector<FaultInstanceEvent> trace_pool;
};

void RunScratch::Recycle(RunResult&& result) {
  impl_->log_pool = std::move(result.log);
  // Deliberately not cleared: FaultRuntime::CopyTraceTo swaps this buffer in
  // as the next resident trace, and TraceAppend overwrites its elements in
  // place — keeping the size lets the append path skip growth entirely.
  impl_->trace_pool = std::move(result.trace);
}

RunScratch::RunScratch() : impl_(std::make_unique<Impl>()) {}
RunScratch::~RunScratch() = default;

Simulator::Simulator(const ir::Program* program, const ClusterSpec* spec, uint64_t seed,
                     FaultRuntime* fault_runtime, const ir::FlatProgram* flat,
                     RunScratch* scratch)
    : program_(program), spec_(spec), fault_runtime_(fault_runtime), flat_(flat),
      scratch_(scratch), seed_(seed), rng_(seed), network_(seed) {
  ANDURIL_CHECK(program_->finalized()) << "program must be finalized before execution";
  if (flat_ != nullptr) {
    ANDURIL_CHECK(flat_->program() == program_)
        << "FlatProgram was built from a different Program";
  }
  if (scratch_ != nullptr) {
    BorrowScratch();
  }
  execution_exception_ = program_->FindException("ExecutionException");
  futures_.emplace_back();  // index 0 unused

  for (const std::string& node : spec_->nodes) {
    ANDURIL_CHECK(node_index_.find(node) == node_index_.end()) << "duplicate node " << node;
    int32_t index = static_cast<int32_t>(node_names_.size());
    node_index_[node] = index;
    node_names_.push_back(node);
    if (static_cast<size_t>(index) < env_.size()) {
      env_[static_cast<size_t>(index)].assign(program_->var_count(), 0);
    } else {
      env_.emplace_back(program_->var_count(), 0);
    }
  }
  env_.resize(node_names_.size());
  for (const InitialValue& init : spec_->initial_values) {
    EnvRef(NodeIndex(init.node), init.var) = init.value;
  }
}

Simulator::~Simulator() = default;

void Simulator::BorrowScratch() {
  RunScratch::Impl& pool = *scratch_->impl_;
  env_ = std::move(pool.env);
  node_names_ = std::move(pool.node_names);
  node_names_.clear();
  node_index_ = std::move(pool.node_index);
  node_index_.clear();
  threads_ = std::move(pool.threads);
  threads_.clear();
  thread_index_ = std::move(pool.thread_index);
  thread_index_.clear();
  waiters_ = std::move(pool.waiters);
  // Empty the per-key waiter lists but keep the map nodes and the vectors'
  // capacity: an entry with an empty list behaves exactly like an absent one
  // (WakeWaitersOf walks nothing), and re-blocking threads in the next run
  // appends into the retained storage instead of re-allocating it.
  for (auto& entry : waiters_) {
    entry.second.clear();
  }
  futures_ = std::move(pool.futures);
  futures_.clear();
  events_ = std::move(pool.events);
  events_.clear();
  event_heap_ = std::move(pool.event_heap);
  event_heap_.clear();
  free_event_slots_ = std::move(pool.free_event_slots);
  free_event_slots_.clear();
  flat_threads_ = std::move(pool.flat_threads);
  send_targets_ = std::move(pool.send_targets);
  // Recycled entries (if any) are reused in place via NextLogEntry;
  // log_len_ starts at 0 so they are overwritten before being re-exposed.
  log_ = std::move(pool.log_pool);
  log_.reserve(pool.log_reserve);
}

void Simulator::ReturnScratch() {
  RunScratch::Impl& pool = *scratch_->impl_;
  for (auto& thread : threads_) {
    pool.thread_pool.push_back(std::move(thread));
  }
  threads_.clear();
  pool.threads = std::move(threads_);
  pool.env = std::move(env_);
  pool.node_names = std::move(node_names_);
  pool.node_index = std::move(node_index_);
  pool.thread_index = std::move(thread_index_);
  pool.waiters = std::move(waiters_);
  pool.futures = std::move(futures_);
  pool.events = std::move(events_);
  pool.event_heap = std::move(event_heap_);
  pool.free_event_slots = std::move(free_event_slots_);
  pool.flat_threads = std::move(flat_threads_);
  pool.send_targets = std::move(send_targets_);
}

void Simulator::ResetThread(Thread* thread) {
  thread->id = -1;
  thread->node = -1;
  thread->name.clear();
  thread->queue.clear();
  thread->fstack.clear();
  thread->loop_iters.clear();
  thread->caughts.clear();
  thread->current_future = -1;
  thread->state = Thread::State::kIdle;
  thread->crashed = false;
  thread->block_kind = Thread::BlockKind::kNone;
  thread->blocked_at = ir::GlobalStmt{};
  thread->epoch = 0;
  thread->wait_vars.clear();
  thread->wait_future = -1;
  thread->death_exception = ir::kInvalidId;
}

int32_t Simulator::NodeIndex(const std::string& name) const {
  auto it = node_index_.find(name);
  ANDURIL_CHECK(it != node_index_.end()) << "unknown node " << name;
  return it->second;
}

Simulator::Thread* Simulator::GetThread(int32_t node, const std::string& name) {
  std::string key = std::to_string(node);
  key += '/';
  key += name;
  auto it = thread_index_.find(key);
  if (it != thread_index_.end()) {
    return threads_[static_cast<size_t>(it->second)].get();
  }
  std::unique_ptr<Thread> thread = NewThread();
  ResetThread(thread.get());
  thread->id = static_cast<int32_t>(threads_.size());
  thread->node = node;
  thread->name = name;
  for (int32_t crashed : crashed_node_indices_) {
    if (crashed == node) {
      // A handler spawned on an already-crashed node (e.g. by a message sent
      // from a live node) is born dead; deliveries to it are dropped.
      thread->state = Thread::State::kDead;
      thread->crashed = true;
      break;
    }
  }
  thread_index_[key] = thread->id;
  threads_.push_back(std::move(thread));
  return threads_.back().get();
}

std::unique_ptr<Simulator::Thread> Simulator::NewThread() {
  if (scratch_ == nullptr || scratch_->impl_->thread_pool.empty()) {
    return std::make_unique<Thread>();
  }
  std::unique_ptr<Thread> thread = std::move(scratch_->impl_->thread_pool.back());
  scratch_->impl_->thread_pool.pop_back();
  return thread;
}

int64_t& Simulator::EnvRef(int32_t node, ir::VarId var) {
  ANDURIL_CHECK_GE(var, 0);
  ANDURIL_CHECK_LT(static_cast<size_t>(var), env_[static_cast<size_t>(node)].size());
  return env_[static_cast<size_t>(node)][static_cast<size_t>(var)];
}

void Simulator::PushEvent(Event event) {
  event.seq = ++event_seq_;
  EventRef ref{event.time, static_cast<uint32_t>(event.seq), 0};
  if (!free_event_slots_.empty()) {
    ref.slot = static_cast<uint32_t>(free_event_slots_.back());
    free_event_slots_.pop_back();
    events_[ref.slot] = std::move(event);
  } else {
    ref.slot = static_cast<uint32_t>(events_.size());
    events_.push_back(std::move(event));
  }
  // Hand-rolled sift-up: the heap is small and hot, and the open-coded loop
  // (plain loads and 16-byte stores) beats the iterator-generic
  // std::push_heap instantiation.
  event_heap_.push_back(ref);
  EventRef* heap = event_heap_.data();
  size_t index = event_heap_.size() - 1;
  while (index > 0) {
    size_t parent = (index - 1) / 2;
    if (!(heap[parent] > ref)) {
      break;
    }
    heap[index] = heap[parent];
    index = parent;
  }
  heap[index] = ref;
}

Simulator::Event Simulator::PopEvent() {
  EventRef* heap = event_heap_.data();
  uint32_t slot = heap[0].slot;
  free_event_slots_.push_back(static_cast<int32_t>(slot));
  // Hand-rolled sift-down of the last ref into the root hole.
  EventRef last = event_heap_.back();
  event_heap_.pop_back();
  size_t size = event_heap_.size();
  if (size > 0) {
    size_t index = 0;
    for (;;) {
      size_t child = 2 * index + 1;
      if (child >= size) {
        break;
      }
      if (child + 1 < size && heap[child] > heap[child + 1]) {
        ++child;
      }
      if (!(last > heap[child])) {
        break;
      }
      heap[index] = heap[child];
      index = child;
    }
    heap[index] = last;
  }
  return std::move(events_[slot]);
}

void Simulator::AppendExceptionDescription(std::string* out, const ExcValue& exc) const {
  const ExcValue& root = exc.Root();
  *out += program_->exception_type(exc.type).name;
  *out += " at ";
  if (root.origin_site != ir::kInvalidId) {
    *out += program_->fault_site(root.origin_site).name;
  } else if (root.origin.method != ir::kInvalidId) {
    *out += program_->method(root.origin.method).name;
    *out += '#';
    char digits[16];
    auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), root.origin.stmt);
    out->append(digits, static_cast<size_t>(end - digits));
  } else {
    *out += "unknown";
  }
  if (exc.cause != nullptr) {
    *out += "; caused by ";
    *out += program_->exception_type(exc.cause->type).name;
  }
}

void Simulator::EmitBuiltinLog(Thread* thread, ir::LogLevel level, const std::string& logger,
                               const std::string& message, ir::MethodId uncaught_method) {
  LogEntry entry;
  entry.time_ms = now_;
  entry.log_clock = static_cast<int64_t>(log_len_);
  entry.node = node_names_[static_cast<size_t>(thread->node)];
  entry.thread = thread->name;
  entry.level = level;
  entry.logger = logger;
  entry.message = message;
  entry.uncaught_method = uncaught_method;
  NextLogEntry() = std::move(entry);
}

void Simulator::BlockThread(Thread* thread, Thread::BlockKind kind, ir::GlobalStmt at) {
  thread->state = Thread::State::kBlocked;
  thread->block_kind = kind;
  thread->blocked_at = at;
  ++thread->epoch;
}

void Simulator::UnblockThread(Thread* thread) {
  // Deregister condition waits.
  for (ir::VarId var : thread->wait_vars) {
    auto it = waiters_.find(WaiterKey(thread->node, var));
    if (it != waiters_.end()) {
      auto& list = it->second;
      list.erase(std::remove(list.begin(), list.end(), thread->id), list.end());
    }
  }
  thread->wait_vars.clear();
  thread->wait_future = -1;
  thread->block_kind = Thread::BlockKind::kNone;
  thread->state = Thread::State::kIdle;  // transiently; RunThread resumes it
  ++thread->epoch;                       // invalidate pending timers/wakes
}

void Simulator::WakeWaitersOf(int32_t node, ir::VarId var) {
  auto it = waiters_.find(WaiterKey(node, var));
  if (it == waiters_.end()) {
    return;
  }
  for (int32_t thread_id : it->second) {
    const Thread& thread = *threads_[static_cast<size_t>(thread_id)];
    Event event;
    event.time = now_;
    event.kind = Event::Kind::kWake;
    event.thread = thread_id;
    event.epoch = thread.epoch;
    PushEvent(event);
  }
}

void Simulator::CompleteFuture(int64_t future_id, ExcValue exc) {
  ANDURIL_CHECK_GT(future_id, 0);
  ANDURIL_CHECK_LT(static_cast<size_t>(future_id), futures_.size());
  FutureState& future = futures_[static_cast<size_t>(future_id)];
  ANDURIL_CHECK(!future.done) << "future completed twice";
  future.done = true;
  future.exception = std::move(exc);
  for (int32_t thread_id : future.waiters) {
    const Thread& thread = *threads_[static_cast<size_t>(thread_id)];
    Event event;
    event.time = now_;
    event.kind = Event::Kind::kWake;
    event.thread = thread_id;
    event.epoch = thread.epoch;
    PushEvent(event);
  }
  future.waiters.clear();
}

void Simulator::HandleUncaught(Thread* thread, const ExcValue& exc) {
  ir::MethodId method = exc.origin.method;
  std::string message = "Uncaught exception terminating thread: ";
  message += program_->exception_type(exc.type).name;
  message += " [exc=";
  AppendExceptionDescription(&message, exc);
  message += ']';
  EmitBuiltinLog(thread, ir::LogLevel::kError, "thread", message, method);
  thread->state = Thread::State::kDead;
  thread->death_exception = exc.type;
  thread->queue.clear();
  thread->fstack.clear();
  thread->loop_iters.clear();
  thread->caughts.clear();
}

// --- Flattened execution ----------------------------------------------------

int64_t Simulator::EvalExprAt(int32_t node, int64_t payload, const ir::Expr& expr) const {
  const std::vector<int64_t>& env = env_[static_cast<size_t>(node)];
  switch (expr.kind) {
    case ir::ExprKind::kConst:
      return expr.constant;
    case ir::ExprKind::kVar:
      return env[static_cast<size_t>(expr.var)];
    case ir::ExprKind::kPayload:
      return payload;
    case ir::ExprKind::kAdd:
      return env[static_cast<size_t>(expr.var)] + expr.constant;
    case ir::ExprKind::kSub:
      return env[static_cast<size_t>(expr.var)] - expr.constant;
    case ir::ExprKind::kAddVar:
      return env[static_cast<size_t>(expr.var)] + env[static_cast<size_t>(expr.var2)];
  }
  ANDURIL_UNREACHABLE();
}

bool Simulator::EvalCondAt(int32_t node, const ir::Cond& cond) const {
  if (cond.IsTrue()) {
    return true;
  }
  const std::vector<int64_t>& env = env_[static_cast<size_t>(node)];
  int64_t lhs = env[static_cast<size_t>(cond.lhs)];
  int64_t rhs = cond.rhs_is_var ? env[static_cast<size_t>(cond.rhs_var)] : cond.rhs_const;
  return cond.Evaluate(lhs, rhs);
}

void Simulator::PushFlatFrame(Thread* thread, ir::MethodId method, int64_t payload) {
  const ir::FlatMethod& flat_method = flat_->flat_method(method);
  FlatFrame frame;
  frame.pc = flat_method.entry;
  frame.method = method;
  frame.payload = payload;
  frame.loop_base = static_cast<int32_t>(thread->loop_iters.size());
  frame.caught_base = static_cast<int32_t>(thread->caughts.size());
  thread->loop_iters.resize(thread->loop_iters.size() +
                            static_cast<size_t>(flat_method.loop_slots));
  thread->caughts.resize(thread->caughts.size() +
                         static_cast<size_t>(flat_method.caught_slots));
  thread->fstack.push_back(frame);
}

void Simulator::PopFlatFrame(Thread* thread) {
  const FlatFrame& frame = thread->fstack.back();
  thread->loop_iters.resize(static_cast<size_t>(frame.loop_base));
  thread->caughts.resize(static_cast<size_t>(frame.caught_base));
  thread->fstack.pop_back();
}

Simulator::Thread* Simulator::FlatThread(int32_t node, int32_t name_id) {
  int32_t& slot = flat_threads_[static_cast<size_t>(node) * flat_->thread_name_count() +
                                static_cast<size_t>(name_id)];
  if (slot < 0) {
    slot = GetThread(node, flat_->thread_name(name_id))->id;
  }
  return threads_[static_cast<size_t>(slot)].get();
}

void Simulator::EmitLogFlat(Thread* thread, const FlatFrame& frame, const ir::FlatOp& op) {
  const ir::FlatLog& info = flat_->log(op.aux);
  // Every field is (re)assigned: the entry may be a recycled shell from a
  // previous run, and the string assignments reuse its heap buffers.
  LogEntry& entry = NextLogEntry();
  entry.time_ms = now_;
  entry.log_clock = static_cast<int64_t>(log_len_) - 1;
  entry.node = node_names_[static_cast<size_t>(thread->node)];
  entry.thread = thread->name;
  entry.level = info.level;
  entry.logger = info.logger;
  entry.tmpl = info.tmpl;
  entry.source = op.source;
  entry.uncaught_method = ir::kInvalidId;
  size_t placeholders = info.segments.size() - 1;
  if (placeholders == 0 && !info.attach_exception) {
    // Constant template: one string copy, no assembly.
    entry.message = info.segments[0];
    return;
  }
  std::string& message = entry.message;
  message.clear();
  message.reserve(info.text_size + 16);
  message += info.segments[0];
  for (size_t k = 0; k < placeholders; ++k) {
    int64_t value =
        k < info.args.size() ? EvalExprAt(thread->node, frame.payload, info.args[k]) : 0;
    char digits[24];
    auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), value);
    message.append(digits, static_cast<size_t>(end - digits));
    message += info.segments[k + 1];
  }
  if (info.attach_exception && op.caught_slot >= 0) {
    const ExcValue& caught =
        thread->caughts[static_cast<size_t>(frame.caught_base + op.caught_slot)];
    if (caught.valid()) {
      message += " [exc=";
      AppendExceptionDescription(&message, caught);
      message += ']';
    }
  }
}

Simulator::RaiseResult Simulator::FlatRaise(Thread* thread, ExcValue exc) {
  const std::vector<ir::FlatOp>& ops = flat_->ops();
  while (!thread->fstack.empty()) {
    FlatFrame& frame = thread->fstack.back();
    int32_t handler_id = ops[static_cast<size_t>(frame.pc)].handler;
    while (handler_id >= 0) {
      const ir::FlatHandler& handler = flat_->handler(handler_id);
      for (const ir::FlatCatchClause& clause : handler.clauses) {
        if (program_->ExceptionIsA(exc.type, clause.type)) {
          thread->caughts[static_cast<size_t>(frame.caught_base + handler.caught_slot)] =
              std::move(exc);
          frame.pc = clause.target;
          return RaiseResult::kHandled;
        }
      }
      handler_id = handler.parent;
    }
    PopFlatFrame(thread);
  }
  // Escaped the task root.
  if (thread->current_future > 0) {
    CompleteFuture(thread->current_future, std::move(exc));
    thread->current_future = -1;
    return RaiseResult::kTaskFailed;
  }
  HandleUncaught(thread, exc);
  return RaiseResult::kThreadDied;
}

void Simulator::PrepareFlatRun() {
  if (flat_ == nullptr) {
    // No shared FlatProgram supplied (direct Simulator users, Replay): lower
    // privately. Linear in program size, negligible next to a run.
    owned_flat_ = std::make_unique<ir::FlatProgram>(*program_);
    flat_ = owned_flat_.get();
  }
  flat_threads_.assign(node_names_.size() * flat_->thread_name_count(), -1);
  send_targets_.clear();
  send_targets_.reserve(flat_->send_count());
  for (size_t i = 0; i < flat_->send_count(); ++i) {
    const ir::FlatSend& send = flat_->send(i);
    if (send.target_index_var != ir::kInvalidId) {
      send_targets_.push_back(-1);  // dynamic target, resolved per execution
      continue;
    }
    auto it = node_index_.find(send.target_node);
    // Unknown static targets stay -1; the CHECK fires only if the send
    // actually executes.
    send_targets_.push_back(it == node_index_.end() ? -1 : it->second);
  }
}

// Direct-threaded dispatch loop. Each label is one interpreter *step* (the
// accounting flatten.h documents); the shared `dispatch` point does the
// per-step bookkeeping (dead/idle checks, task pull, step limit)
// and then jumps straight to the opcode's body via a computed goto
// (GCC/Clang) or a dense switch. Every body ends in ANDURIL_NEXT() or
// `return`; control never falls through between labels.
#if defined(__GNUC__) || defined(__clang__)
#define ANDURIL_COMPUTED_GOTO 1
#else
#define ANDURIL_COMPUTED_GOTO 0
#endif

void Simulator::RunThreadFlat(Thread* thread) {
  const ir::FlatOp* const ops = flat_->ops().data();
  int64_t* const env = env_[static_cast<size_t>(thread->node)].data();
  FlatFrame* frame;
  const ir::FlatOp* op;

  auto eval = [&](const ir::Expr& e, int64_t payload) -> int64_t {
    switch (e.kind) {
      case ir::ExprKind::kConst:
        return e.constant;
      case ir::ExprKind::kVar:
        return env[e.var];
      case ir::ExprKind::kPayload:
        return payload;
      case ir::ExprKind::kAdd:
        return env[e.var] + e.constant;
      case ir::ExprKind::kSub:
        return env[e.var] - e.constant;
      case ir::ExprKind::kAddVar:
        return env[e.var] + env[e.var2];
    }
    ANDURIL_UNREACHABLE();
  };
  auto test = [&](const ir::Cond& c) -> bool {
    if (c.op == ir::CmpOp::kTrue) {
      return true;
    }
    int64_t lhs = env[c.lhs];
    int64_t rhs = c.rhs_is_var ? env[c.rhs_var] : c.rhs_const;
    switch (c.op) {
      case ir::CmpOp::kEq:
        return lhs == rhs;
      case ir::CmpOp::kNe:
        return lhs != rhs;
      case ir::CmpOp::kLt:
        return lhs < rhs;
      case ir::CmpOp::kLe:
        return lhs <= rhs;
      case ir::CmpOp::kGt:
        return lhs > rhs;
      case ir::CmpOp::kGe:
        return lhs >= rhs;
      case ir::CmpOp::kTrue:
        break;
    }
    ANDURIL_UNREACHABLE();
  };

#if ANDURIL_COMPUTED_GOTO
  // Indexed by OpCode; must match the enum order in flatten.h.
  static const void* const kDispatchTable[ir::kOpCodeCount] = {
      &&op_nop,        &&op_jump,       &&op_assign,     &&op_log,
      &&op_branch,     &&op_loop_enter, &&op_loop_back,  &&op_invoke,
      &&op_throw,      &&op_rethrow,    &&op_external,   &&op_await,
      &&op_signal,     &&op_send,       &&op_submit,     &&op_future_get,
      &&op_sleep,      &&op_return};
#define ANDURIL_OP(code, label) label:
#else
#define ANDURIL_OP(code, label) case ir::OpCode::code:
#endif
#define ANDURIL_NEXT() goto dispatch

dispatch:
  if (thread->state == Thread::State::kDead) {
    return;
  }
  if (thread->fstack.empty()) {
    if (thread->queue.empty()) {
      thread->state = Thread::State::kIdle;
      return;
    }
    Task task = thread->queue.front();
    thread->queue.pop_front();
    thread->current_future = task.future;
    PushFlatFrame(thread, task.method, task.payload);
  }
  if (++steps_ > spec_->step_limit) {
    hit_step_limit_ = true;
    return;
  }
  // Re-acquired every step: op bodies may push frames (fstack realloc).
  frame = &thread->fstack.back();
  op = ops + frame->pc;
#if ANDURIL_COMPUTED_GOTO
  goto* kDispatchTable[static_cast<size_t>(op->code)];
#else
  switch (op->code) {
#endif

  ANDURIL_OP(kNop, op_nop) {
    ++frame->pc;
    ANDURIL_NEXT();
  }

  ANDURIL_OP(kJump, op_jump) {
    frame->pc = op->target;
    ANDURIL_NEXT();
  }

  ANDURIL_OP(kAssign, op_assign) {
    env[op->var] = eval(op->expr, frame->payload);
    ++frame->pc;
    ANDURIL_NEXT();
  }

  ANDURIL_OP(kLog, op_log) {
    EmitLogFlat(thread, *frame, *op);
    ++frame->pc;
    ANDURIL_NEXT();
  }

  ANDURIL_OP(kBranch, op_branch) {
    frame->pc = test(op->cond) ? op->target : op->target2;
    ANDURIL_NEXT();
  }

  ANDURIL_OP(kLoopEnter, op_loop_enter) {
    if (test(op->cond)) {
      thread->loop_iters[static_cast<size_t>(frame->loop_base + op->loop_slot)] = 1;
      ++frame->pc;
    } else {
      frame->pc = op->target;
    }
    ANDURIL_NEXT();
  }

  ANDURIL_OP(kLoopBack, op_loop_back) {
    if (test(op->cond)) {
      int64_t& iter =
          thread->loop_iters[static_cast<size_t>(frame->loop_base + op->loop_slot)];
      ANDURIL_CHECK_LT(iter, kWhileIterationCap)
          << "runaway loop in " << program_->method(op->source.method).name;
      ++iter;
      frame->pc = op->target;
    } else {
      ++frame->pc;
    }
    ANDURIL_NEXT();
  }

  ANDURIL_OP(kInvoke, op_invoke) {
    // Caller pc stays on the kInvoke; the callee's kReturn advances it.
    PushFlatFrame(thread, op->callee, frame->payload);
    ANDURIL_NEXT();
  }

  ANDURIL_OP(kThrow, op_throw) {
    ExcValue exc;
    exc.type = op->exception_type;
    exc.origin = op->source;
    exc.origin_site = op->site;
    FlatRaise(thread, std::move(exc));
    ANDURIL_NEXT();
  }

  ANDURIL_OP(kRethrow, op_rethrow) {
    ANDURIL_CHECK_GE(op->caught_slot, 0) << "rethrow with no in-flight exception";
    ExcValue exc = thread->caughts[static_cast<size_t>(frame->caught_base + op->caught_slot)];
    ANDURIL_CHECK(exc.valid()) << "rethrow with no in-flight exception";
    FlatRaise(thread, std::move(exc));
    ANDURIL_NEXT();
  }

  ANDURIL_OP(kExternalCall, op_external) {
    FaultAction action = fault_runtime_->OnExternalCallFast(
        op->site, op->exception_type, op->transient_every_n,
        static_cast<int64_t>(log_len_), now_, thread->id);
    if (!action.fired && action.exception == ir::kInvalidId) {
      ++frame->pc;
      ANDURIL_NEXT();
    }
    if (action.fired && action.kind == FaultKind::kCrash) {
      // The node halts at this call. No log line, no exception: the
      // per-thread log is simply truncated here, like a killed process.
      CrashNode(thread->node);
      return;
    }
    if (action.fired && action.kind == FaultKind::kStall) {
      // The call never returns. No wake event is scheduled, so the thread
      // stays wedged until the run's budget expires.
      BlockThread(thread, Thread::BlockKind::kStall, op->source);
      stall_fired_ = true;
      return;
    }
    ExcValue exc;
    exc.type = action.exception;
    exc.origin = op->source;
    exc.origin_site = op->site;
    exc.injected = action.injected;
    FlatRaise(thread, std::move(exc));
    ANDURIL_NEXT();
  }

  ANDURIL_OP(kAwait, op_await) {
    if (test(op->cond)) {
      ++frame->pc;
      ANDURIL_NEXT();
    }
    BlockThread(thread, Thread::BlockKind::kAwait, op->source);
    op->cond.CollectReads(&thread->wait_vars);
    for (ir::VarId var : thread->wait_vars) {
      waiters_[WaiterKey(thread->node, var)].push_back(thread->id);
    }
    if (op->timeout_ms >= 0) {
      Event event;
      event.time = now_ + op->timeout_ms;
      event.kind = Event::Kind::kTimer;
      event.thread = thread->id;
      event.epoch = thread->epoch;
      PushEvent(event);
    }
    return;
  }

  ANDURIL_OP(kSignal, op_signal) {
    WakeWaitersOf(thread->node, op->var);
    ++frame->pc;
    ANDURIL_NEXT();
  }

  ANDURIL_OP(kSend, op_send) {
    const ir::FlatSend& send = flat_->send(op->aux);
    FaultAction action = fault_runtime_->OnSendFast(
        op->site, static_cast<int64_t>(log_len_), now_, thread->id);
    int32_t target_node;
    if (send.target_index_var != ir::kInvalidId) {
      std::string target = send.target_node + std::to_string(env[send.target_index_var]);
      target_node = NodeIndex(target);
    } else {
      target_node = send_targets_[static_cast<size_t>(op->aux)];
      ANDURIL_CHECK_GE(target_node, 0) << "unknown node " << send.target_node;
    }
    Thread* target_thread = FlatThread(target_node, send.handler_name);
    network_.OnMessageSent();
    Event event;
    // The jitter draw stays unconditional so a fired network fault never
    // shifts the rng stream of the rest of the run.
    event.time = now_ + send.latency_ms + static_cast<int64_t>(rng_.NextBelow(2));
    event.kind = Event::Kind::kDeliver;
    event.thread = target_thread->id;
    event.src_node = thread->node;
    event.task = Task{send.callee, eval(op->expr, frame->payload), -1};
    bool duplicate = false;
    if (action.fired) {
      switch (action.kind) {
        case FaultKind::kDrop:
          network_.DropMessage();
          ++frame->pc;  // the message vanishes silently
          ANDURIL_NEXT();
        case FaultKind::kDelay:
          event.time += network_.DelayFor(op->site, action.occurrence, spec_->network_delay_ms);
          break;
        case FaultKind::kDuplicate:
          network_.DuplicateMessage();
          duplicate = true;
          break;
        case FaultKind::kPartition:
          // Severs the pair; the triggering message is then swallowed by
          // the severed-pair check below, like everything after it.
          network_.Sever(thread->node, target_node, now_, spec_->partition_heal_ms);
          break;
        default:
          ANDURIL_UNREACHABLE();  // OnSendFast only fires network kinds
      }
    }
    if (network_.SeveredDrop(thread->node, target_node, now_)) {
      ++frame->pc;
      ANDURIL_NEXT();
    }
    PushEvent(event);
    if (duplicate) {
      PushEvent(event);  // same delivery time, later seq
    }
    ++frame->pc;
    ANDURIL_NEXT();
  }

  ANDURIL_OP(kSubmit, op_submit) {
    futures_.emplace_back();
    int64_t future_id = static_cast<int64_t>(futures_.size()) - 1;
    env[op->var] = future_id;
    Thread* executor = FlatThread(thread->node, op->thread_name);
    Event event;
    event.time = now_;
    event.kind = Event::Kind::kDeliver;
    event.thread = executor->id;
    event.task = Task{op->callee, eval(op->expr, frame->payload), future_id};
    PushEvent(event);
    ++frame->pc;
    ANDURIL_NEXT();
  }

  ANDURIL_OP(kFutureGet, op_future_get) {
    int64_t future_id = env[op->var];
    ANDURIL_CHECK_GT(future_id, 0)
        << "FutureGet before Submit in " << program_->method(op->source.method).name;
    ANDURIL_CHECK_LT(static_cast<size_t>(future_id), futures_.size());
    FutureState& future = futures_[static_cast<size_t>(future_id)];
    if (future.done) {
      if (!future.exception.valid()) {
        ++frame->pc;
        ANDURIL_NEXT();
      }
      ANDURIL_CHECK_NE(execution_exception_, ir::kInvalidId)
          << "program uses futures but does not define ExecutionException";
      ExcValue exc;
      exc.type = execution_exception_;
      exc.origin = op->source;
      exc.cause = std::make_shared<ExcValue>(future.exception);
      exc.injected = future.exception.injected;
      FlatRaise(thread, std::move(exc));
      ANDURIL_NEXT();
    }
    BlockThread(thread, Thread::BlockKind::kFuture, op->source);
    thread->wait_future = future_id;
    future.waiters.push_back(thread->id);
    if (op->timeout_ms >= 0) {
      Event event;
      event.time = now_ + op->timeout_ms;
      event.kind = Event::Kind::kTimer;
      event.thread = thread->id;
      event.epoch = thread->epoch;
      PushEvent(event);
    }
    return;
  }

  ANDURIL_OP(kSleep, op_sleep) {
    BlockThread(thread, Thread::BlockKind::kSleep, op->source);
    Event event;
    event.time = now_ + op->sleep_ms;
    event.kind = Event::Kind::kTimer;
    event.thread = thread->id;
    event.epoch = thread->epoch;
    PushEvent(event);
    return;
  }

  ANDURIL_OP(kReturn, op_return) {
    PopFlatFrame(thread);
    if (thread->fstack.empty()) {
      if (thread->current_future > 0) {
        CompleteFuture(thread->current_future, ExcValue{});
        thread->current_future = -1;
      }
    } else {
      ++thread->fstack.back().pc;
    }
    ANDURIL_NEXT();
  }

#if !ANDURIL_COMPUTED_GOTO
  }
  ANDURIL_UNREACHABLE();
#endif
#undef ANDURIL_OP
#undef ANDURIL_NEXT
}

void Simulator::ProcessWakeFlat(const Event& event) {
  Thread* thread = threads_[static_cast<size_t>(event.thread)].get();
  if (thread->state != Thread::State::kBlocked || event.epoch != thread->epoch) {
    return;  // stale wake
  }
  ANDURIL_CHECK(!thread->fstack.empty());
  // The blocked thread's pc still points at the blocking op.
  const ir::FlatOp& op = flat_->ops()[static_cast<size_t>(thread->fstack.back().pc)];

  auto resume = [&]() {
    UnblockThread(thread);
    ++thread->fstack.back().pc;
    RunThreadFlat(thread);
  };
  auto raise_here = [&](ExcValue exc) {
    UnblockThread(thread);
    FlatRaise(thread, std::move(exc));
    RunThreadFlat(thread);
  };

  switch (thread->block_kind) {
    case Thread::BlockKind::kAwait: {
      if (event.kind == Event::Kind::kTimer) {
        // Timeout elapsed; condition still unsatisfied (a satisfied one
        // would have unblocked us via a signal wake).
        if (EvalCondAt(thread->node, op.cond)) {
          resume();
          return;
        }
        if (op.exception_type != ir::kInvalidId) {
          ExcValue exc;
          exc.type = op.exception_type;
          exc.origin = op.source;
          exc.origin_site = op.site;
          raise_here(std::move(exc));
          return;
        }
        resume();
        return;
      }
      // Signal wake: re-check the condition.
      if (EvalCondAt(thread->node, op.cond)) {
        resume();
      }
      // else: spurious wake; stay blocked (epoch unchanged, timer intact).
      return;
    }

    case Thread::BlockKind::kFuture: {
      if (event.kind == Event::Kind::kTimer) {
        if (op.exception_type != ir::kInvalidId) {
          ExcValue exc;
          exc.type = op.exception_type;
          exc.origin = op.source;
          exc.origin_site = op.site;
          raise_here(std::move(exc));
          return;
        }
        resume();
        return;
      }
      FutureState& future = futures_[static_cast<size_t>(thread->wait_future)];
      ANDURIL_CHECK(future.done);
      if (future.exception.valid()) {
        ANDURIL_CHECK_NE(execution_exception_, ir::kInvalidId);
        ExcValue exc;
        exc.type = execution_exception_;
        exc.origin = op.source;
        exc.cause = std::make_shared<ExcValue>(future.exception);
        exc.injected = future.exception.injected;
        raise_here(std::move(exc));
        return;
      }
      resume();
      return;
    }

    case Thread::BlockKind::kSleep:
      resume();
      return;

    case Thread::BlockKind::kStall:
      return;  // a stalled call never wakes

    case Thread::BlockKind::kNone:
      ANDURIL_UNREACHABLE();
  }
}

void Simulator::CrashNode(int32_t node) {
  crashed_node_indices_.push_back(node);
  network_.MarkCrashed(node);
  for (auto& thread : threads_) {
    if (thread->node != node || thread->state == Thread::State::kDead) {
      continue;
    }
    thread->state = Thread::State::kDead;
    thread->crashed = true;
    thread->block_kind = Thread::BlockKind::kNone;
    ++thread->epoch;  // pending wakes/timers for this thread go stale
    thread->queue.clear();
    thread->fstack.clear();
    thread->loop_iters.clear();
    thread->caughts.clear();
  }
}

void Simulator::PushInitialTasks() {
  for (const InitialTask& task : spec_->tasks) {
    Thread* thread = GetThread(NodeIndex(task.node), task.thread);
    Event event;
    event.time = task.start_ms;
    event.kind = Event::Kind::kDeliver;
    event.thread = thread->id;
    event.task = Task{task.method, task.payload, -1};
    PushEvent(event);
  }
}

void Simulator::Restore(const RunSnapshot& snapshot) {
  // Copy-assignment into the borrowed scratch containers keeps their
  // capacity, as a from-scratch run's in-place growth does.
  for (const Thread& saved : snapshot.threads_) {
    std::unique_ptr<Thread> thread = NewThread();
    *thread = saved;
    threads_.push_back(std::move(thread));
  }
  thread_index_ = snapshot.thread_index_;
  flat_threads_ = snapshot.flat_threads_;
  env_ = snapshot.env_;
  waiters_ = snapshot.waiters_;
  futures_ = snapshot.futures_;
  events_ = snapshot.events_;
  event_heap_ = snapshot.event_heap_;
  free_event_slots_ = snapshot.free_event_slots_;
  event_seq_ = snapshot.event_seq_;
  now_ = snapshot.now_;
  steps_ = snapshot.steps_;
  events_processed_ = snapshot.events_processed_;
  stall_fired_ = snapshot.stall_fired_;
  crashed_node_indices_ = snapshot.crashed_node_indices_;
  network_.RestoreFrom(snapshot.network_);
  fault_runtime_->RestoreProgress(snapshot.fault_);
  // The log prefix, overwritten into recycled shells where there are some.
  for (size_t i = 0; i < snapshot.log_len_; ++i) {
    NextLogEntry() = (*start_log_)[i];
  }
  forked_at_step_ = snapshot.steps_;
}

void Simulator::MaybeCapture() {
  // Past the first draw from the seed the state depends on it: stop for good.
  if (!(rng_ == Rng(seed_)) || network_.seed_drawn()) {
    capture_ = nullptr;
    return;
  }
  if (steps_ < kCaptureMinSteps || events_processed_ < next_capture_) {
    return;
  }
  if (capture_->size() == kMaxSnapshots) {
    // Full: keep every other snapshot and double the stride, so the kept
    // ones (and the ones to come) stay evenly spaced.
    size_t kept = 1;
    for (size_t i = 2; i < capture_->size(); i += 2) {
      (*capture_)[kept++] = std::move((*capture_)[i]);
    }
    capture_->resize(kept);
    capture_stride_ *= 2;
  }
  RunSnapshot& snapshot = capture_->emplace_back();
  snapshot.threads_.reserve(threads_.size());
  for (const auto& thread : threads_) {
    snapshot.threads_.push_back(*thread);
  }
  snapshot.thread_index_ = thread_index_;
  snapshot.flat_threads_ = flat_threads_;
  snapshot.env_ = env_;
  snapshot.waiters_ = waiters_;
  snapshot.futures_ = futures_;
  snapshot.events_ = events_;
  snapshot.event_heap_ = event_heap_;
  snapshot.free_event_slots_ = free_event_slots_;
  snapshot.event_seq_ = event_seq_;
  snapshot.now_ = now_;
  snapshot.steps_ = steps_;
  snapshot.events_processed_ = events_processed_ - 1;
  snapshot.log_len_ = log_len_;
  snapshot.stall_fired_ = stall_fired_;
  snapshot.crashed_node_indices_ = crashed_node_indices_;
  snapshot.network_ = network_;
  snapshot.fault_ = fault_runtime_->SaveProgress();
  next_capture_ = events_processed_ + capture_stride_;
}

size_t RunSnapshot::bytes() const {
  size_t total = sizeof(RunSnapshot);
  for (const Simulator::Thread& thread : threads_) {
    total += sizeof(thread) + thread.name.capacity() +
             thread.queue.size() * sizeof(Simulator::Task) +
             thread.fstack.capacity() * sizeof(Simulator::FlatFrame) +
             thread.loop_iters.capacity() * sizeof(int64_t) +
             thread.caughts.capacity() * sizeof(Simulator::ExcValue) +
             thread.wait_vars.capacity() * sizeof(ir::VarId);
  }
  for (const auto& [key, id] : thread_index_) {
    total += sizeof(key) + key.capacity() + sizeof(id);
  }
  total += flat_threads_.capacity() * sizeof(int32_t);
  for (const std::vector<int64_t>& vars : env_) {
    total += sizeof(vars) + vars.capacity() * sizeof(int64_t);
  }
  for (const auto& [key, list] : waiters_) {
    total += sizeof(key) + sizeof(list) + list.capacity() * sizeof(int32_t);
  }
  for (const Simulator::FutureState& future : futures_) {
    total += sizeof(future) + future.waiters.capacity() * sizeof(int32_t);
  }
  total += events_.capacity() * sizeof(Simulator::Event) +
           event_heap_.capacity() * sizeof(Simulator::EventRef) +
           free_event_slots_.capacity() * sizeof(int32_t) +
           crashed_node_indices_.capacity() * sizeof(int32_t) +
           fault_.occurrences.capacity() * sizeof(int64_t);
  return total;
}

RunResult Simulator::Run() {
  ANDURIL_CHECK(!ran_) << "Simulator::Run may be called once";
  ran_ = true;
  ANDURIL_CHECK(capture_ == nullptr || start_ == nullptr)
      << "a forked run cannot capture snapshots";
  PrepareFlatRun();
  fault_runtime_->BeginRun();

  if (start_ != nullptr && !fault_runtime_->tracing()) {
    Restore(*start_);
  } else {
    PushInitialTasks();
  }

  // The loop top is the event boundary snapshots are taken at: the next
  // event is still on the heap and counted (a snapshot stores the count
  // before it), and no thread is mid-step.
  while (!event_heap_.empty() && !hit_step_limit_) {
    if (event_heap_.front().time > spec_->time_limit_ms) {
      hit_time_limit_ = true;
      break;
    }
    if ((++events_processed_ & 255) == 0 && capture_ != nullptr) {
      MaybeCapture();
    }
    Event event = PopEvent();
    now_ = event.time;
    switch (event.kind) {
      case Event::Kind::kDeliver: {
        Thread* thread = threads_[static_cast<size_t>(event.thread)].get();
        // Cross-node messages consult the network first: an in-flight
        // message to a crashed node, or one crossing a pair that was severed
        // while it was in flight, is dropped (and counted) by the model.
        if (event.src_node >= 0 &&
            (network_.CrashedDrop(thread->node) ||
             network_.SeveredDrop(event.src_node, thread->node, now_))) {
          break;
        }
        if (thread->state == Thread::State::kDead) {
          break;  // message to a thread dead from an uncaught exception
        }
        thread->queue.push_back(event.task);
        if (thread->state == Thread::State::kIdle && thread->fstack.empty()) {
          RunThreadFlat(thread);
        }
        break;
      }
      case Event::Kind::kWake:
      case Event::Kind::kTimer:
        ProcessWakeFlat(event);
        break;
    }
  }

  RunResult result;
  if (scratch_ != nullptr && log_len_ > scratch_->impl_->log_reserve) {
    scratch_->impl_->log_reserve = log_len_;
  }
  // Trim recycled shells this run did not reach, then hand the vector over.
  log_.resize(log_len_);
  result.log = std::move(log_);
  log_len_ = 0;
  if (scratch_ != nullptr) {
    // Refill the recycled trace buffer (capacity survives) instead of
    // growing a fresh vector every run.
    result.trace = std::move(scratch_->impl_->trace_pool);
  }
  fault_runtime_->CopyTraceTo(&result.trace);
  result.end_time_ms = now_;
  result.hit_time_limit = hit_time_limit_;
  result.hit_step_limit = hit_step_limit_;
  result.injection_requests = fault_runtime_->injection_requests();
  result.decision_nanos = fault_runtime_->decision_nanos();
  result.steps = steps_;
  result.forked_at_step = forked_at_step_;
  result.pinned_fired = fault_runtime_->pinned_fired();
  result.injected = fault_runtime_->injected();
  result.preempted_window = fault_runtime_->preempted_window();
  for (int32_t node : crashed_node_indices_) {
    result.crashed_nodes.push_back(node_names_[static_cast<size_t>(node)]);
  }
  // A run is partitioned-stuck when a partition fault fired, actually
  // dropped messages, never healed, and left some thread blocked waiting for
  // work that can no longer arrive.
  bool partitioned_stuck = false;
  if (network_.stats().dropped_by_partition > 0 && network_.HasUnhealedPartition(now_)) {
    for (const auto& thread : threads_) {
      if (thread->state == Thread::State::kBlocked) {
        partitioned_stuck = true;
        break;
      }
    }
  }
  if (!crashed_node_indices_.empty()) {
    result.outcome = RunOutcome::kCrashed;
  } else if (stall_fired_) {
    result.outcome = RunOutcome::kHung;
  } else if (partitioned_stuck) {
    result.outcome = RunOutcome::kPartitionedStuck;
  } else if (hit_step_limit_ || hit_time_limit_) {
    result.outcome = RunOutcome::kBudgetExceeded;
  } else {
    result.outcome = RunOutcome::kCompleted;
  }
  result.network = network_.stats();
  for (const PartitionEvent& transition : network_.TakeEvents()) {
    result.partition_events.push_back(PartitionTransition{
        transition.time_ms, node_names_[static_cast<size_t>(transition.node_a)],
        node_names_[static_cast<size_t>(transition.node_b)], transition.sever});
  }

  for (const auto& thread : threads_) {
    ThreadSummary summary;
    summary.node = node_names_[static_cast<size_t>(thread->node)];
    summary.name = thread->name;
    if (thread->crashed) {
      summary.state = ThreadEndState::kCrashed;
    } else if (thread->state == Thread::State::kDead) {
      summary.state = ThreadEndState::kDied;
      summary.death_exception = thread->death_exception;
    } else if (thread->state == Thread::State::kBlocked) {
      summary.state = ThreadEndState::kBlocked;
      summary.blocked_at = thread->blocked_at;
      if (!thread->fstack.empty()) {
        summary.current_method = thread->fstack.back().method;
      }
    } else {
      summary.state = ThreadEndState::kFinished;
    }
    result.threads.push_back(std::move(summary));
  }

  for (size_t n = 0; n < node_names_.size(); ++n) {
    auto& vars = result.node_vars[node_names_[n]];
    for (size_t v = 0; v < env_[n].size(); ++v) {
      if (env_[n][v] != 0) {
        vars[static_cast<ir::VarId>(v)] = env_[n][v];
      }
    }
  }

  // Metrics flush: logical quantities only (steps, events, simulated time,
  // outcomes) — never wall clock — so the registry stays byte-identical
  // across thread counts under a fixed seed.
  if (metrics_ != nullptr) {
    metrics_->Add("sim.runs");
    metrics_->Observe("sim.steps", steps_);
    metrics_->Observe("sim.events", static_cast<int64_t>(events_processed_));
    metrics_->Observe("sim.end_time_ms", now_);
    metrics_->Add(std::string("sim.outcome.") + RunOutcomeName(result.outcome));
    fault_runtime_->FlushMetrics(metrics_);
    network_.FlushMetrics(metrics_);
  }
  if (scratch_ != nullptr) {
    ReturnScratch();
  }
  return result;
}

}  // namespace anduril::interp
