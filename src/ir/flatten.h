// Flattened, pre-decoded program representation for the interpreter's
// direct-threaded dispatch loop.
//
// The statement tree is the IR of record — the causal analysis, the
// verifier, and the fault-site registry all work on it — but walking it
// would cost a cursor stack, a parent chase, and a re-switch on `stmt.kind`
// at every step. FlatProgram lowers every finalized method once into a single
// contiguous op array with everything the hot loop needs pre-resolved:
//
//   - control flow as absolute op indices (branch targets, loop back-edges,
//     break jumps, try/catch merge points) instead of block/child cursors;
//   - fault-site IDs looked up at compile time (one hash probe per site
//     here instead of one per execution);
//   - log templates pre-split on their "{}" placeholders;
//   - Send handler threads and Submit executor threads interned into a
//     dense thread-name table so the simulator can cache (node, name) ->
//     thread lookups in a flat array;
//   - exception handling as a static handler chain per op: each op knows
//     the innermost enclosing try's handler record, each handler knows its
//     parent, and each catch body writes its caught exception into a fixed
//     per-frame slot.
//
// Step accounting: the lowering emits exactly one op per interpreter *step*
// of the statement semantics, bookkeeping steps included (block entry/exit,
// while re-checks, frame pops). Steps are observable — `sim.steps`,
// ClusterSpec::step_limit and every downstream golden count them — so the
// accounting is a contract: tests/golden/interp_runs.txt pins the step count
// (and a digest of everything else a run produces) for six runs of every
// registered scenario, and interp_equivalence_test fails on any drift. The
// mapping is documented per-construct in flatten.cc.
//
// A FlatProgram is immutable after construction and holds no run state, so
// one instance is shared read-only across all runs, rounds, and worker
// threads of an exploration (built once per ExplorerContext).

#ifndef ANDURIL_SRC_IR_FLATTEN_H_
#define ANDURIL_SRC_IR_FLATTEN_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ir/program.h"
#include "src/ir/stmt.h"
#include "src/ir/types.h"

namespace anduril::ir {

// Opcodes of the flattened form. Structured statements lower to sequences:
// a Block becomes kNop (entry) + body + kNop (exit), an If becomes kBranch
// plus per-arm exit jumps, a While becomes kLoopEnter ... kLoopBack, a
// TryCatch becomes kNop (entry) + bodies + kJump-to-merge exits, and Break
// becomes kJump. Every method's stream ends with kReturn.
enum class OpCode : uint8_t {
  kNop = 0,      // 1-step filler (block entry/exit, try entry, Nop stmt)
  kJump,         // pc = target (break, arm/catch exits)
  kAssign,       // env[var] = expr
  kLog,          // render logs_[aux]
  kBranch,       // pc = cond ? target : target2
  kLoopEnter,    // cond ? (loop_iters[slot] = 1, fall through) : pc = target
  kLoopBack,     // cond ? (cap-check, ++loop_iters[slot], pc = target) : fall through
  kInvoke,       // push frame at flat_method(callee).entry; pc stays here
  kThrow,        // raise exception_type originating at this op
  kRethrow,      // re-raise caughts[caught_slot]
  kExternalCall, // fault hook; may throw / crash / stall
  kAwait,        // cond ? fall through : block (timeout -> exception_type)
  kSignal,       // wake waiters of var
  kSend,         // message via sends_[aux]; payload = expr
  kSubmit,       // new future in var; task (callee, expr) on thread_name
  kFutureGet,    // future in var; may block / raise ExecutionException
  kSleep,        // block for sleep_ms
  kReturn,       // pop frame; advance caller or finish task
};

inline constexpr size_t kOpCodeCount = 18;

// One catch clause of a flattened handler: exceptions that are `type` (or a
// subtype) resume at op index `target` (the first op of the catch body).
struct FlatCatchClause {
  ExceptionTypeId type = kInvalidId;
  int32_t target = -1;
};

// Static exception-handler record for the ops inside one try body. `parent`
// is the record of the enclosing try (-1 at method top level); the raise
// walk follows parent links instead of popping cursors. `caught_slot` is
// the fixed per-frame slot the caught exception is stored in — slots are
// numbered by static catch-body nesting depth, so the clauses of one try
// share a slot and only the active one ever reads it.
struct FlatHandler {
  int32_t parent = -1;
  int32_t caught_slot = -1;
  std::vector<FlatCatchClause> clauses;
};

// A log statement pre-split on its "{}" placeholders: the rendered message
// is segments[0] + arg0 + segments[1] + arg1 + ... (missing args render as
// 0).
struct FlatLog {
  LogTemplateId tmpl = kInvalidId;
  LogLevel level = LogLevel::kInfo;
  std::string logger;
  std::vector<std::string> segments;  // always placeholders + 1 entries
  std::vector<Expr> args;
  bool attach_exception = false;
  size_t text_size = 0;  // sum of segment sizes, for reserve()
};

// A Send statement with its handler thread pre-resolved to an interned
// thread-name id (including the default "last method-name segment" rule).
struct FlatSend {
  std::string target_node;              // full name, or prefix when dynamic
  VarId target_index_var = kInvalidId;  // append env[var] when valid
  MethodId callee = kInvalidId;
  int32_t handler_name = -1;  // index into thread_names()
  int64_t latency_ms = 1;
};

// Per-method metadata: where the method's ops start and how many loop /
// caught slots a frame of it needs (static maxima over its nesting).
struct FlatMethod {
  MethodId id = kInvalidId;
  int32_t entry = -1;
  int32_t loop_slots = 0;
  int32_t caught_slots = 0;
};

// One decoded op. Deliberately a fat struct rather than a packed encoding:
// the dispatch loop reads two or three fields per op and never chases a
// pointer, and the array is built once per context.
struct FlatOp {
  OpCode code = OpCode::kNop;
  int32_t target = -1;       // kJump / kBranch(true) / kLoopEnter(false) / kLoopBack(true)
  int32_t target2 = -1;      // kBranch(false)
  int32_t handler = -1;      // innermost enclosing FlatHandler (-1 = none)
  int32_t caught_slot = -1;  // innermost enclosing catch body's slot (-1 = none)
  int32_t loop_slot = -1;    // kLoopEnter / kLoopBack
  int32_t aux = -1;          // kLog -> logs(), kSend -> sends()
  int32_t thread_name = -1;  // kSubmit executor, index into thread_names()
  GlobalStmt source;         // originating statement (blocked_at, origins)
  FaultSiteId site = kInvalidId;  // pre-resolved FaultSiteAt(source)
  Cond cond;                 // kBranch / kLoopEnter / kLoopBack / kAwait
  Expr expr;                 // kAssign rhs; kSend / kSubmit payload
  VarId var = kInvalidId;    // kAssign dest / kSignal var / kSubmit+kFutureGet future
  MethodId callee = kInvalidId;        // kInvoke / kSubmit
  ExceptionTypeId exception_type = kInvalidId;  // kThrow / timeout / transient type
  int32_t transient_every_n = 0;  // kExternalCall natural-transient period
  int64_t timeout_ms = -1;        // kAwait / kFutureGet
  int64_t sleep_ms = 0;           // kSleep
};

class FlatProgram {
 public:
  // `program` must be finalized and must outlive the FlatProgram.
  explicit FlatProgram(const Program& program);

  FlatProgram(const FlatProgram&) = delete;
  FlatProgram& operator=(const FlatProgram&) = delete;

  const Program* program() const { return program_; }

  const std::vector<FlatOp>& ops() const { return ops_; }
  const FlatMethod& flat_method(MethodId id) const {
    return methods_[static_cast<size_t>(id)];
  }
  const FlatHandler& handler(int32_t id) const {
    return handlers_[static_cast<size_t>(id)];
  }
  const FlatLog& log(int32_t id) const { return logs_[static_cast<size_t>(id)]; }
  const FlatSend& send(int32_t id) const { return sends_[static_cast<size_t>(id)]; }
  size_t send_count() const { return sends_.size(); }

  // Interned Send-handler and Submit-executor thread names.
  const std::string& thread_name(int32_t id) const {
    return thread_names_[static_cast<size_t>(id)];
  }
  size_t thread_name_count() const { return thread_names_.size(); }

 private:
  friend struct MethodLowering;

  int32_t InternThreadName(const std::string& name);

  const Program* program_;
  std::vector<FlatOp> ops_;
  std::vector<FlatMethod> methods_;
  std::vector<FlatHandler> handlers_;
  std::vector<FlatLog> logs_;
  std::vector<FlatSend> sends_;
  std::vector<std::string> thread_names_;
  std::unordered_map<std::string, int32_t> thread_name_index_;
};

}  // namespace anduril::ir

#endif  // ANDURIL_SRC_IR_FLATTEN_H_
