#include "src/ir/flatten.h"

#include <utility>

#include "src/util/check.h"

namespace anduril::ir {

namespace {

// Short thread name for a handler method: "wal.consume" -> "consume". A Send
// without an explicit handler thread delivers to this thread.
std::string DefaultHandlerThread(const std::string& method_name) {
  size_t pos = method_name.rfind('.');
  return pos == std::string::npos ? method_name : method_name.substr(pos + 1);
}

}  // namespace

// Lowers one method. Emission follows the step accounting (flatten.h) —
// every op is exactly one interpreter step:
//
//   statement        steps                           flat ops
//   ---------        -----                           --------
//   simple stmt      1 (dispatch)                    the stmt's op
//   Block            1 entry + body + 1 exit         kNop + body + kNop
//   If, taken arm    1 + arm body + 1 arm exit       kBranch + body + kJump/kNop
//   If, no arm       1                               kBranch straight to merge
//   While, N iters   1 + N re-checks + N bodies      kLoopEnter + N x (body
//                    (re-check N is the false one)     + kLoopBack)
//   Invoke           1 + callee + 1 frame pop        kInvoke + callee + kReturn
//   TryCatch         1 + try body + 1 try exit       kNop + body + kJump(merge)
//   caught clause    0 entry + body + 1 catch exit   (raise sets pc) + body
//                                                      + kJump(merge)
//   Break            1 (leaves the loop)             kJump past kLoopBack
//   Return           1                               kReturn
//
// The raise path costs zero steps (it rewrites pc to the clause's target),
// as do wakeups and task pulls.
struct MethodLowering {
  FlatProgram* out;
  const Program* program;
  const Method* method;

  int32_t current_handler = -1;  // innermost FlatHandler for ops being emitted
  int32_t current_caught = -1;   // innermost enclosing catch body's slot
  int32_t catch_depth = 0;       // next free caught slot
  int32_t loop_depth = 0;        // next free loop slot
  int32_t max_caught = 0;
  int32_t max_loops = 0;
  // Per enclosing loop: break-jump op indices awaiting the loop's merge.
  std::vector<std::vector<int32_t>> break_patches;

  int32_t Here() const { return static_cast<int32_t>(out->ops_.size()); }

  FlatOp& Emit(OpCode code, StmtId stmt) {
    FlatOp op;
    op.code = code;
    op.source = GlobalStmt{method->id, stmt};
    op.handler = current_handler;
    op.caught_slot = current_caught;
    op.site = program->FaultSiteAt(op.source);
    out->ops_.push_back(std::move(op));
    return out->ops_.back();
  }

  void LowerChildren(StmtId block_id) {
    const Stmt& block = method->stmt(block_id);
    ANDURIL_CHECK_EQ(static_cast<int>(block.kind), static_cast<int>(StmtKind::kBlock));
    for (StmtId child : block.children) {
      LowerStmt(child);
    }
  }

  int32_t AddLog(const Stmt& stmt) {
    const LogTemplate& tmpl = program->log_template(stmt.log_template);
    FlatLog info;
    info.tmpl = stmt.log_template;
    info.level = tmpl.level;
    info.logger = tmpl.logger;
    info.args = stmt.log_args;
    info.attach_exception = stmt.log_attach_exception;
    std::string segment;
    for (size_t i = 0; i < tmpl.text.size();) {
      if (i + 1 < tmpl.text.size() && tmpl.text[i] == '{' && tmpl.text[i + 1] == '}') {
        info.segments.push_back(std::move(segment));
        segment.clear();
        i += 2;
      } else {
        segment.push_back(tmpl.text[i]);
        ++i;
      }
    }
    info.segments.push_back(std::move(segment));
    info.text_size = tmpl.text.size();
    out->logs_.push_back(std::move(info));
    return static_cast<int32_t>(out->logs_.size()) - 1;
  }

  int32_t AddSend(const Stmt& stmt) {
    FlatSend send;
    send.target_node = stmt.target_node;
    send.target_index_var = stmt.target_index_var;
    send.callee = stmt.callee;
    std::string handler = stmt.handler_thread.empty()
                              ? DefaultHandlerThread(program->method(stmt.callee).name)
                              : stmt.handler_thread;
    send.handler_name = out->InternThreadName(handler);
    send.latency_ms = stmt.latency_ms;
    out->sends_.push_back(std::move(send));
    return static_cast<int32_t>(out->sends_.size()) - 1;
  }

  void LowerStmt(StmtId stmt_id) {
    const Stmt& stmt = method->stmt(stmt_id);
    switch (stmt.kind) {
      case StmtKind::kNop:
        Emit(OpCode::kNop, stmt_id);
        return;

      case StmtKind::kBlock: {
        // Tree: one step to push the cursor, one to pop it when exhausted.
        Emit(OpCode::kNop, stmt_id);
        LowerChildren(stmt_id);
        Emit(OpCode::kNop, stmt_id);
        return;
      }

      case StmtKind::kAssign: {
        FlatOp& op = Emit(OpCode::kAssign, stmt_id);
        op.var = stmt.assign_var;
        op.expr = stmt.expr;
        return;
      }

      case StmtKind::kLog: {
        int32_t aux = AddLog(stmt);
        Emit(OpCode::kLog, stmt_id).aux = aux;
        return;
      }

      case StmtKind::kIf: {
        // kBranch is the If dispatch step. A taken arm executes its children
        // directly (arm entry is free) and pays one exit step — kJump to
        // merge for the then arm, kNop fall-through for the else arm.
        int32_t branch = Here();
        {
          FlatOp& op = Emit(OpCode::kBranch, stmt_id);
          op.cond = stmt.cond;
        }
        int32_t then_exit = -1;
        if (stmt.then_block != kInvalidId) {
          out->ops_[static_cast<size_t>(branch)].target = Here();
          LowerChildren(stmt.then_block);
          then_exit = Here();
          Emit(OpCode::kJump, stmt_id);
        }
        if (stmt.else_block != kInvalidId) {
          out->ops_[static_cast<size_t>(branch)].target2 = Here();
          LowerChildren(stmt.else_block);
          Emit(OpCode::kNop, stmt_id);
        }
        int32_t merge = Here();
        FlatOp& branch_op = out->ops_[static_cast<size_t>(branch)];
        if (branch_op.target < 0) {
          branch_op.target = merge;
        }
        if (branch_op.target2 < 0) {
          branch_op.target2 = merge;
        }
        if (then_exit >= 0) {
          out->ops_[static_cast<size_t>(then_exit)].target = merge;
        }
        return;
      }

      case StmtKind::kWhile: {
        // kLoopEnter is the While dispatch step (false: straight to merge,
        // one step). kLoopBack is the end-of-body re-check step; on true it
        // applies the runaway-loop cap before jumping back to the body.
        int32_t slot = loop_depth;
        max_loops = std::max(max_loops, slot + 1);
        int32_t enter = Here();
        {
          FlatOp& op = Emit(OpCode::kLoopEnter, stmt_id);
          op.cond = stmt.cond;
          op.loop_slot = slot;
        }
        int32_t body = Here();
        ++loop_depth;
        break_patches.emplace_back();
        LowerChildren(stmt.then_block);
        --loop_depth;
        {
          FlatOp& op = Emit(OpCode::kLoopBack, stmt_id);
          op.cond = stmt.cond;
          op.loop_slot = slot;
          op.target = body;
        }
        int32_t merge = Here();
        out->ops_[static_cast<size_t>(enter)].target = merge;
        for (int32_t break_jump : break_patches.back()) {
          out->ops_[static_cast<size_t>(break_jump)].target = merge;
        }
        break_patches.pop_back();
        return;
      }

      case StmtKind::kInvoke:
        Emit(OpCode::kInvoke, stmt_id).callee = stmt.callee;
        return;

      case StmtKind::kTryCatch: {
        // kNop is the TryCatch dispatch step. The try body runs under a new
        // handler record; its exit kJump is the try's exit step. Catch
        // entry costs zero steps (a raise rewrites pc directly), and each
        // catch body's exit kJump is its exit step. Ops inside a catch body resolve against the
        // *enclosing* handler — the try that caught no longer handles.
        Emit(OpCode::kNop, stmt_id);
        int32_t slot = catch_depth;
        max_caught = std::max(max_caught, slot + 1);
        int32_t handler_id = static_cast<int32_t>(out->handlers_.size());
        {
          FlatHandler handler;
          handler.parent = current_handler;
          handler.caught_slot = slot;
          out->handlers_.push_back(std::move(handler));
        }
        int32_t outer_handler = current_handler;
        current_handler = handler_id;
        LowerChildren(stmt.try_block);
        current_handler = outer_handler;
        std::vector<int32_t> merge_jumps;
        merge_jumps.push_back(Here());
        Emit(OpCode::kJump, stmt_id);
        int32_t outer_caught = current_caught;
        for (const CatchClause& clause : stmt.catches) {
          FlatCatchClause flat_clause;
          flat_clause.type = clause.type;
          flat_clause.target = Here();
          out->handlers_[static_cast<size_t>(handler_id)].clauses.push_back(flat_clause);
          current_caught = slot;
          ++catch_depth;
          LowerChildren(clause.block);
          --catch_depth;
          current_caught = outer_caught;
          merge_jumps.push_back(Here());
          Emit(OpCode::kJump, stmt_id);
        }
        int32_t merge = Here();
        for (int32_t jump : merge_jumps) {
          out->ops_[static_cast<size_t>(jump)].target = merge;
        }
        return;
      }

      case StmtKind::kThrow: {
        if (stmt.exception_type == kInvalidId) {
          Emit(OpCode::kRethrow, stmt_id);
        } else {
          Emit(OpCode::kThrow, stmt_id).exception_type = stmt.exception_type;
        }
        return;
      }

      case StmtKind::kExternalCall: {
        FlatOp& op = Emit(OpCode::kExternalCall, stmt_id);
        ANDURIL_CHECK_NE(op.site, kInvalidId);
        op.transient_every_n = stmt.transient_every_n;
        op.exception_type =
            stmt.throwable_types.empty() ? kInvalidId : stmt.throwable_types.front();
        return;
      }

      case StmtKind::kAwait: {
        FlatOp& op = Emit(OpCode::kAwait, stmt_id);
        op.cond = stmt.cond;
        op.timeout_ms = stmt.timeout_ms;
        op.exception_type = stmt.exception_type;
        return;
      }

      case StmtKind::kSignal:
        Emit(OpCode::kSignal, stmt_id).var = stmt.assign_var;
        return;

      case StmtKind::kSend: {
        int32_t aux = AddSend(stmt);
        FlatOp& op = Emit(OpCode::kSend, stmt_id);
        ANDURIL_CHECK_NE(op.site, kInvalidId);
        op.aux = aux;
        op.expr = stmt.expr;
        return;
      }

      case StmtKind::kSubmit: {
        int32_t name = out->InternThreadName(stmt.executor_thread);
        FlatOp& op = Emit(OpCode::kSubmit, stmt_id);
        op.callee = stmt.callee;
        op.var = stmt.future_var;
        op.expr = stmt.expr;
        op.thread_name = name;
        return;
      }

      case StmtKind::kFutureGet: {
        FlatOp& op = Emit(OpCode::kFutureGet, stmt_id);
        op.var = stmt.future_var;
        op.timeout_ms = stmt.timeout_ms;
        op.exception_type = stmt.exception_type;
        return;
      }

      case StmtKind::kSleep:
        Emit(OpCode::kSleep, stmt_id).sleep_ms = stmt.sleep_ms;
        return;

      case StmtKind::kReturn:
        Emit(OpCode::kReturn, stmt_id);
        return;

      case StmtKind::kBreak: {
        ANDURIL_CHECK(!break_patches.empty()) << "break outside loop escaped the verifier";
        break_patches.back().push_back(Here());
        Emit(OpCode::kJump, stmt_id);
        return;
      }
    }
    ANDURIL_UNREACHABLE();
  }

  FlatMethod Lower() {
    FlatMethod flat;
    flat.id = method->id;
    flat.entry = Here();
    // The root block's children run directly off the task frame (no entry
    // step), and the frame pop when they are exhausted is the
    // trailing kReturn — unreachable when the method ends in Return.
    LowerChildren(0);
    Emit(OpCode::kReturn, 0);
    flat.loop_slots = max_loops;
    flat.caught_slots = max_caught;
    return flat;
  }
};

FlatProgram::FlatProgram(const Program& program) : program_(&program) {
  ANDURIL_CHECK(program.finalized()) << "program must be finalized before flattening";
  // Every registered program lowers to one op per statement.
  ops_.reserve(program.TotalStmtCount());
  methods_.reserve(program.method_count());
  for (MethodId m = 0; m < static_cast<MethodId>(program.method_count()); ++m) {
    MethodLowering lowering;
    lowering.out = this;
    lowering.program = &program;
    lowering.method = &program.method(m);
    methods_.push_back(lowering.Lower());
  }
}

int32_t FlatProgram::InternThreadName(const std::string& name) {
  auto it = thread_name_index_.find(name);
  if (it != thread_name_index_.end()) {
    return it->second;
  }
  int32_t id = static_cast<int32_t>(thread_names_.size());
  thread_names_.push_back(name);
  thread_name_index_[name] = id;
  return id;
}

}  // namespace anduril::ir
