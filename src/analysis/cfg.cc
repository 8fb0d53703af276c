#include "src/analysis/cfg.h"

#include <algorithm>

#include "src/util/check.h"

namespace anduril::analysis {

MethodCfg::MethodCfg(const ir::Program& program, ir::MethodId method,
                     const ExceptionFlow* flow)
    : program_(program), flow_(flow), method_(method) {
  ANDURIL_CHECK(program.finalized());
  const ir::Method& m = program.method(method);
  succs_.resize(m.stmts.size() + 2);
  AddEdge(entry(), 0);  // statement 0 is the root block
  for (ir::StmtId s = 0; s < static_cast<ir::StmtId>(m.stmts.size()); ++s) {
    BuildStmtEdges(m, s);
  }
  ComputeReachability();
}

void MethodCfg::AddEdge(CfgNodeId from, CfgNodeId to) {
  std::vector<CfgNodeId>& out = succs_[static_cast<size_t>(from)];
  if (std::find(out.begin(), out.end(), to) != out.end()) {
    return;  // dedup: several escape origins can share a handler target
  }
  out.push_back(to);
}

CfgNodeId MethodCfg::AfterStmt(const ir::Method& method, ir::StmtId stmt) const {
  if (stmt == 0) {
    return exit();  // completing the root block ends the method
  }
  const ir::Stmt& parent = method.stmt(method.stmt(stmt).parent);
  switch (parent.kind) {
    case ir::StmtKind::kBlock: {
      auto it = std::find(parent.children.begin(), parent.children.end(), stmt);
      ANDURIL_CHECK(it != parent.children.end());
      if (it + 1 != parent.children.end()) {
        return *(it + 1);
      }
      return AfterStmt(method, method.stmt(stmt).parent);
    }
    case ir::StmtKind::kWhile:
      return method.stmt(stmt).parent;  // loop back to the While header
    case ir::StmtKind::kIf:
    case ir::StmtKind::kTryCatch:
      return AfterStmt(method, method.stmt(stmt).parent);
    default:
      ANDURIL_CHECK(false) << "non-structured parent kind";
      return exit();
  }
}

void MethodCfg::AddThrowEdges(const ir::Method& method, ir::StmtId stmt,
                              ir::ExceptionTypeId type) {
  ir::StmtId cursor = stmt;
  while (cursor != 0) {
    ir::StmtId parent_id = method.stmt(cursor).parent;
    const ir::Stmt& parent = method.stmt(parent_id);
    // Only the try block is protected by the clauses; an exception raised
    // inside a catch block propagates past its own TryCatch.
    if (parent.kind == ir::StmtKind::kTryCatch && parent.try_block == cursor) {
      for (const ir::CatchClause& clause : parent.catches) {
        if (program_.ExceptionIsA(type, clause.type)) {
          AddEdge(stmt, clause.block);
          return;  // definitely caught: propagation stops here
        }
        if (program_.ExceptionIsA(clause.type, type)) {
          AddEdge(stmt, clause.block);  // may catch; keep propagating
        }
      }
    }
    cursor = parent_id;
  }
  AddEdge(stmt, exit());  // escapes the method
}

void MethodCfg::BuildStmtEdges(const ir::Method& method, ir::StmtId stmt_id) {
  const ir::Stmt& stmt = method.stmt(stmt_id);
  switch (stmt.kind) {
    case ir::StmtKind::kBlock:
      AddEdge(stmt_id, stmt.children.empty() ? AfterStmt(method, stmt_id)
                                             : stmt.children.front());
      break;
    case ir::StmtKind::kNop:
    case ir::StmtKind::kAssign:
    case ir::StmtKind::kLog:
    case ir::StmtKind::kSignal:
    case ir::StmtKind::kSend:
    case ir::StmtKind::kSubmit:
    case ir::StmtKind::kSleep:
      AddEdge(stmt_id, AfterStmt(method, stmt_id));
      break;
    case ir::StmtKind::kIf:
      AddEdge(stmt_id, stmt.then_block);
      if (stmt.else_block != ir::kInvalidId) {
        AddEdge(stmt_id, stmt.else_block);
      } else if (!stmt.cond.IsTrue()) {
        AddEdge(stmt_id, AfterStmt(method, stmt_id));
      }
      break;
    case ir::StmtKind::kWhile:
      AddEdge(stmt_id, stmt.then_block);  // loop body
      if (!stmt.cond.IsTrue()) {
        AddEdge(stmt_id, AfterStmt(method, stmt_id));
      }
      // while (true) exits only through Break (or a thrown exception).
      break;
    case ir::StmtKind::kBreak: {
      ir::StmtId loop = method.stmt(stmt_id).parent;
      while (method.stmt(loop).kind != ir::StmtKind::kWhile) {
        loop = method.stmt(loop).parent;  // Finalize verified the loop exists
      }
      AddEdge(stmt_id, AfterStmt(method, loop));
      break;
    }
    case ir::StmtKind::kReturn:
      AddEdge(stmt_id, exit());
      break;
    case ir::StmtKind::kThrow: {
      ir::ExceptionTypeId type = stmt.exception_type;
      if (type == ir::kInvalidId) {
        // Rethrow: the static type is the enclosing clause's caught type.
        ir::StmtId cursor = stmt_id;
        while (type == ir::kInvalidId && cursor != 0) {
          ir::StmtId parent_id = method.stmt(cursor).parent;
          const ir::Stmt& parent = method.stmt(parent_id);
          if (parent.kind == ir::StmtKind::kTryCatch) {
            for (const ir::CatchClause& clause : parent.catches) {
              if (clause.block == cursor) {
                type = clause.type;
                break;
              }
            }
          }
          cursor = parent_id;
        }
        ANDURIL_CHECK_NE(type, ir::kInvalidId) << "rethrow outside catch";
      }
      AddThrowEdges(method, stmt_id, type);
      break;  // no normal successor
    }
    case ir::StmtKind::kExternalCall:
      AddEdge(stmt_id, AfterStmt(method, stmt_id));
      for (ir::ExceptionTypeId type : stmt.throwable_types) {
        AddThrowEdges(method, stmt_id, type);
      }
      break;
    case ir::StmtKind::kAwait:
      AddEdge(stmt_id, AfterStmt(method, stmt_id));
      if (stmt.exception_type != ir::kInvalidId) {
        AddThrowEdges(method, stmt_id, stmt.exception_type);
      }
      break;
    case ir::StmtKind::kFutureGet: {
      AddEdge(stmt_id, AfterStmt(method, stmt_id));
      // Task failures surface here as ExecutionException; a timeout throws
      // the declared type. Both are conservative: edges exist even when no
      // submitted task can actually fail.
      ir::ExceptionTypeId execution = program_.FindException("ExecutionException");
      if (execution != ir::kInvalidId) {
        AddThrowEdges(method, stmt_id, execution);
      }
      if (stmt.exception_type != ir::kInvalidId) {
        AddThrowEdges(method, stmt_id, stmt.exception_type);
      }
      break;
    }
    case ir::StmtKind::kInvoke: {
      AddEdge(stmt_id, AfterStmt(method, stmt_id));
      if (flow_ != nullptr) {
        for (const ThrowOrigin& origin : flow_->Escapes(stmt.callee)) {
          AddThrowEdges(method, stmt_id, origin.type);
        }
      }
      break;
    }
    case ir::StmtKind::kTryCatch:
      // Catch blocks are entered only via exceptional edges from inside the
      // try block.
      AddEdge(stmt_id, stmt.try_block);
      break;
  }
}

void MethodCfg::ComputeReachability() {
  reachable_.assign(node_count(), false);
  std::vector<CfgNodeId> worklist{entry()};
  reachable_[static_cast<size_t>(entry())] = true;
  while (!worklist.empty()) {
    CfgNodeId node = worklist.back();
    worklist.pop_back();
    for (CfgNodeId succ : succs_[static_cast<size_t>(node)]) {
      if (!reachable_[static_cast<size_t>(succ)]) {
        reachable_[static_cast<size_t>(succ)] = true;
        worklist.push_back(succ);
      }
    }
  }
}

}  // namespace anduril::analysis
