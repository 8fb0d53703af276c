// Per-method control-flow graph over the anduril IR statement tree.
//
// One CFG node per statement, plus synthetic entry and exit nodes. Normal
// edges follow the structured semantics of the tree (block order, branch
// arms, while back-edges, break-to-loop-exit, return-to-exit); exceptional
// edges go from every potentially-throwing statement to the catch-handler
// block that would receive the exception — or to exit when the type escapes
// the method. A `while (true)` loop has no fall-through exit edge, so code
// after it is reachable only through Break.
//
// The exceptional edges use the same clause-matching rule as the simulator:
// a clause catches a thrown type T when T is-a clause-type (definitely
// caught — propagation stops), and *may* catch it when clause-type is-a T
// (the static type is a supertype of the clause; the runtime type could be
// either). For may-catch clauses the CFG keeps both the handler edge and the
// continued outward propagation, which keeps reachability conservative.

#ifndef ANDURIL_SRC_ANALYSIS_CFG_H_
#define ANDURIL_SRC_ANALYSIS_CFG_H_

#include <cstdint>
#include <vector>

#include "src/analysis/exception_flow.h"
#include "src/ir/program.h"

namespace anduril::analysis {

// Node ids 0..stmt_count-1 are the method's statements (node id == StmtId);
// entry() and exit() follow.
using CfgNodeId = int32_t;

class MethodCfg {
 public:
  // `flow` supplies callee escape summaries for Invoke exceptional edges;
  // when null, Invoke statements get no exceptional edges (intra-procedural
  // view).
  MethodCfg(const ir::Program& program, ir::MethodId method,
            const ExceptionFlow* flow = nullptr);

  ir::MethodId method() const { return method_; }
  size_t node_count() const { return succs_.size(); }
  CfgNodeId entry() const { return static_cast<CfgNodeId>(node_count()) - 2; }
  CfgNodeId exit() const { return static_cast<CfgNodeId>(node_count()) - 1; }

  const std::vector<CfgNodeId>& succs(CfgNodeId node) const {
    return succs_[static_cast<size_t>(node)];
  }

  // Statements reachable from entry along any edge path (entry/exit nodes
  // included in the vector, always true for entry). Computed once during
  // construction — reachability is the CFG's most common query.
  const std::vector<bool>& reachable() const { return reachable_; }
  bool StmtReachable(ir::StmtId stmt) const {
    return reachable_[static_cast<size_t>(stmt)];
  }

 private:
  void AddEdge(CfgNodeId from, CfgNodeId to);
  // Node receiving control after `stmt` completes normally.
  CfgNodeId AfterStmt(const ir::Method& method, ir::StmtId stmt) const;
  // Exceptional edges for a thrown type at `stmt`: handler blocks of
  // matching enclosing clauses, or exit when the type escapes.
  void AddThrowEdges(const ir::Method& method, ir::StmtId stmt,
                     ir::ExceptionTypeId type);
  void BuildStmtEdges(const ir::Method& method, ir::StmtId stmt);
  void ComputeReachability();

  const ir::Program& program_;
  const ExceptionFlow* flow_;
  ir::MethodId method_;
  std::vector<std::vector<CfgNodeId>> succs_;
  std::vector<bool> reachable_;
};

}  // namespace anduril::analysis

#endif  // ANDURIL_SRC_ANALYSIS_CFG_H_
