#include "src/analysis/causal_graph.h"

#include <deque>

#include "src/util/check.h"
#include "src/util/stopwatch.h"

namespace anduril::analysis {

namespace {

// Finds the catch clause (trycatch stmt, clause index) whose block contains
// `stmt_id`, or returns false.
bool EnclosingCatch(const ir::Method& method, ir::StmtId stmt_id, ir::StmtId* trycatch,
                    size_t* clause_index) {
  ir::StmtId cur = stmt_id;
  ir::StmtId parent = method.stmt(cur).parent;
  while (parent != ir::kInvalidId) {
    const ir::Stmt& p = method.stmt(parent);
    if (p.kind == ir::StmtKind::kTryCatch) {
      for (size_t i = 0; i < p.catches.size(); ++i) {
        if (p.catches[i].block == cur) {
          *trycatch = parent;
          *clause_index = i;
          return true;
        }
      }
    }
    cur = parent;
    parent = method.stmt(cur).parent;
  }
  return false;
}

// Does the subtree rooted at `stmt_id` contain a statement that diverts
// control away from whatever follows the subtree (Break, Return, or Throw)?
// Used to decide whether a preceding structured sibling can prevent a
// location from executing even when nothing in it throws. `break_escapes`
// is false once the walk enters a While body: a Break there only exits that
// loop, staying inside the subtree.
bool SubtreeDiverts(const ir::Method& method, ir::StmtId stmt_id, bool break_escapes) {
  const ir::Stmt& stmt = method.stmt(stmt_id);
  switch (stmt.kind) {
    case ir::StmtKind::kBreak:
      return break_escapes;
    case ir::StmtKind::kReturn:
    case ir::StmtKind::kThrow:
      return true;
    case ir::StmtKind::kBlock:
      for (ir::StmtId child : stmt.children) {
        if (SubtreeDiverts(method, child, break_escapes)) {
          return true;
        }
      }
      return false;
    case ir::StmtKind::kIf:
      return SubtreeDiverts(method, stmt.then_block, break_escapes) ||
             (stmt.else_block != ir::kInvalidId &&
              SubtreeDiverts(method, stmt.else_block, break_escapes));
    case ir::StmtKind::kWhile:
      return SubtreeDiverts(method, stmt.then_block, /*break_escapes=*/false);
    case ir::StmtKind::kTryCatch: {
      if (SubtreeDiverts(method, stmt.try_block, break_escapes)) {
        return true;
      }
      for (const ir::CatchClause& clause : stmt.catches) {
        if (SubtreeDiverts(method, clause.block, break_escapes)) {
          return true;
        }
      }
      return false;
    }
    default:
      return false;
  }
}

}  // namespace

CausalGraph::CausalGraph(const ir::Program& program, const std::vector<CausalSink>& sinks)
    : program_(program) {
  Stopwatch exception_timer;
  exception_flow_ = std::make_unique<ExceptionFlow>(program);
  stats_.exception_seconds = exception_timer.ElapsedSeconds();

  Stopwatch slicing_timer;
  indexes_ = std::make_unique<ProgramIndexes>(program);
  stats_.slicing_seconds = slicing_timer.ElapsedSeconds();

  Stopwatch chaining_timer;
  std::vector<CausalNodeId> worklist;
  for (const CausalSink& sink : sinks) {
    num_observables_ = std::max(num_observables_, sink.observable + 1);
  }
  observable_sink_nodes_.resize(static_cast<size_t>(num_observables_));
  for (const CausalSink& sink : sinks) {
    CausalNodeId id = -1;
    if (sink.direct_site != ir::kInvalidId) {
      const ir::FaultSite& site = program.fault_site(sink.direct_site);
      const ir::Stmt& stmt =
          program.method(site.location.method).stmt(site.location.stmt);
      CausalNode node;
      node.loc = site.location;
      if (site.kind == ir::FaultSiteKind::kExternal) {
        node.kind = CausalNodeKind::kExternalExc;
        node.aux = sink.direct_type != ir::kInvalidId ? sink.direct_type
                                                      : stmt.throwable_types.front();
      } else {
        node.kind = CausalNodeKind::kNewExc;
        node.aux = stmt.exception_type;
      }
      id = GetOrAdd(node, &worklist);
    } else {
      CausalNode node;
      node.kind = CausalNodeKind::kLocation;
      node.loc = sink.log_stmt;
      id = GetOrAdd(node, &worklist);
    }
    observable_sink_nodes_[static_cast<size_t>(sink.observable)].push_back(id);
  }

  // Algorithm 1: worklist expansion.
  while (!worklist.empty()) {
    CausalNodeId id = worklist.back();
    worklist.pop_back();
    ExpandNode(id, &worklist);
  }
  stats_.chaining_seconds = chaining_timer.ElapsedSeconds();

  // Collect sources (fault-site candidates).
  std::unordered_map<ir::FaultSiteId, bool> seen_sites;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const CausalNode& node = nodes_[i];
    if (node.kind != CausalNodeKind::kExternalExc && node.kind != CausalNodeKind::kNewExc) {
      continue;
    }
    ir::FaultSiteId site = program.FaultSiteAt(node.loc);
    if (site == ir::kInvalidId) {
      continue;
    }
    sources_.push_back(SourceSite{static_cast<CausalNodeId>(i), site,
                                  static_cast<ir::ExceptionTypeId>(node.aux)});
    seen_sites[site] = true;
  }
  stats_.inferred_fault_sites = static_cast<int64_t>(seen_sites.size());
  stats_.vertices = static_cast<int64_t>(nodes_.size());
  for (const auto& priors : priors_) {
    stats_.edges += static_cast<int64_t>(priors.size());
  }
}

CausalNodeId CausalGraph::GetOrAdd(const CausalNode& node, std::vector<CausalNodeId>* worklist) {
  auto it = index_.find(node);
  if (it != index_.end()) {
    return it->second;
  }
  CausalNodeId id = static_cast<CausalNodeId>(nodes_.size());
  nodes_.push_back(node);
  priors_.emplace_back();
  index_[node] = id;
  worklist->push_back(id);
  return id;
}

void CausalGraph::AddEdge(CausalNodeId prior, CausalNodeId node) {
  priors_[static_cast<size_t>(node)].push_back(prior);
}

void CausalGraph::ExpandNode(CausalNodeId id, std::vector<CausalNodeId>* worklist) {
  // Copy: nodes_ may reallocate while adding priors.
  const CausalNode node = nodes_[static_cast<size_t>(id)];
  std::vector<CausalNode> priors;
  switch (node.kind) {
    case CausalNodeKind::kLocation:
      LocationPriors(node, &priors);
      break;
    case CausalNodeKind::kCondition:
      ConditionPriors(node, &priors);
      break;
    case CausalNodeKind::kInvocation:
      InvocationPriors(node, &priors);
      break;
    case CausalNodeKind::kHandler:
      HandlerPriors(node, &priors);
      break;
    case CausalNodeKind::kInternalExc:
      InternalExcPriors(node, &priors);
      break;
    case CausalNodeKind::kNewExc:
      NewExcPriors(node, &priors);
      break;
    case CausalNodeKind::kExternalExc:
      break;  // terminal: injectable root cause
  }
  for (const CausalNode& prior : priors) {
    CausalNodeId prior_id = GetOrAdd(prior, worklist);
    AddEdge(prior_id, id);
  }
}

void CausalGraph::AddDominatorThrowers(const ir::Method& method, ir::StmtId stmt_id,
                                       std::vector<CausalNode>* out) const {
  const ir::Stmt& stmt = method.stmt(stmt_id);
  switch (stmt.kind) {
    case ir::StmtKind::kAwait: {
      CausalNode cond;
      cond.kind = CausalNodeKind::kCondition;
      cond.loc = ir::GlobalStmt{method.id, stmt_id};
      out->push_back(cond);
      return;
    }
    case ir::StmtKind::kExternalCall:
      for (ir::ExceptionTypeId type : stmt.throwable_types) {
        CausalNode exc;
        exc.kind = CausalNodeKind::kExternalExc;
        exc.loc = ir::GlobalStmt{method.id, stmt_id};
        exc.aux = type;
        out->push_back(exc);
      }
      return;
    case ir::StmtKind::kInvoke:
      for (const ThrowOrigin& escape : exception_flow_->Escapes(stmt.callee)) {
        CausalNode exc;
        exc.kind = CausalNodeKind::kInternalExc;
        exc.loc = ir::GlobalStmt{method.id, stmt_id};
        exc.aux = escape.type;
        out->push_back(exc);
      }
      return;
    case ir::StmtKind::kFutureGet: {
      ir::ExceptionTypeId exec = program_.FindException("ExecutionException");
      if (exec != ir::kInvalidId) {
        CausalNode exc;
        exc.kind = CausalNodeKind::kInternalExc;
        exc.loc = ir::GlobalStmt{method.id, stmt_id};
        exc.aux = exec;
        out->push_back(exc);
      }
      return;
    }
    // Structured dominators are recursed into wholesale: an exception (or an
    // early return from a catch) anywhere inside a preceding If/While/Try can
    // divert control away from the current location. Like Pensieve's jumping
    // strategy, this over-approximates — false dependencies are pruned by the
    // dynamic feedback, not by the static analysis (§4.1).
    case ir::StmtKind::kBlock:
      for (ir::StmtId child : stmt.children) {
        AddDominatorThrowers(method, child, out);
      }
      return;
    case ir::StmtKind::kIf:
      AddDominatorThrowers(method, stmt.then_block, out);
      if (stmt.else_block != ir::kInvalidId) {
        AddDominatorThrowers(method, stmt.else_block, out);
      }
      // A branch that can Break/Return/Throw diverts control away from the
      // current location, so whether it was taken — the condition — is
      // causally prior (the hb-16144 pattern: a preceding `if (granted)
      // break;` decides whether the failure log downstream ever runs).
      if (SubtreeDiverts(method, stmt.then_block, /*break_escapes=*/true) ||
          (stmt.else_block != ir::kInvalidId &&
           SubtreeDiverts(method, stmt.else_block, /*break_escapes=*/true))) {
        CausalNode cond;
        cond.kind = CausalNodeKind::kCondition;
        cond.loc = ir::GlobalStmt{method.id, stmt_id};
        out->push_back(cond);
      }
      return;
    case ir::StmtKind::kWhile:
      AddDominatorThrowers(method, stmt.then_block, out);
      if (SubtreeDiverts(method, stmt.then_block, /*break_escapes=*/false)) {
        CausalNode cond;
        cond.kind = CausalNodeKind::kCondition;
        cond.loc = ir::GlobalStmt{method.id, stmt_id};
        out->push_back(cond);
      }
      return;
    case ir::StmtKind::kTryCatch:
      AddDominatorThrowers(method, stmt.try_block, out);
      for (size_t i = 0; i < stmt.catches.size(); ++i) {
        AddDominatorThrowers(method, stmt.catches[i].block, out);
        // An early Return from a catch block skips everything after the
        // TryCatch; the handler (and through it, the exceptions it catches)
        // is then causally prior to the current location.
        if (SubtreeDiverts(method, stmt.catches[i].block, /*break_escapes=*/true)) {
          CausalNode handler;
          handler.kind = CausalNodeKind::kHandler;
          handler.loc = ir::GlobalStmt{method.id, stmt_id};
          handler.aux = static_cast<int32_t>(i);
          out->push_back(handler);
        }
      }
      return;
    default:
      return;
  }
}

void CausalGraph::LocationPriors(const CausalNode& node, std::vector<CausalNode>* out) const {
  const ir::Method& method = program_.method(node.loc.method);
  ir::StmtId cur = node.loc.stmt;
  ir::StmtId parent = method.stmt(cur).parent;
  while (parent != ir::kInvalidId) {
    const ir::Stmt& p = method.stmt(parent);
    switch (p.kind) {
      case ir::StmtKind::kIf:
      case ir::StmtKind::kWhile:
        if (p.then_block == cur || p.else_block == cur) {
          CausalNode cond;
          cond.kind = CausalNodeKind::kCondition;
          cond.loc = ir::GlobalStmt{method.id, parent};
          out->push_back(cond);
        }
        break;
      case ir::StmtKind::kTryCatch:
        for (size_t i = 0; i < p.catches.size(); ++i) {
          if (p.catches[i].block == cur) {
            CausalNode handler;
            handler.kind = CausalNodeKind::kHandler;
            handler.loc = ir::GlobalStmt{method.id, parent};
            handler.aux = static_cast<int32_t>(i);
            out->push_back(handler);
          }
        }
        break;
      case ir::StmtKind::kBlock: {
        // Preceding siblings dominate this point. Two dominator families
        // matter causally: conditions (Await), and statements that can throw
        // — reaching this location requires them to complete normally, so an
        // exception there makes the location (and its observable) disappear
        // or, symmetrically, a skipped write makes a downstream condition
        // flip. This is the exception-interruption causality the paper's
        // exception analysis contributes on top of Pensieve.
        for (ir::StmtId sibling : p.children) {
          if (sibling == cur) {
            break;
          }
          AddDominatorThrowers(method, sibling, out);
        }
        break;
      }
      default:
        break;
    }
    cur = parent;
    parent = method.stmt(cur).parent;
  }
  CausalNode invocation;
  invocation.kind = CausalNodeKind::kInvocation;
  invocation.loc = ir::GlobalStmt{method.id, 0};
  out->push_back(invocation);
}

void CausalGraph::ConditionPriors(const CausalNode& node, std::vector<CausalNode>* out) const {
  LocationPriors(node, out);
  const ir::Method& method = program_.method(node.loc.method);
  const ir::Stmt& stmt = method.stmt(node.loc.stmt);
  std::vector<ir::VarId> reads;
  stmt.cond.CollectReads(&reads);
  for (ir::VarId var : reads) {
    for (const ir::GlobalStmt& writer : indexes_->WritersOf(var)) {
      CausalNode location;
      location.kind = CausalNodeKind::kLocation;
      location.loc = writer;
      out->push_back(location);
    }
  }
}

void CausalGraph::InvocationPriors(const CausalNode& node, std::vector<CausalNode>* out) const {
  for (const CallSite& site : indexes_->CallersOf(node.loc.method)) {
    CausalNode location;
    location.kind = CausalNodeKind::kLocation;
    location.loc = site.location;
    out->push_back(location);
  }
}

CausalNode CausalGraph::OriginToNode(ir::MethodId method, const ThrowOrigin& origin) const {
  CausalNode node;
  node.loc = ir::GlobalStmt{method, origin.stmt};
  node.aux = origin.type;
  switch (origin.kind) {
    case OriginKind::kNew:
    case OriginKind::kAwaitTimeout:
    case OriginKind::kFutureTimeout:
      node.kind = CausalNodeKind::kNewExc;
      return node;
    case OriginKind::kExternal:
      node.kind = CausalNodeKind::kExternalExc;
      return node;
    case OriginKind::kViaInvoke:
    case OriginKind::kViaFuture:
      node.kind = CausalNodeKind::kInternalExc;
      return node;
    case OriginKind::kRethrow: {
      // Continue the analysis through the handler the rethrow sits in.
      const ir::Method& m = program_.method(method);
      ir::StmtId trycatch = ir::kInvalidId;
      size_t clause = 0;
      bool found = EnclosingCatch(m, origin.stmt, &trycatch, &clause);
      ANDURIL_CHECK(found) << "rethrow outside catch";
      node.kind = CausalNodeKind::kHandler;
      node.loc = ir::GlobalStmt{method, trycatch};
      node.aux = static_cast<int32_t>(clause);
      return node;
    }
  }
  ANDURIL_UNREACHABLE();
}

void CausalGraph::HandlerPriors(const CausalNode& node, std::vector<CausalNode>* out) const {
  // The handler is also a program point: its enclosing context matters.
  LocationPriors(node, out);
  for (const ThrowOrigin& origin : exception_flow_->HandlerOrigins(
           node.loc.method, node.loc.stmt, static_cast<size_t>(node.aux))) {
    out->push_back(OriginToNode(node.loc.method, origin));
  }
}

void CausalGraph::InternalExcPriors(const CausalNode& node, std::vector<CausalNode>* out) const {
  const ir::Method& method = program_.method(node.loc.method);
  const ir::Stmt& stmt = method.stmt(node.loc.stmt);
  if (stmt.kind == ir::StmtKind::kInvoke) {
    for (const ThrowOrigin& origin : exception_flow_->Escapes(stmt.callee)) {
      if (origin.type == node.aux) {
        out->push_back(OriginToNode(stmt.callee, origin));
      }
    }
    return;
  }
  if (stmt.kind == ir::StmtKind::kFutureGet) {
    // Future semantics (§4.1): the ExecutionException wraps whatever escaped
    // the submitted task. Resolve the future variable to its Submit sites.
    for (const ir::GlobalStmt& submit_loc : indexes_->SubmitsFor(stmt.future_var)) {
      const ir::Stmt& submit =
          program_.method(submit_loc.method).stmt(submit_loc.stmt);
      for (const ThrowOrigin& origin : exception_flow_->Escapes(submit.callee)) {
        out->push_back(OriginToNode(submit.callee, origin));
      }
    }
    return;
  }
  ANDURIL_UNREACHABLE() << "internal-exception node at unexpected statement";
}

void CausalGraph::NewExcPriors(const CausalNode& node, std::vector<CausalNode>* out) const {
  const ir::Method& method = program_.method(node.loc.method);
  const ir::Stmt& stmt = method.stmt(node.loc.stmt);
  if (stmt.kind == ir::StmtKind::kThrow) {
    // Downgrade rule: a `throw new` inside a catch block is re-raising a
    // deeper fault; continue through the handler.
    ir::StmtId trycatch = ir::kInvalidId;
    size_t clause = 0;
    if (EnclosingCatch(method, node.loc.stmt, &trycatch, &clause)) {
      CausalNode handler;
      handler.kind = CausalNodeKind::kHandler;
      handler.loc = ir::GlobalStmt{node.loc.method, trycatch};
      handler.aux = static_cast<int32_t>(clause);
      out->push_back(handler);
    }
    // The throw only fires if control reaches it, so its enclosing
    // conditions (and, through slicing, their writers) are causally prior —
    // a guarded `throw new NPE` traces back to whatever skipped the write
    // its guard tests (the zk-3006 pattern). The source registration below
    // still makes the throw itself an injectable root cause.
    LocationPriors(node, out);
    return;
  }
  if (stmt.kind == ir::StmtKind::kAwait) {
    // A timeout fired because nothing satisfied the condition: the condition
    // (and, via slicing, its writers and signallers) is the cause.
    CausalNode cond;
    cond.kind = CausalNodeKind::kCondition;
    cond.loc = node.loc;
    out->push_back(cond);
    return;
  }
  // FutureGet timeout: terminal.
}

std::vector<int32_t> CausalGraph::DistancesToObservable(int32_t observable) const {
  std::vector<int32_t> dist(nodes_.size(), kUnreachable);
  std::deque<CausalNodeId> queue;
  for (CausalNodeId sink : observable_sink_nodes_[static_cast<size_t>(observable)]) {
    if (dist[static_cast<size_t>(sink)] == kUnreachable) {
      dist[static_cast<size_t>(sink)] = 0;
      queue.push_back(sink);
    }
  }
  while (!queue.empty()) {
    CausalNodeId id = queue.front();
    queue.pop_front();
    int32_t next = dist[static_cast<size_t>(id)] + 1;
    for (CausalNodeId prior : priors_[static_cast<size_t>(id)]) {
      if (dist[static_cast<size_t>(prior)] > next) {
        dist[static_cast<size_t>(prior)] = next;
        queue.push_back(prior);
      }
    }
  }
  return dist;
}

}  // namespace anduril::analysis
