// Static causal graph construction (paper §4.1, Algorithm 1).
//
// Starting from sink nodes (program points that produce the relevant
// observables), the builder recursively computes "causally prior" nodes:
//
//   location    — prior: enclosing conditions / handlers, preceding awaits,
//                 and the invocation (method entry)
//   condition   — prior: location priors + jumping slicing (all writers and
//                 signallers of the condition's variables, program-wide)
//   invocation  — prior: every call site of the method
//   handler     — prior: origins of the exceptions the clause catches
//                 (intra- and inter-procedural, via ExceptionFlow)
//   internal-exception — an exception propagating through an invocation or a
//                 FutureGet; prior: the origins inside the callee / the
//                 submitted task (future semantics)
//   new-exception — `throw new` / timeout origins. Terminal, EXCEPT the
//                 paper's downgrade rule: a throw inside a catch block
//                 continues through that handler, and an await-timeout
//                 continues through its own condition (the timeout happened
//                 because nobody signalled it).
//   external-exception — library-call origin. Terminal: an injectable root
//                 cause.
//
// Sources (new/external exception nodes) are the fault-site candidates; the
// per-sink BFS distances over the cause edges are the spatial distances
// L_{i,k} of §5.2.2.

#ifndef ANDURIL_SRC_ANALYSIS_CAUSAL_GRAPH_H_
#define ANDURIL_SRC_ANALYSIS_CAUSAL_GRAPH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/analysis/exception_flow.h"
#include "src/analysis/indexes.h"
#include "src/ir/program.h"

namespace anduril::analysis {

enum class CausalNodeKind : uint8_t {
  kLocation,
  kCondition,
  kInvocation,   // method entry; loc.method identifies the method
  kHandler,      // loc = the TryCatch statement; aux = clause index
  kInternalExc,  // loc = the Invoke/FutureGet statement; aux = exception type
  kNewExc,       // loc = Throw/Await/FutureGet; aux = exception type
  kExternalExc,  // loc = ExternalCall; aux = exception type
};

struct CausalNode {
  CausalNodeKind kind = CausalNodeKind::kLocation;
  ir::GlobalStmt loc;
  int32_t aux = -1;

  friend bool operator==(const CausalNode&, const CausalNode&) = default;
};

using CausalNodeId = int32_t;

// A sink: a program point whose execution produces a relevant observable.
struct CausalSink {
  // Index of the observable this sink belongs to (explorer-side key list).
  int32_t observable = -1;
  // Either a Log statement location...
  ir::GlobalStmt log_stmt;
  // ...or a fault site named directly by the log (uncaught-exception stack
  // traces). kInvalidId if unused.
  ir::FaultSiteId direct_site = ir::kInvalidId;
  // Exception type parsed from the log for a direct site (optional).
  ir::ExceptionTypeId direct_type = ir::kInvalidId;
};

struct CausalGraphStats {
  double exception_seconds = 0;  // exception-flow fixpoint
  double slicing_seconds = 0;    // write-index construction
  double chaining_seconds = 0;   // worklist expansion (Algorithm 1)
  int64_t vertices = 0;
  int64_t edges = 0;
  int64_t inferred_fault_sites = 0;  // distinct fault sites among sources
};

class CausalGraph {
 public:
  // Builds the graph for `sinks`. ExceptionFlow and ProgramIndexes are
  // constructed internally (their times are reported in `stats`).
  CausalGraph(const ir::Program& program, const std::vector<CausalSink>& sinks);

  const CausalGraphStats& stats() const { return stats_; }
  size_t node_count() const { return nodes_.size(); }
  const CausalNode& node(CausalNodeId id) const { return nodes_[static_cast<size_t>(id)]; }
  const std::vector<CausalNodeId>& priors(CausalNodeId id) const {
    return priors_[static_cast<size_t>(id)];
  }

  // Source nodes that correspond to static fault sites, and their site ids.
  struct SourceSite {
    CausalNodeId node = -1;
    ir::FaultSiteId site = ir::kInvalidId;
    ir::ExceptionTypeId type = ir::kInvalidId;
  };
  const std::vector<SourceSite>& sources() const { return sources_; }

  // For observable k (0..num_observables-1): BFS distance from each node to
  // the nearest sink of that observable, following cause edges backwards.
  // Returns kUnreachable for unreachable nodes.
  static constexpr int32_t kUnreachable = INT32_MAX;
  std::vector<int32_t> DistancesToObservable(int32_t observable) const;
  int32_t num_observables() const { return num_observables_; }

 private:
  struct NodeHash {
    size_t operator()(const CausalNode& n) const {
      size_t h = static_cast<size_t>(n.kind);
      h = h * 1000003u + static_cast<size_t>(n.loc.method + 1);
      h = h * 1000003u + static_cast<size_t>(n.loc.stmt + 1);
      h = h * 1000003u + static_cast<size_t>(n.aux + 1);
      return h;
    }
  };

  CausalNodeId GetOrAdd(const CausalNode& node, std::vector<CausalNodeId>* worklist);
  void AddEdge(CausalNodeId prior, CausalNodeId node);
  void ExpandNode(CausalNodeId id, std::vector<CausalNodeId>* worklist);

  // Per-kind prior computations.
  void AddDominatorThrowers(const ir::Method& method, ir::StmtId stmt_id,
                            std::vector<CausalNode>* out) const;
  void LocationPriors(const CausalNode& node, std::vector<CausalNode>* out) const;
  void ConditionPriors(const CausalNode& node, std::vector<CausalNode>* out) const;
  void InvocationPriors(const CausalNode& node, std::vector<CausalNode>* out) const;
  void HandlerPriors(const CausalNode& node, std::vector<CausalNode>* out) const;
  void InternalExcPriors(const CausalNode& node, std::vector<CausalNode>* out) const;
  void NewExcPriors(const CausalNode& node, std::vector<CausalNode>* out) const;
  // Maps a ThrowOrigin in `method` to the causal node representing it.
  CausalNode OriginToNode(ir::MethodId method, const ThrowOrigin& origin) const;

  const ir::Program& program_;
  std::unique_ptr<ExceptionFlow> exception_flow_;
  std::unique_ptr<ProgramIndexes> indexes_;

  std::vector<CausalNode> nodes_;
  std::vector<std::vector<CausalNodeId>> priors_;
  std::unordered_map<CausalNode, CausalNodeId, NodeHash> index_;
  std::vector<SourceSite> sources_;
  std::vector<std::vector<CausalNodeId>> observable_sink_nodes_;  // per observable
  int32_t num_observables_ = 0;
  CausalGraphStats stats_;
};

}  // namespace anduril::analysis

#endif  // ANDURIL_SRC_ANALYSIS_CAUSAL_GRAPH_H_
