// Traced replicas of the program's search loops, re-driven from public calls
// with a span around every call into a module, plus the one-off measurements
// the traced pass takes beside them.

#ifndef REPROBENCH_REPLICA_H_
#define REPROBENCH_REPLICA_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "reprobench/spans.h"
#include "src/explorer/context.h"
#include "src/explorer/experiment.h"
#include "src/explorer/explorer.h"
#include "src/explorer/iterative.h"
#include "src/util/thread_pool.h"

namespace reprobench {

// Counts taken where the work happens, summed over every traced search.
struct ReplicaCounters {
  int64_t rounds = 0;
  int64_t injected_rounds = 0;  // the selected run's window fired
  int64_t wedged_rounds = 0;    // the selected run crashed, hung or stayed partitioned
  int64_t runs = 0;
  int64_t log_lines = 0;
  int64_t injection_requests = 0;
};

struct ReplicaEnv {
  SpanRecorder* spans = nullptr;
  ReplicaCounters* counters = nullptr;
};

struct ReplicaSearch {
  bool reproduced = false;
  int rounds = 0;
  std::optional<anduril::explorer::ReproductionScript> script;
  // One per finished round, for the chain replica's stitch pick.
  struct Round {
    int round = 0;
    bool injected = false;
    anduril::interp::InjectionCandidate candidate;
    int present_observables = -1;
  };
  std::vector<Round> records;
  // The window armed in each round, for replaying the round plans.
  std::vector<std::vector<anduril::interp::InjectionCandidate>> windows;
  std::shared_ptr<const anduril::explorer::ExplorerContext> context;
};

// Explorer::Explore with the full-feedback strategy, round by round:
// NextWindow, Simulator::Run and the oracle per plan item (on a
// util::ThreadPool when options.num_threads > 1), then format/parse/keys,
// PresentKeys and OnRound.
ReplicaSearch TracedExplore(const anduril::explorer::ExperimentSpec& spec,
                            const anduril::explorer::ExplorerOptions& options,
                            const std::vector<anduril::ir::FaultSiteId>& stitched_sites,
                            const ReplicaEnv& env);

// ChainExplorer::Explore, phase by phase over TracedExplore.
anduril::explorer::ChainResult TracedChainExplore(
    const anduril::explorer::ExperimentSpec& spec,
    const anduril::explorer::ExplorerOptions& options, int max_chain_length,
    const ReplicaEnv& env);

// The ExplorerContext constructor's parts, each timed on its own, then the
// constructor itself.
struct ContextParts {
  double parse_failure_log_ms = 0;
  double flatten_ms = 0;
  double baseline_run_ms = 0;
  double parse_normal_log_ms = 0;
  double compare_ms = 0;
  double observable_map_ms = 0;
  double causal_graph_ms = 0;
  double exception_ms = 0;  // phases of causal_graph_ms, from CausalGraph::stats()
  double slicing_ms = 0;
  double chaining_ms = 0;
  double distances_ms = 0;
  double align_ms = 0;
  double constructor_ms = 0;
  int64_t candidates = 0;
  int64_t observables = 0;
  int64_t dynamic_instances = 0;

  // The parts that together make up the constructor.
  double PartsMs() const;
  ContextParts& operator+=(const ContextParts& other);
};

struct Decomposition {
  ContextParts parts;
  std::shared_ptr<const anduril::explorer::ExplorerContext> context;
};

Decomposition DecomposeContext(const anduril::explorer::ExperimentSpec& spec,
                               const anduril::explorer::ExplorerOptions& options);

// FaultRuntime::OnExternalCallFast / OnSendFast decisions replayed in whole
// batches over the fault-free run's instance trace, with the first window
// candidates armed (never reached, so nothing fires).
struct HookBatch {
  int64_t nanos = 0;
  int64_t requests = 0;
};
HookBatch TimeHookBatch(const anduril::explorer::ExplorerContext& context, int64_t min_requests);

// Runs every round plan of a search (every item, no early stop) once
// serially and once on `pool`. Returns {serial_ns, pooled_ns}.
std::pair<int64_t, int64_t> TimePlans(
    const anduril::explorer::ExperimentSpec& spec,
    const anduril::explorer::ExplorerOptions& options,
    const std::vector<std::vector<anduril::interp::InjectionCandidate>>& windows,
    anduril::ThreadPool* pool);

}  // namespace reprobench

#endif  // REPROBENCH_REPLICA_H_
