// The Explorer: ANDURIL's feedback-driven search driver (§3, §5).
//
// Round loop: ask the strategy for a candidate window, execute the workload
// with the window armed, evaluate the oracle, and feed the outcome (injected
// instance + missing observables) back to the strategy. A successful round
// yields a reproduction script that deterministically re-triggers the
// failure.

#ifndef ANDURIL_SRC_EXPLORER_EXPLORER_H_
#define ANDURIL_SRC_EXPLORER_EXPLORER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/explorer/checkpoint.h"
#include "src/explorer/context.h"
#include "src/explorer/experiment.h"
#include "src/explorer/strategy.h"

namespace anduril::explorer {

struct RoundRecord {
  int round = 0;
  int window_size = 0;
  bool injected = false;
  interp::InjectionCandidate candidate;  // valid if injected
  bool success = false;
  double run_seconds = 0;
  double decide_seconds = 0;  // window computation + feedback digestion
  int tracked_rank = -1;      // rank of options.track_site (Fig. 6)
  // How many relevant observables this round's log(s) contained — a proxy
  // for "how close was this run to the production failure" that the chain
  // search ranks stitch candidates by.
  int present_observables = -1;
  int64_t injection_requests = 0;
  int64_t decision_nanos = 0;  // runtime hook latency, cumulative
  // How the round's selected run ended.
  interp::RunOutcome outcome = interp::RunOutcome::kCompleted;
  // Network-fault candidates armed in this round's window (0 unless
  // ExplorerOptions::network_candidates widened the space).
  int network_candidates_tried = 0;
  // Partition sever/heal transitions of the round's selected run (empty
  // unless a partition fault fired).
  std::vector<interp::PartitionTransition> partition_events;
  // Fork accounting over the round's runs through the selected one, in plan
  // order (so the same at any thread count): runs, runs forked from a
  // snapshot of the fault-free run, their interpreter steps, and the steps
  // the forks restored instead of simulating.
  int runs = 0;
  int forked_runs = 0;
  int64_t steps = 0;
  int64_t skipped_steps = 0;
};

// A deterministic recipe for re-triggering the failure (§3 step 4.a).
struct ReproductionScript {
  ir::FaultSiteId site = ir::kInvalidId;
  int64_t occurrence = 0;
  ir::ExceptionTypeId type = ir::kInvalidId;  // kInvalidId for crash/stall
  interp::FaultKind kind = interp::FaultKind::kException;
  uint64_t seed = 0;

  std::string ToText(const ir::Program& program) const;
};

struct ExploreResult {
  bool reproduced = false;
  // The search stopped at a round boundary because ExplorerOptions::cancel
  // flipped (SIGTERM/SIGINT drain): not reproduced, not exhausted — resume
  // from the checkpoint continues exactly where it stopped.
  bool interrupted = false;
  int rounds = 0;  // rounds executed (== index of the successful round)
  double total_seconds = 0;
  double init_seconds = 0;
  std::optional<ReproductionScript> script;
  std::vector<RoundRecord> records;

  // Aggregates for the performance tables.
  int64_t median_injection_requests = 0;
  double mean_decision_nanos = 0;
  double median_round_init_seconds = 0;
  double median_workload_seconds = 0;

  // Final snapshot of ExplorerOptions::metrics at the end of the search
  // (empty when no registry was attached). Deterministic under a fixed seed
  // at any thread count.
  obs::MetricsSnapshot metrics;

  // Set when the search refused to start or stopped early on a checkpoint
  // problem. Refusals run no round: a CheckpointConfig::resume snapshot that
  // does not match this search ("cannot resume: ..." — another program, seed,
  // pinned set, network configuration, candidate space, chain prefix, or a
  // strategy that cannot restore it), or a checkpoint path for a strategy
  // that cannot save its state. A checkpoint file that cannot be written
  // stops the search after the round that tried to write it.
  std::string error;
};

// Checkpoint/resume wiring for a search. With a non-empty `path` the
// explorer serializes a SearchCheckpoint there (atomically, via rename) after
// round 1, after its last permitted round, at a drain, and at least every
// kCheckpointInterval in between (checkpoint.h). With `resume` set it
// restores that state before the first round and continues from
// rounds_completed + 1.
struct CheckpointConfig {
  std::string path;
  const SearchCheckpoint* resume = nullptr;
  // Chain mode (ChainExplorer): the chain search state to persist alongside
  // every snapshot. The explorer copies it and appends one ChainRoundCandidate
  // per injected round of the live inner search, and its `phase` places the
  // search's rounds on the trace timeline (obs::kPhaseStride per phase).
  // Plain searches leave it null (an empty chain is written) and refuse to
  // resume chain-bearing checkpoints.
  const ChainState* chain = nullptr;
};

class Explorer {
 public:
  // Builds the analysis context of `spec` and searches it.
  Explorer(const ExperimentSpec& spec, const ExplorerOptions& options);

  // Searches a previously built analysis context (the shared analysis
  // cache) under the spec it was built from. The static causal graph,
  // distance matrix, and timeline are immutable after construction, so
  // several searches — the service's slices of one case, or explorers on
  // several threads — can share one context instead of re-running the whole
  // static analysis.
  Explorer(std::shared_ptr<const ExplorerContext> context, const ExplorerOptions& options);

  // Runs the search with the given strategy.
  ExploreResult Explore(InjectionStrategy* strategy);
  // Same, with checkpointing and/or resume. Checkpointing requires a
  // strategy that implements SaveState (the feedback family does; the list
  // baselines do not). Any other strategy, and a resume snapshot that does
  // not match this search, return at once with ExploreResult::error set.
  ExploreResult Explore(InjectionStrategy* strategy, const CheckpointConfig& checkpoint);

  const ExplorerContext& context() const { return *context_; }
  // Handle for sharing the analysis with another Explorer.
  std::shared_ptr<const ExplorerContext> shared_context() const { return context_; }

  // Replays a reproduction script; returns true if the oracle holds (used by
  // tests to verify determinism of the emitted script). Honors the spec's
  // pinned faults.
  static bool Replay(const ExperimentSpec& spec, const ReproductionScript& script);

 private:
  ExplorerOptions options_;
  std::shared_ptr<const ExplorerContext> context_;
};

}  // namespace anduril::explorer

#endif  // ANDURIL_SRC_EXPLORER_EXPLORER_H_
