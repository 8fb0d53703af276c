// Multi-fault reproduction (paper §3 "Assumptions" / §6) as ordered fault
// chains with causal stitching.
//
// ANDURIL injects a single fault per run, so a failure that needs several
// root-cause faults cannot be reproduced in one search. The paper's
// prescribed workflow: run ANDURIL; if the symptom is not reproduced, take
// the round whose logs came *closest* to the production failure log, fix
// that round's fault into the workload, and run ANDURIL again — one fault at
// a time.
//
// ChainExplorer automates that loop (CSnake-style) over an *ordered*
// FaultChain. Each phase rebuilds the analysis context with the accepted
// chain prefix pinned into the baseline, because the context's instance
// estimates come from its fault-free run: without the prefix, a fault site
// that only executes while an earlier fault is active has no instances and
// is never armed. Between phases it runs a *stitch run* for the most
// promising injected candidate (prefix + candidate pinned, no window) and
// accepts the candidate as the next chain step only if the stitch run
// genuinely moved the system: it flipped relevant observables or executed
// fault sites the phase baseline never reached. Those newly-executed sites
// are the causal stitches — they seed the next phase's candidate ranking via
// InjectionStrategy::SeedStitchedSites.

#ifndef ANDURIL_SRC_EXPLORER_ITERATIVE_H_
#define ANDURIL_SRC_EXPLORER_ITERATIVE_H_

#include <string>
#include <vector>

#include "src/explorer/explorer.h"
#include "src/interp/run_result.h"

namespace anduril::explorer {

// An ordered sequence of faults (FaultChainStep, checkpoint.h) that together
// reproduce a multi-fault failure. In a cascade, order matters: step N's
// candidate typically has no dynamic instance until steps 1..N-1 fired.
struct FaultChain {
  std::vector<FaultChainStep> steps;
  friend bool operator==(const FaultChain&, const FaultChain&) = default;
};

struct ChainResult {
  bool reproduced = false;
  // ExplorerOptions::cancel flipped mid-search: the chain search stopped at a
  // round boundary (checkpoint flushed, like a kill) and can be resumed.
  bool interrupted = false;
  // On success the full ordered chain; the last step is the window injection
  // that satisfied the oracle.
  FaultChain chain;
  int total_rounds = 0;
  int phases = 0;  // searches executed (1 = single-fault success)
  // Stitch candidates discarded because their stitch run wedged (hung or
  // partition-stuck): a wedged intermediate step demotes the whole chain
  // candidate, not just the step.
  int demoted_chain_candidates = 0;
  // Set when the search refused to resume (the checkpoint is longer than
  // max_chain_length or does not match this search; no round ran) or a
  // phase's search failed on its checkpoint (ExploreResult::error).
  std::string error;
};

// Result of one chain-stitch run: the accepted chain prefix plus one
// candidate, all pinned, no window, at the experiment's base seed.
struct StitchRunResult {
  interp::RunResult run;
  // The run hung or got partition-stuck: extending the chain through this
  // candidate wedges the system, so the whole chain candidate is demoted.
  bool demote_chain = false;
};

// Executes the stitch run for `candidate` over `spec` (whose pinned_faults
// hold the accepted chain prefix). Exposed for tests; ChainExplorer calls it
// between phases. The unread options parameter stays for reprobench's calls.
StitchRunResult RunChainStitch(const ExperimentSpec& spec,
                               const interp::InjectionCandidate& candidate,
                               const ExplorerOptions& /*options*/);

// Ordered-chain search (header comment above). Deterministic under a fixed
// seed at any thread count; supports checkpoint/resume mid-chain via the v3
// chain block.
class ChainExplorer {
 public:
  ChainExplorer(const ExperimentSpec& spec, const ExplorerOptions& options)
      : spec_(spec), options_(options) {}

  // Searches chains of up to `max_chain_length` steps (>= 1).
  ChainResult Explore(int max_chain_length);
  ChainResult Explore(int max_chain_length, const CheckpointConfig& checkpoint);

  // Replays a full chain reproduction: all but the last step pinned, the
  // last as the window injection at its recorded seed.
  static bool Replay(ExperimentSpec spec, const ChainResult& result);

 private:
  ExperimentSpec spec_;  // by value: the accepted prefix is pinned per phase
  ExplorerOptions options_;
};

}  // namespace anduril::explorer

#endif  // ANDURIL_SRC_EXPLORER_ITERATIVE_H_
