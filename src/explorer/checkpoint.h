// Versioned search checkpoints: serialize the Explorer's mutable search
// state at a round boundary so a killed exploration can resume from there.
// The invariant (enforced by tests): a search resumed from a round-N
// checkpoint emits the byte-identical ReproductionScript — and the same total
// round count and final metrics — as the uninterrupted search at the same
// seed.
//
// A checkpoint is a pure function of the search: it holds only the state a
// resume needs and nothing read from the host clock, so two saves of round N
// are byte-identical, whichever process wrote them — the uninterrupted
// search, or one resumed from an earlier round.
//
// Cadence: Explorer::Explore writes the file after round 1 of a search that
// did not resume (so an unwritable path stops it at once), after the last
// round its call may run (ExplorerOptions::max_rounds: a slice's or a chain
// phase's cap), at a cooperative drain before it returns, and otherwise once
// kCheckpointInterval has passed since its last save. A SIGKILL therefore
// loses at most kCheckpointInterval plus one round of search; the resume
// replays the lost rounds deterministically. A success or an exhausted
// candidate space writes nothing new. Which rounds get saved depends on wall
// time, so nothing deterministic (metrics, trace, RoundRecord) may depend on
// it.
//
// The format is JSON:
//
//   {
//     "version": 5,
//     "program_fingerprint": "<u64>",   // guards against program drift
//     "base_seed": "<u64>",             // u64s ride as decimal strings:
//                                       // no 2^53 precision loss
//     "rounds_completed": N,
//     "network": {                      // network fault configuration
//       "candidates": bool,             // ExplorerOptions::network_candidates
//       "partition_heal_ms": N,         // ClusterSpec::partition_heal_ms
//       "network_delay_ms": N           // ClusterSpec::network_delay_ms
//     },
//     "pinned": [ {site, occurrence, type, kind}, ... ],
//     "strategy": {
//       "window_size": k, "exhausted": bool,   // k >= 1
//       "observable_priorities": [ ... ],   // context observable order; each
//                                           // within ±kMaxObservablePriority
//       "tried": [ {site, occurrence, type, kind}, ... ],
//       "demotions": [ {candidate: {...}, count}, ... ]
//     },
//     "chain": {                        // ChainExplorer search state
//       "steps": [ {candidate: {...}, seed: "<u64>", rounds: N,
//                   stitched_observables: ["key", ...]}, ... ],
//       "phase": N,                     // completed chain phases
//       "rounds_before_phase": N,       // rounds consumed by completed phases
//       "stitched_sites": [ id, ... ],  // sites the last stitch run exposed
//       "round_candidates": [           // injected rounds of the live phase
//         {candidate: {...}, present_observables: N, round: N}, ... ]
//     },
//     "chain_signature_hash": "<u64>",  // FNV-1a over the chain steps;
//                                       // detects a tampered/corrupt chain
//     "engine": {                       // the candidate space the stage-1
//       "candidates": N,                // ranking engine ranked
//       "observables": N
//     },
//     "metrics": { counters/gauges/histograms }   // only present when a
//                                                 // MetricsRegistry was
//                                                 // attached
//   }
//
// Candidate identity uses numeric ids, which are deterministic functions of
// the program build; the fingerprint rejects checkpoints from a different
// program. Plain (non-chain) searches write an empty chain. The ranking
// engine's state (F_i, argmin k*, untried budgets, heap) is derivable from
// (observable_priorities, tried), so the checkpoint stores no engine arrays —
// restore recomputes them — but it records the candidate and observable
// counts the engine saw, and resume validates both against the live search:
// resuming over a differently-built candidate space would break the
// byte-identical-resume invariant silently. How each round ended is tallied
// once, in the metrics snapshot (explore.outcome.*). Parsing refuses search
// state no search can reach: a window below one candidate, or an observable
// priority the ranking arithmetic could overflow on. Files are neither
// forward nor backward compatible: every other version is refused, with an
// error that names both versions and says to delete the stale checkpoint,
// rather than silently resumed into a different search space.

#ifndef ANDURIL_SRC_EXPLORER_CHECKPOINT_H_
#define ANDURIL_SRC_EXPLORER_CHECKPOINT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/explorer/strategy.h"
#include "src/interp/fault_runtime.h"
#include "src/ir/program.h"
#include "src/obs/metrics.h"

namespace anduril::explorer {

inline constexpr int kCheckpointVersion = 5;

// Longest a search runs between checkpoint saves, plus the round that
// crosses it (see the cadence above). The service's heartbeat timeout must
// exceed it: a worker's checkpoint mtime is its liveness signal.
inline constexpr std::chrono::milliseconds kCheckpointInterval{100};

// One accepted step of an ordered fault chain (ChainExplorer, iterative.h),
// as both the search result and the checkpoint's chain block record it.
// `seed` is the seed of the run that validated the step: the stitch run
// (== base_seed) for intermediate steps, the successful search round's seed
// for the final step.
struct FaultChainStep {
  interp::InjectionCandidate candidate;
  uint64_t seed = 0;
  int rounds = 0;  // search rounds the step's phase consumed
  // Relevant observable keys the step's stitch run newly flipped (empty for
  // the final step — its run satisfied the oracle outright).
  std::vector<std::string> stitched_observables;
  friend bool operator==(const FaultChainStep&, const FaultChainStep&) = default;
};

// Summary of one injected (unsuccessful) round of the live chain phase.
// Persisting these makes mid-chain resume byte-identical even when the kill
// lands between the inner search capping out and the stitch decision.
struct ChainRoundCandidate {
  interp::InjectionCandidate candidate;
  int present_observables = -1;
  int round = 0;
  friend bool operator==(const ChainRoundCandidate&, const ChainRoundCandidate&) = default;
};

// Complete ChainExplorer search state. Empty for plain searches.
struct ChainState {
  std::vector<FaultChainStep> steps;       // accepted chain prefix, in order
  int phase = 0;                           // completed phases
  int rounds_before_phase = 0;             // rounds consumed by completed phases
  std::vector<ir::FaultSiteId> stitched_sites;  // seeds for the live phase
  std::vector<ChainRoundCandidate> round_candidates;
  bool empty() const {
    return steps.empty() && phase == 0 && rounds_before_phase == 0 &&
           stitched_sites.empty() && round_candidates.empty();
  }
  friend bool operator==(const ChainState&, const ChainState&) = default;
};

// FNV-1a over the chain's accepted steps (site/occurrence/type/kind, seed,
// rounds, stitched observables). Serialized next to the chain block and
// re-verified on parse: a hand-edited or bit-rotted chain prefix fails fast
// instead of resuming a subtly different search.
uint64_t ChainSignatureHash(const ChainState& chain);

struct SearchCheckpoint {
  uint64_t program_fingerprint = 0;
  uint64_t base_seed = 0;
  int rounds_completed = 0;
  // Network-fault configuration active when the checkpoint was written.
  // Resume validates these against the live options/cluster — a mismatch
  // would change the candidate space or message timing and silently break
  // the byte-identical-resume invariant.
  bool network_candidates = false;
  int64_t partition_heal_ms = 0;
  int64_t network_delay_ms = 0;
  std::vector<interp::InjectionCandidate> pinned;
  StrategyCheckpoint strategy;
  // Chain search state (empty for plain searches). SerializeCheckpoint
  // writes its ChainSignatureHash beside it, and ParseCheckpoint refuses a
  // file whose chain does not hash to the recorded value.
  ChainState chain;
  // The candidate space the stage-1 ranking engine ranked. Validation
  // metadata, not bulk state — see the header comment.
  int64_t engine_candidates = 0;
  int64_t engine_observables = 0;
  // Snapshot of the attached MetricsRegistry at the end of the checkpointed
  // round. Serialized only when `has_metrics`; parsing a checkpoint without
  // a "metrics" member leaves it false, so files written by metric-less
  // searches round-trip byte-identically. Restoring it on resume
  // *overwrites* the live registry — the snapshot already accounts for
  // everything the resuming process re-recorded while rebuilding its
  // context — which is what makes the final metrics dump of an
  // interrupted+resumed search byte-identical to the uninterrupted one.
  bool has_metrics = false;
  obs::MetricsSnapshot metrics;
};

// Stable fingerprint of the program shape (fault sites, exception types):
// enough to catch "this checkpoint came from a different build of the
// scenario" without hashing the whole IR.
uint64_t ProgramFingerprint(const ir::Program& program);

// Why `checkpoint` cannot resume a search over `program` — it was written
// for a different program build — or "" when it can.
// Explorer::Explore validates the rest of the search configuration.
std::string CheckpointProgramMismatch(const SearchCheckpoint& checkpoint,
                                      const ir::Program& program);

std::string SerializeCheckpoint(const SearchCheckpoint& checkpoint);
// Returns false (and fills *error) on malformed input or version mismatch.
bool ParseCheckpoint(const std::string& text, SearchCheckpoint* out, std::string* error);

bool SaveCheckpointFile(const std::string& path, const SearchCheckpoint& checkpoint);
bool LoadCheckpointFile(const std::string& path, SearchCheckpoint* out, std::string* error);

}  // namespace anduril::explorer

#endif  // ANDURIL_SRC_EXPLORER_CHECKPOINT_H_
