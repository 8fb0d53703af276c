// Incremental stage-1 priority engine of the feedback strategies.
//
// Recomputing
//
//     F_i = min_k ( L_{i,k} + I_k )
//
// for every candidate i over every observable k each round and then sorting
// the whole candidate array costs O(C·K + C log C) per round, which is fine
// at the stock scenarios' 10²–10³ candidates and ruinous at the storm
// scenarios' 10⁴–10⁵. This engine maintains the same quantities
// incrementally in flat structure-of-arrays form, and it is the one holder
// of the observable priorities I_k:
//
//   - The finite entries of L are stored as a CSR matrix (row per candidate,
//     ascending observable ids) plus a reverse CSR (column per observable),
//     so "which candidates can observable k affect" is one contiguous scan.
//   - F_i and its argmin k*_i are cached per candidate. When the feedback
//     digest moves I_k by a delta, only the candidates that can change are
//     recomputed (the dirty set): for a delta > 0 exactly the candidates
//     whose current argmin is k (tracked in per-observable argmin buckets —
//     any other candidate's min term did not move and its non-min term at k
//     only got worse); for a delta < 0 every candidate with a finite L_{i,k}
//     (the reverse-CSR column).
//   - Candidates with untried instances sit in an indexed binary min-heap
//     keyed by (F_i − stitch boost, candidate index), so assembling the
//     priority window pops the top w entries instead of sorting C — the
//     round never touches the full array.
//   - Round-local scratch (the dirty list, popped heap entries) lives in two
//     member vectors that are cleared — not freed — every round.
//
// Tie-breaks are explicit ((F, candidate index) at stage 1; see
// docs/priority_engine.md). tests/golden/search_runs.txt pins the search
// trajectories of every feedback strategy; it was written while a
// from-scratch re-rank still existed and agreed with this engine.

#ifndef ANDURIL_SRC_EXPLORER_PRIORITY_ENGINE_H_
#define ANDURIL_SRC_EXPLORER_PRIORITY_ENGINE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/explorer/context.h"

namespace anduril::explorer {

// Stage-1 "unreachable" sentinel: a candidate with no finite L_{i,k} keeps
// F_i = kPriorityInfinity and never enters the ranking.
inline constexpr int64_t kPriorityInfinity = std::numeric_limits<int64_t>::max() / 4;

// Largest |I_k| a search may hold. A search moves I_k by the feedback
// adjustment at most once per round, so it never gets near; the bound keeps
// all ranking arithmetic far from overflow and every finite L + I (L is an
// int32 graph distance) below kPriorityInfinity — the engine's min and
// stitch boost, the sum ablation's sum over observables, and the multiply
// ablation's product. Checkpoint parsing rejects priorities beyond it.
inline constexpr int64_t kMaxObservablePriority = int64_t{1} << 40;

// Subtracted from the stage-1 F_i of a causally-stitched site (chain mode):
// large enough to outrank any finite L+I (spatial distances are graph-sized,
// priorities grow by the feedback adjustment per round), small enough that
// effective priorities never get near overflow.
inline constexpr int64_t kStitchBoost = 1'000'000'000;

// The stage-1 ordering: ascending effective priority, ties broken by
// candidate index (candidate enumeration order — causal-graph sources first,
// then crash/stall, then network kinds). The engine's heap and the sum
// ablation's from-scratch sort both order by exactly this predicate, so ties
// never depend on heap shape or sort stability.
inline bool Stage1Less(int64_t f_a, size_t a, int64_t f_b, size_t b) {
  return f_a != f_b ? f_a < f_b : a < b;
}

// Synthetic candidate space for benches and fuzz tests (the context-backed
// constructor below lowers the real analysis matrices into this form).
struct EngineSpec {
  size_t observables = 0;
  // Finite L entries per candidate as (observable, distance), ascending
  // observable id within a row.
  std::vector<std::vector<std::pair<uint32_t, int64_t>>> rows;
  // Stage-1 boost per candidate (0 or kStitchBoost); empty = all zero.
  std::vector<int64_t> boosts;
  // Untried-instance budget per candidate; a candidate leaves the heap when
  // it reaches zero.
  std::vector<int64_t> instance_counts;
};

class PriorityEngine {
 public:
  explicit PriorityEngine(EngineSpec spec);

  // Lowers the context's candidate/observable matrices. Candidates of a
  // stitched site get kStitchBoost; instance budgets come from the
  // fault-free trace. The engine then indexes armed instances back to
  // candidate rows, so NoteTried() works on interp::InjectionCandidate.
  PriorityEngine(const ExplorerContext& context,
                 const std::unordered_set<ir::FaultSiteId>& stitched_sites);

  // Installs `priorities` (one I_k per observable) and recomputes every
  // F_i from scratch; also restores every candidate's untried budget and
  // rebuilds the heap. Used at Initialize and checkpoint restore — after a
  // restore the caller replays NoteTried over the tried set.
  void Reset(const std::vector<int64_t>& priorities);

  // Applies feedback deltas (observable, signed change) and recomputes only
  // the dirty candidates. Exact: after the call every F_i / k*_i equals what
  // Reset() with the same final priorities would produce (the fuzz test's
  // invariant).
  void ApplyDeltas(const std::vector<std::pair<size_t, int64_t>>& deltas);

  // Marks one dynamic instance of `armed` tried. Call once per fresh
  // TriedSet insert only — the engine counts down the candidate's untried
  // budget and deactivates it at zero. Unknown (site, type, kind) triples
  // and occurrences outside the fault-free trace are ignored (such instances
  // never appear in any window).
  void NoteTried(const interp::InjectionCandidate& armed);
  void NoteTriedIndex(size_t candidate);

  bool AnyActive() const { return !heap_.empty(); }

  // Visits candidates that still have untried instances in stage-1 order
  // until `visit` returns false. Arguments: candidate index and its argmin
  // observable k*. Bounded top-k: visiting w candidates costs O(w log C).
  void VisitActive(const std::function<bool(size_t candidate, size_t best_observable)>& visit);

  // 1-based rank of `site`'s best candidate among all finite candidates
  // (tried or not): its position in a full stage-1 sort. -1 when the site
  // has no finite candidate.
  int RankOfSite(ir::FaultSiteId site) const;

  // Order-sensitive digest of the current ranking: every finite candidate's
  // (index, effective F, k*) in index order. The search-trajectory golden
  // pins the per-round sequence of these.
  uint64_t RankAuditHash() const;

  size_t num_candidates() const { return f_.size(); }
  size_t num_observables() const { return num_observables_; }
  bool Finite(size_t candidate) const { return finite_[candidate] != 0; }
  // F_i minus the stitch boost (kPriorityInfinity when unreachable).
  int64_t EffectivePriority(size_t candidate) const {
    return finite_[candidate] != 0 ? f_[candidate] - boost_[candidate] : kPriorityInfinity;
  }
  int64_t Untried(size_t candidate) const { return untried_[candidate]; }
  const std::vector<int64_t>& priorities() const { return priorities_; }

 private:
  void BuildFromSpec(EngineSpec spec);
  // Recomputes F_i / k*_i for one candidate from its CSR row and fixes its
  // argmin bucket and heap position.
  void RecomputeRow(uint32_t candidate);

  void BucketInsert(uint32_t candidate);
  void BucketRemove(uint32_t candidate);

  bool HeapLess(uint32_t a, uint32_t b) const {
    return Stage1Less(f_[a] - boost_[a], a, f_[b] - boost_[b], b);
  }
  void HeapPush(uint32_t candidate);
  void HeapRemove(uint32_t candidate);
  void HeapSiftUp(size_t pos);
  void HeapSiftDown(size_t pos);
  void HeapFix(uint32_t candidate);

  static constexpr uint32_t kNoPos = std::numeric_limits<uint32_t>::max();

  size_t num_observables_ = 0;

  // CSR over the finite entries of L: row i spans
  // [row_begin_[i], row_begin_[i+1]) of col_obs_/col_dist_, ascending k.
  std::vector<uint32_t> row_begin_;
  std::vector<uint32_t> col_obs_;
  std::vector<int64_t> col_dist_;
  // Reverse CSR: column k spans [obs_begin_[k], obs_begin_[k+1]) of
  // obs_rows_ (candidate ids with finite L_{i,k}).
  std::vector<uint32_t> obs_begin_;
  std::vector<uint32_t> obs_rows_;

  // Per-candidate SoA state.
  std::vector<int64_t> f_;          // cached F_i (no boost applied)
  std::vector<uint32_t> bestk_;     // argmin k*_i (0 when unreachable)
  std::vector<int64_t> boost_;      // stage-1 boost (stitched sites)
  std::vector<uint8_t> finite_;     // has any finite L entry
  std::vector<int64_t> untried_;    // untried-instance budget
  std::vector<int64_t> initial_untried_;
  std::vector<ir::FaultSiteId> site_of_;  // context engines; empty for specs

  // Current I_k per observable.
  std::vector<int64_t> priorities_;

  // Argmin buckets: bucket_[k] lists the finite candidates whose current
  // argmin is k; bucket_pos_[i] is i's position in its bucket (swap-remove).
  std::vector<std::vector<uint32_t>> bucket_;
  std::vector<uint32_t> bucket_pos_;

  // Indexed binary min-heap over active candidates (untried > 0, finite).
  std::vector<uint32_t> heap_;
  std::vector<uint32_t> heap_pos_;

  // Dirty-set dedup: mark_[i] == epoch_ means already collected this batch.
  std::vector<uint32_t> mark_;
  uint32_t epoch_ = 0;

  // Armed-instance identity → candidate rows (context engines). Keyed by
  // (site, armed type, kind) exactly like the TriedSet, minus occurrence.
  struct ArmedKey {
    ir::FaultSiteId site;
    ir::ExceptionTypeId type;
    interp::FaultKind kind;
    friend bool operator==(const ArmedKey&, const ArmedKey&) = default;
  };
  struct ArmedKeyHash {
    size_t operator()(const ArmedKey& key) const {
      size_t h = static_cast<size_t>(key.site);
      h = h * 1000003u + static_cast<size_t>(key.type + 1);
      h = h * 1000003u + static_cast<size_t>(key.kind);
      return h;
    }
  };
  std::unordered_map<ArmedKey, std::vector<uint32_t>, ArmedKeyHash> armed_index_;

  // Round-local scratch, cleared on entry: ApplyDeltas' dirty set and
  // VisitActive's popped entries. Capacity survives, so steady-state rounds
  // allocate nothing.
  std::vector<uint32_t> dirty_;
  std::vector<uint32_t> popped_;
};

}  // namespace anduril::explorer

#endif  // ANDURIL_SRC_EXPLORER_PRIORITY_ENGINE_H_
