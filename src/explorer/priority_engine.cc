#include "src/explorer/priority_engine.h"

#include <algorithm>

#include "src/util/check.h"
#include "src/util/hash.h"

namespace anduril::explorer {

PriorityEngine::PriorityEngine(EngineSpec spec) { BuildFromSpec(std::move(spec)); }

PriorityEngine::PriorityEngine(const ExplorerContext& context,
                               const std::unordered_set<ir::FaultSiteId>& stitched_sites) {
  const auto& candidates = context.candidates();
  const size_t num_observables = context.observables().size();

  EngineSpec spec;
  spec.observables = num_observables;
  spec.rows.resize(candidates.size());
  spec.boosts.resize(candidates.size(), 0);
  spec.instance_counts.resize(candidates.size(), 0);
  site_of_.resize(candidates.size());

  for (size_t i = 0; i < candidates.size(); ++i) {
    const FaultCandidate& candidate = candidates[i];
    site_of_[i] = candidate.site;
    for (size_t k = 0; k < num_observables; ++k) {
      int32_t distance = context.Distance(i, k);
      if (distance != analysis::CausalGraph::kUnreachable) {
        spec.rows[i].emplace_back(static_cast<uint32_t>(k), static_cast<int64_t>(distance));
      }
    }
    if (stitched_sites.count(candidate.site) != 0) {
      spec.boosts[i] = kStitchBoost;
    }
    const auto& instances = context.InstancesOf(candidate.site);
    // The untried budget leans on the runtime's dense occurrence numbering:
    // the n instances of a site in the fault-free trace carry occurrences
    // exactly 1..n, so "occurrence in [1, n]" is the same predicate as
    // "one of InstancesOf(site)", which the strategies' stage 2 scans.
    for (size_t j = 0; j < instances.size(); ++j) {
      ANDURIL_CHECK(instances[j].occurrence == static_cast<int64_t>(j) + 1)
          << "fault-free trace occurrences are not dense for site " << candidate.site;
    }
    spec.instance_counts[i] = static_cast<int64_t>(instances.size());

    const interp::InjectionCandidate armed = Arm(candidate, 1);
    armed_index_[ArmedKey{armed.site, armed.type, armed.kind}].push_back(
        static_cast<uint32_t>(i));
  }
  BuildFromSpec(std::move(spec));
}

void PriorityEngine::BuildFromSpec(EngineSpec spec) {
  const size_t n = spec.rows.size();
  num_observables_ = spec.observables;

  row_begin_.assign(n + 1, 0);
  size_t nnz = 0;
  for (size_t i = 0; i < n; ++i) {
    nnz += spec.rows[i].size();
  }
  col_obs_.reserve(nnz);
  col_dist_.reserve(nnz);
  std::vector<uint32_t> column_sizes(num_observables_, 0);
  for (size_t i = 0; i < n; ++i) {
    row_begin_[i] = static_cast<uint32_t>(col_obs_.size());
    for (const auto& [k, distance] : spec.rows[i]) {
      ANDURIL_CHECK(k < num_observables_)
          << "engine spec row references observable " << k << " of " << num_observables_;
      col_obs_.push_back(k);
      col_dist_.push_back(distance);
      ++column_sizes[k];
    }
  }
  row_begin_[n] = static_cast<uint32_t>(col_obs_.size());

  obs_begin_.assign(num_observables_ + 1, 0);
  for (size_t k = 0; k < num_observables_; ++k) {
    obs_begin_[k + 1] = obs_begin_[k] + column_sizes[k];
  }
  obs_rows_.resize(nnz);
  std::vector<uint32_t> fill(obs_begin_.begin(), obs_begin_.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t idx = row_begin_[i]; idx < row_begin_[i + 1]; ++idx) {
      obs_rows_[fill[col_obs_[idx]]++] = static_cast<uint32_t>(i);
    }
  }

  f_.assign(n, kPriorityInfinity);
  bestk_.assign(n, 0);
  boost_ = spec.boosts.empty() ? std::vector<int64_t>(n, 0) : std::move(spec.boosts);
  ANDURIL_CHECK(boost_.size() == n) << "engine spec boost size mismatch";
  finite_.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    finite_[i] = row_begin_[i] != row_begin_[i + 1] ? 1 : 0;
  }
  initial_untried_ = std::move(spec.instance_counts);
  ANDURIL_CHECK(initial_untried_.size() == n) << "engine spec instance count size mismatch";
  untried_ = initial_untried_;

  bucket_.assign(num_observables_, {});
  bucket_pos_.assign(n, kNoPos);
  heap_pos_.assign(n, kNoPos);
  mark_.assign(n, 0);

  Reset(std::vector<int64_t>(num_observables_, 0));
}

void PriorityEngine::Reset(const std::vector<int64_t>& priorities) {
  ANDURIL_CHECK(priorities.size() == num_observables_)
      << "engine reset with " << priorities.size() << " priorities for " << num_observables_
      << " observables";
  priorities_ = priorities;
  untried_ = initial_untried_;

  for (auto& bucket : bucket_) {
    bucket.clear();
  }
  heap_.clear();
  const size_t n = f_.size();
  for (size_t i = 0; i < n; ++i) {
    bucket_pos_[i] = kNoPos;
    heap_pos_[i] = kNoPos;
  }
  for (size_t i = 0; i < n; ++i) {
    if (finite_[i] == 0) {
      continue;
    }
    int64_t best = kPriorityInfinity;
    uint32_t best_k = 0;
    for (uint32_t idx = row_begin_[i]; idx < row_begin_[i + 1]; ++idx) {
      int64_t value = col_dist_[idx] + priorities_[col_obs_[idx]];
      if (value < best) {
        best = value;
        best_k = col_obs_[idx];
      }
    }
    f_[i] = best;
    bestk_[i] = best_k;
    BucketInsert(static_cast<uint32_t>(i));
    if (untried_[i] > 0) {
      HeapPush(static_cast<uint32_t>(i));
    }
  }
}

void PriorityEngine::ApplyDeltas(const std::vector<std::pair<size_t, int64_t>>& deltas) {
  dirty_.clear();
  ++epoch_;
  if (epoch_ == 0) {  // wrapped: invalidate every stale mark
    std::fill(mark_.begin(), mark_.end(), 0);
    epoch_ = 1;
  }

  // Collect the dirty set against the *pre-update* argmin buckets, then
  // apply every priority move, then recompute. Each dirty row is recomputed
  // once from the final priorities, so overlapping deltas compose exactly.
  for (const auto& [k, delta] : deltas) {
    ANDURIL_CHECK(k < num_observables_)
        << "feedback delta for observable " << k << " of " << num_observables_;
    if (delta == 0) {
      continue;
    }
    if (delta > 0) {
      // I_k got worse: only rows whose current minimum runs through k can
      // change (any other row's value at k stays >= its minimum).
      for (uint32_t candidate : bucket_[k]) {
        if (mark_[candidate] != epoch_) {
          mark_[candidate] = epoch_;
          dirty_.push_back(candidate);
        }
      }
    } else {
      // I_k improved: any row with a finite entry at k may gain a new min.
      for (uint32_t idx = obs_begin_[k]; idx < obs_begin_[k + 1]; ++idx) {
        uint32_t candidate = obs_rows_[idx];
        if (mark_[candidate] != epoch_) {
          mark_[candidate] = epoch_;
          dirty_.push_back(candidate);
        }
      }
    }
  }
  for (const auto& [k, delta] : deltas) {
    priorities_[k] += delta;
  }
  for (uint32_t candidate : dirty_) {
    RecomputeRow(candidate);
  }
}

void PriorityEngine::RecomputeRow(uint32_t candidate) {
  int64_t best = kPriorityInfinity;
  uint32_t best_k = 0;
  for (uint32_t idx = row_begin_[candidate]; idx < row_begin_[candidate + 1]; ++idx) {
    int64_t value = col_dist_[idx] + priorities_[col_obs_[idx]];
    if (value < best) {
      best = value;
      best_k = col_obs_[idx];
    }
  }
  f_[candidate] = best;
  if (best_k != bestk_[candidate]) {
    BucketRemove(candidate);
    bestk_[candidate] = best_k;
    BucketInsert(candidate);
  }
  if (heap_pos_[candidate] != kNoPos) {
    HeapFix(candidate);
  }
}

void PriorityEngine::NoteTried(const interp::InjectionCandidate& armed) {
  auto it = armed_index_.find(ArmedKey{armed.site, armed.type, armed.kind});
  if (it == armed_index_.end()) {
    return;
  }
  for (uint32_t candidate : it->second) {
    if (armed.occurrence >= 1 && armed.occurrence <= initial_untried_[candidate]) {
      NoteTriedIndex(candidate);
    }
  }
}

void PriorityEngine::NoteTriedIndex(size_t candidate) {
  if (untried_[candidate] <= 0) {
    return;
  }
  if (--untried_[candidate] == 0 && heap_pos_[candidate] != kNoPos) {
    HeapRemove(static_cast<uint32_t>(candidate));
  }
}

void PriorityEngine::VisitActive(
    const std::function<bool(size_t candidate, size_t best_observable)>& visit) {
  popped_.clear();
  bool keep_going = true;
  while (keep_going && !heap_.empty()) {
    uint32_t candidate = heap_.front();
    HeapRemove(candidate);
    popped_.push_back(candidate);
    keep_going = visit(candidate, bestk_[candidate]);
  }
  for (uint32_t candidate : popped_) {
    HeapPush(candidate);
  }
}

int PriorityEngine::RankOfSite(ir::FaultSiteId site) const {
  // Best (lowest stage-1 key) finite candidate of the site, over *all*
  // finite candidates — tried ones keep their rank, as in a full sort.
  const size_t n = f_.size();
  bool found = false;
  int64_t target_f = 0;
  size_t target_i = 0;
  for (size_t i = 0; i < n; ++i) {
    if (finite_[i] == 0 || site_of_[i] != site) {
      continue;
    }
    int64_t f_eff = f_[i] - boost_[i];
    if (!found || Stage1Less(f_eff, i, target_f, target_i)) {
      found = true;
      target_f = f_eff;
      target_i = i;
    }
  }
  if (!found) {
    return -1;
  }
  int rank = 1;
  for (size_t i = 0; i < n; ++i) {
    if (finite_[i] != 0 && Stage1Less(f_[i] - boost_[i], i, target_f, target_i)) {
      ++rank;
    }
  }
  return rank;
}

uint64_t PriorityEngine::RankAuditHash() const {
  Fnv1aHasher hasher;
  const size_t n = f_.size();
  for (size_t i = 0; i < n; ++i) {
    if (finite_[i] == 0) {
      continue;
    }
    hasher.MixInt(static_cast<int64_t>(i));
    hasher.MixInt(f_[i] - boost_[i]);
    hasher.MixInt(static_cast<int64_t>(bestk_[i]));
  }
  return hasher.hash();
}

void PriorityEngine::BucketInsert(uint32_t candidate) {
  std::vector<uint32_t>& bucket = bucket_[bestk_[candidate]];
  bucket_pos_[candidate] = static_cast<uint32_t>(bucket.size());
  bucket.push_back(candidate);
}

void PriorityEngine::BucketRemove(uint32_t candidate) {
  std::vector<uint32_t>& bucket = bucket_[bestk_[candidate]];
  uint32_t pos = bucket_pos_[candidate];
  uint32_t moved = bucket.back();
  bucket[pos] = moved;
  bucket_pos_[moved] = pos;
  bucket.pop_back();
  bucket_pos_[candidate] = kNoPos;
}

void PriorityEngine::HeapPush(uint32_t candidate) {
  heap_pos_[candidate] = static_cast<uint32_t>(heap_.size());
  heap_.push_back(candidate);
  HeapSiftUp(heap_.size() - 1);
}

void PriorityEngine::HeapRemove(uint32_t candidate) {
  size_t pos = heap_pos_[candidate];
  heap_pos_[candidate] = kNoPos;
  uint32_t last = heap_.back();
  heap_.pop_back();
  if (last == candidate) {
    return;
  }
  heap_[pos] = last;
  heap_pos_[last] = static_cast<uint32_t>(pos);
  HeapSiftDown(pos);
  HeapSiftUp(heap_pos_[last]);
}

void PriorityEngine::HeapSiftUp(size_t pos) {
  while (pos > 0) {
    size_t parent = (pos - 1) / 2;
    if (!HeapLess(heap_[pos], heap_[parent])) {
      break;
    }
    std::swap(heap_[pos], heap_[parent]);
    heap_pos_[heap_[pos]] = static_cast<uint32_t>(pos);
    heap_pos_[heap_[parent]] = static_cast<uint32_t>(parent);
    pos = parent;
  }
}

void PriorityEngine::HeapSiftDown(size_t pos) {
  const size_t size = heap_.size();
  while (true) {
    size_t left = pos * 2 + 1;
    if (left >= size) {
      return;
    }
    size_t right = left + 1;
    size_t smallest = (right < size && HeapLess(heap_[right], heap_[left])) ? right : left;
    if (!HeapLess(heap_[smallest], heap_[pos])) {
      return;
    }
    std::swap(heap_[pos], heap_[smallest]);
    heap_pos_[heap_[pos]] = static_cast<uint32_t>(pos);
    heap_pos_[heap_[smallest]] = static_cast<uint32_t>(smallest);
    pos = smallest;
  }
}

void PriorityEngine::HeapFix(uint32_t candidate) {
  size_t pos = heap_pos_[candidate];
  HeapSiftUp(pos);
  HeapSiftDown(heap_pos_[candidate]);
}

}  // namespace anduril::explorer
