// The complete ANDURIL feedback algorithm (§5.2):
//   F_i      = min_k ( L_{i,k} + I_k )         — two-level stage 1 (site)
//   F_{i,j}  = T_{i,j,k*}                      — stage 2 (instance), where k*
//              is the observable chosen in stage 1
//   window   = best untried instance of each of the top-k sites (§5.2.5)
//   feedback = Algorithm 2 on the observables of each unsuccessful round
//
// Also home of the "multiply feedback" ablation (§8.3), which replaces the
// two-level selection with a flat (F_i+1)×(T_{i,j}+1) product over all
// dynamic instances.

#include <algorithm>
#include <limits>
#include <memory>
#include <tuple>
#include <unordered_map>

#include "src/explorer/priority_engine.h"
#include "src/explorer/strategies/strategy_util.h"
#include "src/obs/metrics.h"
#include "src/util/check.h"
#include "src/util/hash.h"

namespace anduril::explorer {

int64_t TemporalDistance(const InstanceEstimate& instance,
                         const std::vector<int64_t>& observable_positions) {
  if (observable_positions.empty()) {
    return 0;
  }
  int64_t best = std::numeric_limits<int64_t>::max();
  for (int64_t pos : observable_positions) {
    int64_t distance = instance.failure_pos >= pos ? instance.failure_pos - pos
                                                   : pos - instance.failure_pos;
    best = std::min(best, distance);
  }
  return best;
}

namespace {

// Stage-1 sentinels and the stitch boost live in priority_engine.h now, so
// the incremental engine and this reference path share one definition.
constexpr int64_t kInfinity = kPriorityInfinity;

// Added to the stage-2 temporal distance per demotion: large enough to push
// a demoted instance behind every fresh one, small enough to never overflow.
constexpr int64_t kDemotionPenalty = 1'000'000;

// A candidate whose run ends hung (stall fired, oracle unsatisfied) is
// *demoted* — re-ranked behind fresh candidates — rather than retired; after
// this many demotions it is retired for good.
constexpr int kHangDemotionsBeforeRetirement = 2;

class FeedbackStrategyBase : public InjectionStrategy {
 public:
  void Initialize(const ExplorerContext& context) override {
    context_ = &context;
    metrics_ = context.options().metrics;
    feedback_.Initialize(context);
    window_size_ = context.options().initial_window;
    if (UsesEngine() && !context.options().full_rerank) {
      // SeedStitchedSites (chain mode) runs before Initialize, so the engine
      // sees the stitch boosts at build time. Its constructor installs the
      // all-zero priorities feedback_ starts from.
      engine_ = std::make_unique<PriorityEngine>(context, stitched_sites_);
    }
  }

  void OnRound(const RoundOutcome& outcome) override {
    for (const interp::InjectionCandidate& preempted : outcome.preempted) {
      Retire(preempted);  // claimed by a pinned fault; never fires
      Count("strategy.retired");
    }
    if (outcome.injected.has_value()) {
      if (outcome.outcome == interp::RunOutcome::kHung ||
          outcome.outcome == interp::RunOutcome::kPartitionedStuck) {
        // The armed candidate wedged the run without reproducing the
        // failure — a stall hang, or an unhealed partition that starved a
        // blocked thread. Demote it — a hang often means "right site, wrong
        // instance" — and only retire it after repeated hangs. (A partition
        // that *healed* leaves the run completed/crashed and is retired
        // normally through the else branch.)
        int& count = demotions_[KeyOf(*outcome.injected)];
        Count("strategy.demoted");
        if (++count > kHangDemotionsBeforeRetirement) {
          Retire(*outcome.injected);
          Count("strategy.retired");
        }
      } else {
        Retire(*outcome.injected);
        Count("strategy.retired");
      }
      for (const interp::InjectionCandidate& extra : outcome.also_injected) {
        Retire(extra);  // parallel-candidates: all fired instances
        Count("strategy.retired");
      }
    } else {
      // Saturates at INT_MAX: from the default window of 10, the 28th
      // injection-free round would overflow, and a wrapped window is <= 0
      // and never arms a candidate again.
      window_size_ = window_size_ > std::numeric_limits<int>::max() / 2
                         ? std::numeric_limits<int>::max()
                         : window_size_ * 2;
      Count("strategy.window_doublings");
    }
    if (metrics_ != nullptr) {
      // Gauge, not counter: the current doubling level. OnRound is only
      // called from the explorer's (single-threaded) round loop, so Set is
      // deterministic.
      metrics_->Set("strategy.window_size", window_size_);
    }
    if (engine_ != nullptr) {
      deltas_.clear();
      feedback_.Digest(outcome.present_keys, context_->options().feedback_adjustment, &deltas_);
      engine_->ApplyDeltas(deltas_);
    } else {
      feedback_.Digest(outcome.present_keys, context_->options().feedback_adjustment);
    }
  }

  bool SaveState(StrategyCheckpoint* out) const override {
    out->window_size = window_size_;
    out->exhausted = exhausted_;
    out->observable_priorities = feedback_.priorities();
    out->tried.clear();
    for (const TriedKey& key : tried_) {
      out->tried.push_back(
          interp::InjectionCandidate{key.site, key.occurrence, key.type, key.kind});
    }
    out->demotions.clear();
    for (const auto& [key, count] : demotions_) {
      out->demotions.push_back(StrategyCheckpoint::Demotion{
          interp::InjectionCandidate{key.site, key.occurrence, key.type, key.kind}, count});
    }
    // Hash-set iteration order is arbitrary; sort for byte-stable files.
    auto order = [](const interp::InjectionCandidate& a, const interp::InjectionCandidate& b) {
      return std::tie(a.site, a.occurrence, a.type, a.kind) <
             std::tie(b.site, b.occurrence, b.type, b.kind);
    };
    std::sort(out->tried.begin(), out->tried.end(), order);
    std::sort(out->demotions.begin(), out->demotions.end(),
              [&](const StrategyCheckpoint::Demotion& a, const StrategyCheckpoint::Demotion& b) {
                return order(a.candidate, b.candidate);
              });
    return true;
  }

  bool RestoreState(const StrategyCheckpoint& state) override {
    if (context_ == nullptr ||
        state.observable_priorities.size() != context_->observables().size()) {
      return false;
    }
    window_size_ = state.window_size;
    exhausted_ = state.exhausted;
    feedback_.SetPriorities(state.observable_priorities);
    tried_.clear();
    // The checkpoint carries no engine arrays — F_i / k*_i / untried budgets
    // are all derivable from (priorities, tried), so a restore recomputes
    // them from scratch and replays the tried set through Retire, landing on
    // exactly the state an uninterrupted search would hold.
    if (engine_ != nullptr) {
      engine_->Reset(state.observable_priorities);
    }
    for (const interp::InjectionCandidate& candidate : state.tried) {
      Retire(candidate);
    }
    demotions_.clear();
    for (const StrategyCheckpoint::Demotion& demotion : state.demotions) {
      demotions_[KeyOf(demotion.candidate)] = demotion.count;
    }
    return true;
  }

  bool WantsLogFeedback() const override { return true; }

  void SeedStitchedSites(const std::vector<ir::FaultSiteId>& sites) override {
    stitched_sites_.insert(sites.begin(), sites.end());
  }

  bool Exhausted() const override { return exhausted_; }

  int RankOfSite(ir::FaultSiteId site) const override {
    // Queried by the explorer between NextWindow and OnRound, when the
    // engine's ranking state is exactly what NextWindow ranked from — so the
    // on-demand computation matches the reference path's cached order.
    if (engine_ != nullptr) {
      return engine_->RankOfSite(site);
    }
    for (size_t rank = 0; rank < last_site_order_.size(); ++rank) {
      if (context_->candidates()[last_site_order_[rank]].site == site) {
        return static_cast<int>(rank) + 1;
      }
    }
    return -1;
  }

  void SetRankAuditSink(std::vector<uint64_t>* sink) override { rank_audit_ = sink; }

 protected:
  // Whether this strategy runs on the incremental priority engine when the
  // options don't force full_rerank. Only the plain full-feedback strategy
  // opts in; the ablations keep the reference ranking (they are
  // evaluation-only and never see storm-scale candidate counts).
  virtual bool UsesEngine() const { return false; }

  // Marks a dynamic instance tried, feeding the engine's untried budget on
  // fresh inserts only (re-retiring an already-tried instance must not
  // double-count).
  void Retire(const interp::InjectionCandidate& candidate) {
    if (tried_.insert(KeyOf(candidate)).second && engine_ != nullptr) {
      engine_->NoteTried(candidate);
    }
  }

  // Candidate indices sorted by F_i; fills per-candidate F and k*.
  std::vector<size_t> RankSites(std::vector<int64_t>* f_values,
                                std::vector<size_t>* best_observable) const {
    const auto& candidates = context_->candidates();
    f_values->assign(candidates.size(), kInfinity);
    best_observable->assign(candidates.size(), 0);
    for (size_t i = 0; i < candidates.size(); ++i) {
      for (size_t k = 0; k < context_->observables().size(); ++k) {
        int32_t distance = context_->Distance(i, k);
        if (distance == analysis::CausalGraph::kUnreachable) {
          continue;
        }
        int64_t value = static_cast<int64_t>(distance) + feedback_.priority(k);
        if (value < (*f_values)[i]) {
          (*f_values)[i] = value;
          (*best_observable)[i] = k;
        }
      }
    }
    std::vector<size_t> order;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if ((*f_values)[i] < kInfinity) {
        // Chain mode: a site the previous step's stitch run newly executed
        // outranks every ordinary candidate — it is where the cascade
        // continues — while stitched sites still order among themselves (and
        // against each other's kinds) by their ordinary F.
        if (stitched_sites_.count(candidates[i].site) != 0) {
          (*f_values)[i] -= kStitchBoost;
        }
        order.push_back(i);
      }
    }
    // Explicit total order (F, candidate index) shared with the incremental
    // engine (Stage1Less): a plain sort over a total order is deterministic,
    // and ties cannot depend on sort stability.
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return Stage1Less((*f_values)[a], a, (*f_values)[b], b);
    });
    return order;
  }

  // Reference-path twin of PriorityEngine::RankAuditHash: digests the same
  // (index, effective F, k*) stream so the differential harness can compare
  // per-round rankings across engines.
  void PushRankAudit(const std::vector<int64_t>& f_values,
                     const std::vector<size_t>& best_observable) {
    if (rank_audit_ == nullptr) {
      return;
    }
    Fnv1aHasher hasher;
    for (size_t i = 0; i < f_values.size(); ++i) {
      if (f_values[i] < kInfinity) {
        hasher.MixInt(static_cast<int64_t>(i));
        hasher.MixInt(f_values[i]);
        hasher.MixInt(static_cast<int64_t>(best_observable[i]));
      }
    }
    rank_audit_->push_back(hasher.hash());
  }

  // Demotion count per hung candidate (see OnRound); consulted as a stage-2
  // ranking penalty so demoted instances sort behind fresh ones.
  int64_t DemotionPenalty(const interp::InjectionCandidate& armed) const {
    auto it = demotions_.find(KeyOf(armed));
    return it == demotions_.end() ? 0 : kDemotionPenalty * it->second;
  }

  // Counts a strategy-level decision. Deliberately NOT called from
  // RestoreState: the checkpoint's metrics snapshot already carries the
  // counts of the retire/demote events it replays, and the explorer
  // overwrite-restores that snapshot — re-counting here would double them.
  void Count(const char* name) {
    if (metrics_ != nullptr) {
      metrics_->Add(name);
    }
  }

  const ExplorerContext* context_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  FeedbackState feedback_;
  std::unordered_set<ir::FaultSiteId> stitched_sites_;
  TriedSet tried_;
  std::unordered_map<TriedKey, int, TriedKeyHash> demotions_;
  int window_size_ = 10;
  bool exhausted_ = false;
  mutable std::vector<size_t> last_site_order_;
  // Non-null only for the plain full-feedback strategy without full_rerank.
  std::unique_ptr<PriorityEngine> engine_;
  std::vector<std::pair<size_t, int64_t>> deltas_;  // reused per round
  std::vector<uint64_t>* rank_audit_ = nullptr;
};

class FullFeedbackStrategy : public FeedbackStrategyBase {
 public:
  // Design-alternative knobs discussed (and rejected) in §5.2.3/§5.2.4:
  //   sum_aggregation: F_i = sum_k(L+I) instead of min_k — less sensitive to
  //     the feedback because the magnitudes of different k mix.
  //   order_temporal: T by the instance's *order* among its site's instances
  //     instead of by log-message distance — over-penalizes sites with many
  //     instances (the f_2 pathology of Figure 5).
  FullFeedbackStrategy(bool sum_aggregation, bool order_temporal)
      : sum_aggregation_(sum_aggregation), order_temporal_(order_temporal) {}

  std::string name() const override {
    if (sum_aggregation_) {
      return "full-sum";
    }
    if (order_temporal_) {
      return "full-order";
    }
    return "full";
  }

  std::vector<interp::InjectionCandidate> NextWindow() override {
    return engine_ != nullptr ? NextWindowIncremental() : NextWindowFullRerank();
  }

 private:
  bool UsesEngine() const override { return !sum_aggregation_ && !order_temporal_; }

  // Stage 2 (§5.2.3), shared verbatim by both stage-1 engines: the best
  // untried instance of `candidate` against the chosen observable's
  // positions, under the explicit order (T + demotion penalty, occurrence).
  // The occurrence tie-break makes the "earliest instance wins" behavior of
  // the historical strict-< scan an explicit part of the contract. Returns
  // nullptr when every instance is tried; flags *any_untried otherwise.
  const InstanceEstimate* BestUntriedInstance(const FaultCandidate& candidate,
                                              const std::vector<int64_t>& positions,
                                              bool* any_untried) const {
    const auto& instances = context_->InstancesOf(candidate.site);
    const InstanceEstimate* best = nullptr;
    int64_t best_distance = 0;
    for (size_t j = 0; j < instances.size(); ++j) {
      const InstanceEstimate& instance = instances[j];
      interp::InjectionCandidate armed = Arm(candidate, instance.occurrence);
      if (WasTried(tried_, armed)) {
        continue;
      }
      *any_untried = true;
      int64_t distance = order_temporal_ ? OrderTemporalDistance(instances, j, positions)
                                         : TemporalDistance(instance, positions);
      distance += DemotionPenalty(armed);
      if (best == nullptr || std::tie(distance, instance.occurrence) <
                                 std::tie(best_distance, best->occurrence)) {
        best = &instance;
        best_distance = distance;
      }
    }
    return best;
  }

  // Incremental path: stage-1 order comes from the engine's top-k heap —
  // the round visits window_size ranked candidates plus the fully-tried ones
  // the heap already excluded, never the whole candidate array.
  std::vector<interp::InjectionCandidate> NextWindowIncremental() {
    std::vector<interp::InjectionCandidate> window;
    if (window_size_ > 0) {
      engine_->VisitActive([&](size_t index, size_t best_k) {
        const FaultCandidate& candidate = context_->candidates()[index];
        const auto& positions = context_->observables()[best_k].failure_positions;
        bool any_untried = false;
        const InstanceEstimate* best = BestUntriedInstance(candidate, positions, &any_untried);
        // Active candidates have untried instances by construction — the
        // engine's budget counts down on exactly the fresh Retire inserts.
        ANDURIL_CHECK(best != nullptr)
            << "engine ranked candidate " << index << " active with no untried instance";
        window.push_back(Arm(candidate, best->occurrence));
        return static_cast<int>(window.size()) < window_size_;
      });
    }
    if (!engine_->AnyActive()) {
      // No candidate has an untried instance left: the same condition the
      // reference path establishes with its global re-scan.
      exhausted_ = true;
    }
    if (rank_audit_ != nullptr) {
      rank_audit_->push_back(engine_->RankAuditHash());
    }
    return window;
  }

  // Reference path (ExplorerOptions::full_rerank): recompute and sort
  // everything, every round.
  std::vector<interp::InjectionCandidate> NextWindowFullRerank() {
    std::vector<int64_t> f_values;
    std::vector<size_t> best_observable;
    std::vector<size_t> order =
        sum_aggregation_ ? RankSitesSum(&f_values, &best_observable)
                         : RankSites(&f_values, &best_observable);
    last_site_order_ = order;

    std::vector<interp::InjectionCandidate> window;
    bool any_untried = false;
    for (size_t index : order) {
      if (static_cast<int>(window.size()) >= window_size_) {
        break;
      }
      const FaultCandidate& candidate = context_->candidates()[index];
      const auto& positions =
          context_->observables()[best_observable[index]].failure_positions;
      const InstanceEstimate* best = BestUntriedInstance(candidate, positions, &any_untried);
      if (best != nullptr) {
        window.push_back(Arm(candidate, best->occurrence));
      }
    }
    if (!any_untried && window.empty()) {
      // Check globally: all instances of all ranked candidates tried?
      exhausted_ = true;
      for (size_t index : order) {
        const FaultCandidate& candidate = context_->candidates()[index];
        for (const InstanceEstimate& instance : context_->InstancesOf(candidate.site)) {
          if (!WasTried(tried_, Arm(candidate, instance.occurrence))) {
            exhausted_ = false;
            break;
          }
        }
        if (!exhausted_) {
          break;
        }
      }
    }
    if (!sum_aggregation_) {
      PushRankAudit(f_values, best_observable);
    }
    return window;
  }
  // §5.2.4 alternative: sum over observables instead of min.
  std::vector<size_t> RankSitesSum(std::vector<int64_t>* f_values,
                                   std::vector<size_t>* best_observable) const {
    const auto& candidates = context_->candidates();
    f_values->assign(candidates.size(), kInfinity);
    best_observable->assign(candidates.size(), 0);
    for (size_t i = 0; i < candidates.size(); ++i) {
      int64_t sum = 0;
      bool any = false;
      int64_t best = kInfinity;
      for (size_t k = 0; k < context_->observables().size(); ++k) {
        int32_t distance = context_->Distance(i, k);
        if (distance == analysis::CausalGraph::kUnreachable) {
          continue;
        }
        int64_t value = static_cast<int64_t>(distance) + feedback_.priority(k);
        sum += value;
        any = true;
        if (value < best) {
          best = value;
          (*best_observable)[i] = k;
        }
      }
      if (any) {
        (*f_values)[i] = sum;
      }
    }
    std::vector<size_t> order;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if ((*f_values)[i] < kInfinity) {
        order.push_back(i);
      }
    }
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return Stage1Less((*f_values)[a], a, (*f_values)[b], b);
    });
    return order;
  }

  // §5.2.3 alternative: distance measured in instance *order* — how many of
  // this site's own instances sit between instance j and the instance
  // nearest the observable.
  static int64_t OrderTemporalDistance(const std::vector<InstanceEstimate>& instances,
                                       size_t j,
                                       const std::vector<int64_t>& observable_positions) {
    if (observable_positions.empty() || instances.empty()) {
      return 0;
    }
    size_t nearest = 0;
    int64_t nearest_distance = std::numeric_limits<int64_t>::max();
    for (size_t i = 0; i < instances.size(); ++i) {
      int64_t distance = TemporalDistance(instances[i], observable_positions);
      if (distance < nearest_distance) {
        nearest_distance = distance;
        nearest = i;
      }
    }
    return j >= nearest ? static_cast<int64_t>(j - nearest)
                        : static_cast<int64_t>(nearest - j);
  }

  bool sum_aggregation_;
  bool order_temporal_;
};

class MultiplyFeedbackStrategy : public FeedbackStrategyBase {
 public:
  std::string name() const override { return "multiply"; }

  std::vector<interp::InjectionCandidate> NextWindow() override {
    std::vector<int64_t> f_values;
    std::vector<size_t> best_observable;
    std::vector<size_t> order = RankSites(&f_values, &best_observable);
    last_site_order_ = order;

    struct Scored {
      int64_t priority;
      size_t seq;  // insertion order: explicit tie-break, was stable_sort position
      interp::InjectionCandidate candidate;
    };
    std::vector<Scored> scored;
    for (size_t index : order) {
      const FaultCandidate& candidate = context_->candidates()[index];
      const auto& positions =
          context_->observables()[best_observable[index]].failure_positions;
      for (const InstanceEstimate& instance : context_->InstancesOf(candidate.site)) {
        interp::InjectionCandidate armed = Arm(candidate, instance.occurrence);
        if (WasTried(tried_, armed)) {
          continue;
        }
        int64_t t = TemporalDistance(instance, positions) + DemotionPenalty(armed);
        // +1 on both factors avoids the degenerate zero product; the flat
        // combination is still what Table 2 shows to be inferior to the
        // two-level selection.
        scored.push_back(Scored{(f_values[index] + 1) * (t + 1), scored.size(), armed});
      }
    }
    if (scored.empty()) {
      exhausted_ = true;
      return {};
    }
    std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
      return std::tie(a.priority, a.seq) < std::tie(b.priority, b.seq);
    });
    std::vector<interp::InjectionCandidate> window;
    for (const Scored& entry : scored) {
      if (static_cast<int>(window.size()) >= window_size_) {
        break;
      }
      window.push_back(entry.candidate);
    }
    return window;
  }
};

// "Fault-site feedback" ablation: observable feedback on sites, but no
// temporal instance priorities — instances tried in natural order, at most 3
// per site (§8.3).
class SiteFeedbackStrategy : public FeedbackStrategyBase {
 public:
  std::string name() const override { return "site-feedback"; }

  std::vector<interp::InjectionCandidate> NextWindow() override {
    std::vector<int64_t> f_values;
    std::vector<size_t> best_observable;
    std::vector<size_t> order = RankSites(&f_values, &best_observable);
    last_site_order_ = order;

    std::vector<interp::InjectionCandidate> window;
    bool any_untried = false;
    for (size_t index : order) {
      if (static_cast<int>(window.size()) >= window_size_) {
        break;
      }
      const FaultCandidate& candidate = context_->candidates()[index];
      const auto& instances = context_->InstancesOf(candidate.site);
      size_t limit = std::min<size_t>(instances.size(), 3);
      for (size_t j = 0; j < limit; ++j) {
        interp::InjectionCandidate armed = Arm(candidate, instances[j].occurrence);
        if (!WasTried(tried_, armed)) {
          any_untried = true;
          window.push_back(armed);
          break;  // one instance per site per round
        }
      }
    }
    if (window.empty() && !any_untried) {
      exhausted_ = true;
    }
    return window;
  }
};

}  // namespace

std::unique_ptr<InjectionStrategy> MakeFullFeedbackStrategy() {
  return std::make_unique<FullFeedbackStrategy>(false, false);
}

std::unique_ptr<InjectionStrategy> MakeSumAggregationStrategy() {
  return std::make_unique<FullFeedbackStrategy>(true, false);
}

std::unique_ptr<InjectionStrategy> MakeOrderTemporalStrategy() {
  return std::make_unique<FullFeedbackStrategy>(false, true);
}

std::unique_ptr<InjectionStrategy> MakeMultiplyFeedbackStrategy() {
  return std::make_unique<MultiplyFeedbackStrategy>();
}

std::unique_ptr<InjectionStrategy> MakeSiteFeedbackStrategy() {
  return std::make_unique<SiteFeedbackStrategy>();
}

}  // namespace anduril::explorer
