// The complete ANDURIL feedback algorithm (§5.2):
//   F_i      = min_k ( L_{i,k} + I_k )         — two-level stage 1 (site)
//   F_{i,j}  = T_{i,j,k*}                      — stage 2 (instance), where k*
//              is the observable chosen in stage 1
//   window   = best untried instance of each of the top-k sites (§5.2.5)
//   feedback = Algorithm 2 on the observables of each unsuccessful round
//
// Also home of the feedback ablations (§5.2.3–5.2.4, §8.3): sum aggregation,
// order-temporal distance, the flat "multiply" product and site-only
// feedback. All of them digest feedback into one PriorityEngine, and all but
// sum aggregation take their stage-1 order from it.

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>

#include "src/explorer/priority_engine.h"
#include "src/explorer/strategies/strategy_util.h"
#include "src/obs/metrics.h"
#include "src/util/check.h"

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

// Added to the stage-2 temporal distance per demotion: large enough to push
// a demoted instance behind every fresh one, small enough to never overflow.
constexpr int64_t kDemotionPenalty = 1'000'000;

// A candidate whose run ends hung (stall fired, oracle unsatisfied) is
// *demoted* — re-ranked behind fresh candidates — rather than retired; after
// this many demotions it is retired for good.
constexpr int kHangDemotionsBeforeRetirement = 2;

class FeedbackStrategyBase : public InjectionStrategy {
 public:
  void set_metrics(obs::MetricsRegistry* metrics) override { metrics_ = metrics; }

  void Initialize(const ExplorerContext& context) override {
    context_ = &context;
    window_size_ = context.options().initial_window;
    // SeedStitchedSites (chain mode) runs before Initialize, so the engine
    // sees the stitch boosts at build time. It starts from all-zero I_k.
    engine_ = std::make_unique<PriorityEngine>(context, stitched_sites_);
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
        int& count = demotions_[*outcome.injected];
        Count("strategy.demoted");
        if (++count > kHangDemotionsBeforeRetirement) {
          Retire(*outcome.injected);
          Count("strategy.retired");
        }
      } else {
        Retire(*outcome.injected);
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
    // Algorithm 2: every relevant observable present in the unsuccessful
    // round gets its I_k raised by the feedback adjustment (higher value =
    // lower priority), so observables still missing become the ones to
    // chase. Keys outside the observable set contribute nothing.
    deltas_.clear();
    for (const std::string& key : outcome.present_keys) {
      if (std::optional<size_t> k = context_->ObservableIndex(key)) {
        deltas_.emplace_back(*k, context_->options().feedback_adjustment);
      }
    }
    engine_->ApplyDeltas(deltas_);
  }

  bool SaveState(StrategyCheckpoint* out) const override {
    out->window_size = window_size_;
    out->exhausted = exhausted_;
    out->observable_priorities = engine_->priorities();
    out->tried.assign(tried_.begin(), tried_.end());
    out->demotions.clear();
    for (const auto& [candidate, count] : demotions_) {
      out->demotions.push_back(StrategyCheckpoint::Demotion{candidate, count});
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
    tried_.clear();
    // The checkpoint carries no engine arrays — F_i / k*_i / untried budgets
    // are all derivable from (priorities, tried), so a restore recomputes
    // them from scratch and replays the tried set through Retire, landing on
    // exactly the state an uninterrupted search would hold.
    engine_->Reset(state.observable_priorities);
    for (const interp::InjectionCandidate& candidate : state.tried) {
      Retire(candidate);
    }
    demotions_.clear();
    for (const StrategyCheckpoint::Demotion& demotion : state.demotions) {
      demotions_[demotion.candidate] = demotion.count;
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
    // engine's ranking state is exactly what NextWindow ranked from.
    return engine_->RankOfSite(site);
  }

 protected:
  // Marks a dynamic instance tried, feeding the engine's untried budget on
  // fresh inserts only (re-retiring an already-tried instance must not
  // double-count).
  void Retire(const interp::InjectionCandidate& candidate) {
    if (tried_.insert(candidate).second) {
      engine_->NoteTried(candidate);
    }
  }

  // Demotion count per hung candidate (see OnRound); consulted as a stage-2
  // ranking penalty so demoted instances sort behind fresh ones.
  int64_t DemotionPenalty(const interp::InjectionCandidate& armed) const {
    auto it = demotions_.find(armed);
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
  std::unordered_set<ir::FaultSiteId> stitched_sites_;
  TriedSet tried_;
  std::unordered_map<interp::InjectionCandidate, int, CandidateHash> demotions_;
  int window_size_ = 10;
  bool exhausted_ = false;
  // The one holder of the observable priorities I_k and of stage-1 F_i.
  std::unique_ptr<PriorityEngine> engine_;
  std::vector<std::pair<size_t, int64_t>> deltas_;  // reused per round
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
    std::vector<interp::InjectionCandidate> window;
    if (sum_aggregation_) {
      FillWindowBySum(&window);
    } else if (window_size_ > 0) {
      // Stage-1 order comes from the engine's top-k heap: the round visits
      // window_size ranked candidates, never the whole candidate array.
      engine_->VisitActive([&](size_t index, size_t best_k) {
        const FaultCandidate& candidate = context_->candidates()[index];
        const InstanceEstimate* best = BestUntriedInstance(candidate, best_k);
        // Active candidates have untried instances by construction — the
        // engine's budget counts down on exactly the fresh Retire inserts.
        ANDURIL_CHECK(best != nullptr)
            << "engine ranked candidate " << index << " active with no untried instance";
        window.push_back(Arm(candidate, best->occurrence));
        return static_cast<int>(window.size()) < window_size_;
      });
    }
    if (!engine_->AnyActive()) {
      exhausted_ = true;  // no candidate has an untried instance left
    }
    if (!sum_aggregation_ && rank_audit_ != nullptr) {
      rank_audit_->push_back(engine_->RankAuditHash());
    }
    return window;
  }

  int RankOfSite(ir::FaultSiteId site) const override {
    if (!sum_aggregation_) {
      return FeedbackStrategyBase::RankOfSite(site);
    }
    for (size_t rank = 0; rank < sum_order_.size(); ++rank) {
      if (context_->candidates()[sum_order_[rank]].site == site) {
        return static_cast<int>(rank) + 1;
      }
    }
    return -1;
  }

  void SetRankAuditSink(std::vector<uint64_t>* sink) override { rank_audit_ = sink; }

 private:
  // Stage 2 (§5.2.3): the best untried instance of `candidate` against
  // observable k's failure-log positions, under the explicit order
  // (T + demotion penalty, occurrence). The occurrence tie-break makes the
  // "earliest instance wins" behavior of the historical strict-< scan an
  // explicit part of the contract. Returns nullptr when every instance is
  // tried.
  const InstanceEstimate* BestUntriedInstance(const FaultCandidate& candidate,
                                              size_t observable) const {
    const auto& positions = context_->observables()[observable].failure_positions;
    const auto& instances = context_->InstancesOf(candidate.site);
    const InstanceEstimate* best = nullptr;
    int64_t best_distance = 0;
    for (size_t j = 0; j < instances.size(); ++j) {
      const InstanceEstimate& instance = instances[j];
      interp::InjectionCandidate armed = Arm(candidate, instance.occurrence);
      if (tried_.contains(armed)) {
        continue;
      }
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

  // §5.2.4 alternative: F_i = sum_k (L_{i,k} + I_k) instead of the min. A
  // sum is not a min, so the engine cannot maintain it: every round ranks
  // all candidates from scratch, by (sum, candidate index), and keeps the
  // order for RankOfSite. Stage 2 still chases the argmin observable.
  void FillWindowBySum(std::vector<interp::InjectionCandidate>* window) {
    const auto& candidates = context_->candidates();
    const std::vector<int64_t>& priorities = engine_->priorities();
    std::vector<int64_t> sums(candidates.size(), 0);
    std::vector<size_t> best_observable(candidates.size(), 0);
    sum_order_.clear();
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (!engine_->Finite(i)) {
        continue;  // no observable reachable: never ranked
      }
      int64_t best = kPriorityInfinity;
      for (size_t k = 0; k < priorities.size(); ++k) {
        int32_t distance = context_->Distance(i, k);
        if (distance == analysis::CausalGraph::kUnreachable) {
          continue;
        }
        int64_t value = static_cast<int64_t>(distance) + priorities[k];
        sums[i] += value;
        if (value < best) {
          best = value;
          best_observable[i] = k;
        }
      }
      sum_order_.push_back(i);
    }
    std::sort(sum_order_.begin(), sum_order_.end(), [&](size_t a, size_t b) {
      return Stage1Less(sums[a], a, sums[b], b);
    });
    for (size_t index : sum_order_) {
      if (static_cast<int>(window->size()) >= window_size_) {
        break;
      }
      const FaultCandidate& candidate = candidates[index];
      const InstanceEstimate* best = BestUntriedInstance(candidate, best_observable[index]);
      if (best != nullptr) {
        window->push_back(Arm(candidate, best->occurrence));
      }
    }
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
  std::vector<size_t> sum_order_;  // full-sum's last ranking
  std::vector<uint64_t>* rank_audit_ = nullptr;
};

class MultiplyFeedbackStrategy : public FeedbackStrategyBase {
 public:
  std::string name() const override { return "multiply"; }

  // Scores every untried instance of every active candidate, visited in
  // stage-1 order, by (F_i + 1) × (T + 1).
  std::vector<interp::InjectionCandidate> NextWindow() override {
    struct Scored {
      int64_t priority;
      size_t seq;  // insertion order: explicit tie-break, was stable_sort position
      interp::InjectionCandidate candidate;
    };
    std::vector<Scored> scored;
    engine_->VisitActive([&](size_t index, size_t best_k) {
      const FaultCandidate& candidate = context_->candidates()[index];
      const auto& positions = context_->observables()[best_k].failure_positions;
      const int64_t f = engine_->EffectivePriority(index);
      for (const InstanceEstimate& instance : context_->InstancesOf(candidate.site)) {
        interp::InjectionCandidate armed = Arm(candidate, instance.occurrence);
        if (tried_.contains(armed)) {
          continue;
        }
        int64_t t = TemporalDistance(instance, positions) + DemotionPenalty(armed);
        // +1 on both factors avoids the degenerate zero product; the flat
        // combination is still what Table 2 shows to be inferior to the
        // two-level selection.
        scored.push_back(Scored{(f + 1) * (t + 1), scored.size(), armed});
      }
      return true;
    });
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
    std::vector<interp::InjectionCandidate> window;
    if (window_size_ > 0) {
      engine_->VisitActive([&](size_t index, size_t /*best_k*/) {
        const FaultCandidate& candidate = context_->candidates()[index];
        const auto& instances = context_->InstancesOf(candidate.site);
        size_t limit = std::min<size_t>(instances.size(), 3);
        for (size_t j = 0; j < limit; ++j) {
          interp::InjectionCandidate armed = Arm(candidate, instances[j].occurrence);
          if (!tried_.contains(armed)) {
            window.push_back(armed);
            break;  // one instance per site per round
          }
        }
        return static_cast<int>(window.size()) < window_size_;
      });
    }
    // Not AnyActive(): instances past a site's first three keep it active,
    // but this strategy never arms them.
    if (window.empty()) {
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
