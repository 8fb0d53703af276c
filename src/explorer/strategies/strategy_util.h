// Shared machinery for injection strategies: candidate hashing for the tried
// sets and a generic precomputed-list strategy used by the simpler ablations
// and baselines.

#ifndef ANDURIL_SRC_EXPLORER_STRATEGIES_STRATEGY_UTIL_H_
#define ANDURIL_SRC_EXPLORER_STRATEGIES_STRATEGY_UTIL_H_

#include <unordered_set>
#include <vector>

#include "src/explorer/strategy.h"

namespace anduril::explorer {

// Hash of a dynamic instance, for the tried sets and demotion maps.
struct CandidateHash {
  size_t operator()(const interp::InjectionCandidate& candidate) const {
    size_t h = static_cast<size_t>(candidate.site);
    h = h * 1000003u + static_cast<size_t>(candidate.occurrence);
    h = h * 1000003u + static_cast<size_t>(candidate.type + 1);
    h = h * 1000003u + static_cast<size_t>(candidate.kind);
    return h;
  }
};

using TriedSet = std::unordered_set<interp::InjectionCandidate, CandidateHash>;

// A strategy driven by a fixed, precomputed candidate list.
//
// Two window modes:
//   - Sequential (window 1, advance on miss): the next untried candidate is
//     armed; if the run never reaches it, it is abandoned. Used by the
//     exhaustive / stacktrace / FATE / CrashTuner baselines.
//   - Windowed (top-k of the list, doubling on miss): §5.2.5 semantics.
//     Used by the distance-only ablations.
class ListStrategy : public InjectionStrategy {
 public:
  void Initialize(const ExplorerContext& context) override {
    window_size_ = sequential_ ? 1 : context.options().initial_window;
    BuildList(context);
  }

  std::vector<interp::InjectionCandidate> NextWindow() override {
    std::vector<interp::InjectionCandidate> window;
    last_window_.clear();
    for (size_t i = FirstUntried(); i < list_.size(); ++i) {
      if (static_cast<int>(window.size()) >= window_size_) {
        break;
      }
      if (!tried_.contains(list_[i])) {
        window.push_back(list_[i]);
      }
    }
    last_window_ = window;
    return window;
  }

  void OnRound(const RoundOutcome& outcome) override {
    for (const interp::InjectionCandidate& preempted : outcome.preempted) {
      tried_.insert(preempted);  // claimed by a pinned fault; never fires
    }
    if (outcome.injected.has_value()) {
      tried_.insert(*outcome.injected);
      return;
    }
    if (sequential_) {
      // The armed candidate never occurred; abandon it.
      if (!last_window_.empty()) {
        tried_.insert(last_window_.front());
      }
      return;
    }
    if (static_cast<size_t>(window_size_) >= CountRemainingAtMost(window_size_)) {
      // Every remaining candidate was armed and none occurred: exhausted.
      for (const interp::InjectionCandidate& candidate : list_) {
        tried_.insert(candidate);
      }
      return;
    }
    window_size_ *= 2;
  }

  bool Exhausted() const override { return CountRemainingAtMost(0) == 0; }

 protected:
  explicit ListStrategy(bool sequential) : sequential_(sequential) {}

  // Fills list_ (ordered candidate list).
  virtual void BuildList(const ExplorerContext& context) = 0;

  std::vector<interp::InjectionCandidate> list_;

 private:
  // Tried entries never become untried again, so the scan cursor only moves
  // forward: everything before it is known-tried and no per-round scan ever
  // revisits it. At storm scale (10⁵-entry lists) this turns the sequential
  // baselines' per-round cost from O(list) to O(new work).
  size_t FirstUntried() const {
    while (scan_start_ < list_.size() && tried_.contains(list_[scan_start_])) {
      ++scan_start_;
    }
    return scan_start_;
  }

  // Counts untried candidates, stopping as soon as the count exceeds `cap`
  // (exact below the cap, cap + 1 means "more than cap"). The exhaustion and
  // window-coverage checks only compare against small bounds, so they never
  // pay for a full count.
  size_t CountRemainingAtMost(size_t cap) const {
    size_t remaining = 0;
    for (size_t i = FirstUntried(); i < list_.size() && remaining <= cap; ++i) {
      if (!tried_.contains(list_[i])) {
        ++remaining;
      }
    }
    return remaining;
  }

  bool sequential_;
  int window_size_ = 1;
  TriedSet tried_;
  std::vector<interp::InjectionCandidate> last_window_;
  mutable size_t scan_start_ = 0;
};

// Temporal distance T_{i,j,k}: log messages between the instance's estimated
// failure-timeline position and the nearest occurrence of observable k
// (§5.2.3).
int64_t TemporalDistance(const InstanceEstimate& instance,
                         const std::vector<int64_t>& observable_positions);

}  // namespace anduril::explorer

#endif  // ANDURIL_SRC_EXPLORER_STRATEGIES_STRATEGY_UTIL_H_
