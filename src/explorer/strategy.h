// Injection strategy interface.
//
// A strategy decides, each round, which dynamic fault instances to arm (the
// flexible priority window of §5.2.5), and digests the outcome of the round.
// The full feedback algorithm (§5.2) and every ablation/baseline of §8.3-8.4
// implement this interface, so the explorer driver and the bench harnesses
// treat them uniformly.

#ifndef ANDURIL_SRC_EXPLORER_STRATEGY_H_
#define ANDURIL_SRC_EXPLORER_STRATEGY_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/explorer/context.h"
#include "src/interp/fault_runtime.h"
#include "src/interp/run_result.h"
#include "src/logdiff/compare.h"

namespace anduril::explorer {

struct RoundOutcome {
  int round = 0;
  // What (if anything) the round's selected run injected: its first success,
  // else its first run.
  std::optional<interp::InjectionCandidate> injected;
  // Observable keys that appeared in this round's log (only filled when the
  // strategy asks for log feedback). Algorithm 2: observables *present* in an
  // unsuccessful run get deprioritized; the still-missing ones are the clues
  // worth chasing.
  std::vector<std::string> present_keys;
  // How the round's selected run ended. Feedback strategies demote (rather
  // than retire) the armed candidate when the run hung: a hang often means
  // "right site, wrong instance", so it goes to the back of the queue
  // instead of out of it.
  interp::RunOutcome outcome = interp::RunOutcome::kCompleted;
  // Window candidates whose instance was claimed by a pinned fault this
  // round (fired once by the pin, never double-injected). Strategies retire
  // them: re-arming would pre-empt forever.
  std::vector<interp::InjectionCandidate> preempted;
};

// Serializable snapshot of a strategy's mutable search state, for the
// explorer's checkpoint files. Candidate identity uses the same numeric ids
// as the in-memory structures; the checkpoint header's program fingerprint
// guards against resuming over a different program build.
struct StrategyCheckpoint {
  int window_size = 1;  // >= 1: checkpoint parsing rejects a smaller window
  bool exhausted = false;
  // Priority value per observable, in context observable order.
  std::vector<int64_t> observable_priorities;
  std::vector<interp::InjectionCandidate> tried;
  struct Demotion {
    interp::InjectionCandidate candidate;
    int count = 0;
  };
  std::vector<Demotion> demotions;
};

class InjectionStrategy {
 public:
  virtual ~InjectionStrategy() = default;

  virtual std::string name() const = 0;

  // Binds precomputed context. Called once before the first round.
  virtual void Initialize(const ExplorerContext& context) = 0;

  // The metrics sink of the search that runs this strategy ("strategy.*"
  // counters); the Explorer attaches its own before Initialize. Null (the
  // default) counts nothing. Strategies without counters ignore it.
  virtual void set_metrics(obs::MetricsRegistry* /*metrics*/) {}

  // The candidate window for the next round. An empty window with
  // Exhausted() == true ends the search.
  virtual std::vector<interp::InjectionCandidate> NextWindow() = 0;

  // Digests a finished (unsuccessful) round.
  virtual void OnRound(const RoundOutcome& outcome) = 0;

  virtual bool Exhausted() const = 0;

  // Whether OnRound needs missing_keys (log parse + per-thread diff per
  // round). Coverage baselines skip that cost.
  virtual bool WantsLogFeedback() const { return false; }

  // Chain mode (ChainExplorer): ranks these sites ahead of everything else
  // for the whole search. Called at most once, before the search starts,
  // with the sites the previous chain step's stitch run *newly* executed —
  // the causally-stitched continuation points of the cascade. Strategies
  // without a site ranking ignore it.
  virtual void SeedStitchedSites(const std::vector<ir::FaultSiteId>& /*sites*/) {}

  // Rank (1-based) of `site` in the strategy's current candidate ordering,
  // or -1 if unranked. Used only for Fig. 6 reporting.
  virtual int RankOfSite(ir::FaultSiteId /*site*/) const { return -1; }

  // Test hook: when a sink is attached, the min-aggregation strategies that
  // fill their window straight from the stage-1 ranking (full, full-order)
  // append one order-sensitive digest of the full (F_i, k*_i) ranking per
  // NextWindow call. priority_engine_test pins the per-round sequences in
  // tests/golden/search_runs.txt. Other strategies ignore it; a null/absent
  // sink costs nothing.
  virtual void SetRankAuditSink(std::vector<uint64_t>* /*sink*/) {}

  // Checkpoint support. SaveState snapshots the strategy's mutable search
  // state; RestoreState (called after Initialize) re-installs a snapshot.
  // Both return false when the strategy does not support serialization (the
  // default) — the explorer refuses to checkpoint such a search.
  virtual bool SaveState(StrategyCheckpoint* /*out*/) const { return false; }
  virtual bool RestoreState(const StrategyCheckpoint& /*state*/) { return false; }
};

// Factory helpers (definitions in strategies/*.cc).
std::unique_ptr<InjectionStrategy> MakeFullFeedbackStrategy();
std::unique_ptr<InjectionStrategy> MakeExhaustiveStrategy();
std::unique_ptr<InjectionStrategy> MakeSiteDistanceStrategy(int instance_limit);  // 0 = all
std::unique_ptr<InjectionStrategy> MakeSiteFeedbackStrategy();   // feedback, no T
std::unique_ptr<InjectionStrategy> MakeMultiplyFeedbackStrategy();
std::unique_ptr<InjectionStrategy> MakeStacktraceStrategy();
// Design-alternative ablations (§5.2.3 / §5.2.4 discussion): sum-aggregated
// site priority and instance-order temporal distance.
std::unique_ptr<InjectionStrategy> MakeSumAggregationStrategy();
std::unique_ptr<InjectionStrategy> MakeOrderTemporalStrategy();
std::unique_ptr<InjectionStrategy> MakeFateStrategy();
std::unique_ptr<InjectionStrategy> MakeCrashTunerStrategy();

// Instantiates a strategy by the name used in bench tables:
// "full" | "full-sum" | "full-order" | "exhaustive" | "site-distance" |
// "site-distance-limit" | "site-feedback" | "multiply" | "stacktrace" |
// "fate" | "crashtuner". Null for any other name.
std::unique_ptr<InjectionStrategy> MakeStrategy(const std::string& name);

}  // namespace anduril::explorer

#endif  // ANDURIL_SRC_EXPLORER_STRATEGY_H_
