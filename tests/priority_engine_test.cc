// Differential harness for the incremental priority engine.
//
// The contract under test: ExplorerOptions::full_rerank — the per-round
// recompute-everything reference implementation of stage-1 ranking — and the
// default incremental engine are byte-identical. Over every registered
// failure case, at 1/2/8 worker threads, both paths must emit the same
// ReproductionScript text and seed, the same round count, and the same
// per-round (F_i, k*) ordering (compared via the rank-audit hash the
// strategy pushes per round; a mismatch reports the first diverging round).
//
// Plus: a randomized dirty-set fuzz (incremental ApplyDeltas against a
// from-scratch Reset on every round) and the storm-scale candidate-space
// floor.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/explorer/context.h"
#include "src/explorer/explorer.h"
#include "src/explorer/priority_engine.h"
#include "src/explorer/strategy.h"
#include "src/systems/common.h"
#include "tests/test_util.h"

namespace anduril::explorer {
namespace {

// --- differential search harness -------------------------------------------------

struct AuditedSearch {
  ExploreResult result;
  std::vector<uint64_t> audit;  // one stage-1 rank hash per round
};

AuditedSearch RunAudited(const systems::BuiltCase& built, ExplorerOptions options,
                         bool full_rerank) {
  options.full_rerank = full_rerank;
  Explorer explorer(built.spec, options);
  std::unique_ptr<InjectionStrategy> strategy = MakeFullFeedbackStrategy();
  AuditedSearch out;
  strategy->SetRankAuditSink(&out.audit);
  out.result = explorer.Explore(strategy.get());
  return out;
}

// Runs `built` under both ranking paths and asserts they are
// indistinguishable: same reproduction outcome, byte-identical script, same
// seed, same round counts, and the same per-round stage-1 ordering.
void ExpectEnginesIndistinguishable(const systems::BuiltCase& built,
                                    const ExplorerOptions& options) {
  AuditedSearch incremental = RunAudited(built, options, /*full_rerank=*/false);
  AuditedSearch full = RunAudited(built, options, /*full_rerank=*/true);

  // Per-round ordering first: if the searches diverge, the earliest diverging
  // ranking is the actionable datum, not the downstream script difference.
  size_t shared = std::min(incremental.audit.size(), full.audit.size());
  for (size_t round = 0; round < shared; ++round) {
    ASSERT_EQ(incremental.audit[round], full.audit[round])
        << "stage-1 rankings first diverge at round " << round + 1 << " of "
        << shared << " (incremental hash " << incremental.audit[round]
        << ", full-rerank hash " << full.audit[round] << ")";
  }
  EXPECT_EQ(incremental.audit.size(), full.audit.size());

  EXPECT_EQ(incremental.result.reproduced, full.result.reproduced);
  EXPECT_EQ(incremental.result.rounds, full.result.rounds);
  EXPECT_EQ(incremental.result.experiment.total_rounds(),
            full.result.experiment.total_rounds());
  ASSERT_EQ(incremental.result.script.has_value(), full.result.script.has_value());
  if (incremental.result.script.has_value()) {
    EXPECT_EQ(incremental.result.script->ToText(*built.spec.program),
              full.result.script->ToText(*built.spec.program));
    EXPECT_EQ(incremental.result.script->seed, full.result.script->seed);
  }
}

void SweepRegistry(const std::vector<systems::FailureCase>& registry,
                   std::initializer_list<int> thread_counts, int max_rounds = 0) {
  for (const systems::FailureCase& failure_case : registry) {
    systems::BuiltCase built = systems::BuildCase(failure_case);
    for (int threads : thread_counts) {
      SCOPED_TRACE(failure_case.id + " @" + std::to_string(threads) + " threads");
      ExplorerOptions options = systems::OptionsForCase(failure_case, threads);
      if (max_rounds > 0) {
        options.max_rounds = max_rounds;
      }
      ExpectEnginesIndistinguishable(built, options);
    }
  }
}

TEST(PriorityEngineDifferentialTest, Table5RegistryAllThreadCounts) {
  SweepRegistry(systems::AllCases(), {1, 2, 8});
}

TEST(PriorityEngineDifferentialTest, CrashStallRegistryAllThreadCounts) {
  SweepRegistry(systems::CrashStallCases(), {1, 2, 8});
}

TEST(PriorityEngineDifferentialTest, NetworkRegistryAllThreadCounts) {
  SweepRegistry(systems::NetworkCases(), {1, 2, 8});
}

TEST(PriorityEngineDifferentialTest, CascadeRegistryAllThreadCounts) {
  // Cascading cases need chain mode to reproduce; the single-fault search
  // never succeeds on them, which makes them the non-reproducing half of the
  // contract: both paths must walk the identical 40-round trajectory and
  // agree that it fails.
  SweepRegistry(systems::CascadeCases(), {1, 2, 8}, /*max_rounds=*/40);
}

TEST(PriorityEngineDifferentialTest, StormCassandraAllThreadCounts) {
  SweepRegistry({*systems::FindCase("ca-storm-1")}, {1, 2, 8});
}

TEST(PriorityEngineDifferentialTest, StormZooKeeperAllThreadCounts) {
  SweepRegistry({*systems::FindCase("zk-storm-1")}, {1, 2, 8});
}

TEST(PriorityEngineDifferentialTest, SeedSweep) {
  // The equivalence is per-seed, not just at each case's stock explore_seed:
  // re-run representative cases (one per root-fault family, plus a storm)
  // under swept base seeds.
  for (const char* id : {"zk-2247", "hd-4233", "zk-net-1", "ca-storm-1"}) {
    const systems::FailureCase* failure_case = systems::FindCase(id);
    ASSERT_NE(failure_case, nullptr);
    systems::BuiltCase built = systems::BuildCase(*failure_case);
    for (uint64_t seed : {7ull, 1234ull}) {
      SCOPED_TRACE(std::string(id) + " seed=" + std::to_string(seed));
      built.spec.base_seed = seed;
      ExpectEnginesIndistinguishable(built, systems::OptionsForCase(*failure_case, 1));
    }
  }
}

// --- storm-scale candidate space -------------------------------------------------

TEST(StormScaleTest, StormCasesHaveAtLeastFiftyThousandDynamicInstances) {
  ASSERT_EQ(systems::StormCases().size(), 2u);
  // The Table 5 set must stay exactly 22: storms live in their own registry.
  EXPECT_EQ(systems::AllCases().size(), 22u);
  for (const systems::FailureCase& failure_case : systems::StormCases()) {
    SCOPED_TRACE(failure_case.id);
    EXPECT_EQ(systems::FindCase(failure_case.id), &failure_case);
    systems::BuiltCase built = systems::BuildCase(failure_case);
    ExplorerOptions options = systems::OptionsForCase(failure_case, 1);
    ExplorerContext context(built.spec, options);
    int64_t instances = 0;
    for (const FaultCandidate& candidate : context.candidates()) {
      instances += static_cast<int64_t>(context.InstancesOf(candidate.site).size());
    }
    EXPECT_GE(instances, 50'000) << "storm case lost its scale";
  }
}

TEST(StormScaleTest, BlindBaselineCapsOutWhereFeedbackReproduces) {
  // The Table 2 shape in miniature: at storm scale the blind execution-order
  // baseline burns a 150-round budget on the first sliver of the space,
  // while the feedback search still reproduces within the stock budget.
  const systems::FailureCase* failure_case = systems::FindCase("ca-storm-1");
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  ExplorerOptions options = systems::OptionsForCase(*failure_case, 1);

  ExplorerOptions capped = options;
  capped.max_rounds = 150;
  Explorer blind_explorer(built.spec, capped);
  std::unique_ptr<InjectionStrategy> blind = MakeExhaustiveStrategy();
  EXPECT_FALSE(blind_explorer.Explore(blind.get()).reproduced);

  ExploreResult full = systems::RunSearch(built, options);
  EXPECT_TRUE(full.reproduced);
}

// --- dirty-set invariant fuzz ----------------------------------------------------

EngineSpec RandomSpec(std::mt19937* rng, size_t candidates, size_t observables) {
  EngineSpec spec;
  spec.observables = observables;
  spec.rows.resize(candidates);
  spec.boosts.assign(candidates, 0);
  spec.instance_counts.assign(candidates, 1);
  std::uniform_int_distribution<size_t> row_len(0, 6);
  std::uniform_int_distribution<uint32_t> pick_obs(0, static_cast<uint32_t>(observables) - 1);
  std::uniform_int_distribution<int64_t> pick_dist(0, 50);
  std::uniform_int_distribution<int64_t> pick_instances(1, 5);
  std::uniform_int_distribution<int> pick_boost(0, 9);
  for (size_t i = 0; i < candidates; ++i) {
    size_t len = row_len(*rng);  // 0 = unreachable row (never active)
    std::vector<bool> used(observables, false);
    for (size_t j = 0; j < len; ++j) {
      uint32_t k = pick_obs(*rng);
      if (used[k]) {
        continue;
      }
      used[k] = true;
      spec.rows[i].emplace_back(k, pick_dist(*rng));
    }
    spec.instance_counts[i] = pick_instances(*rng);
    if (pick_boost(*rng) == 0) {
      spec.boosts[i] = kStitchBoost;
    }
  }
  return spec;
}

// Collects the engine's full active-candidate visit order (the top-k heap
// drained to exhaustion) plus its per-candidate state, for equality checks.
struct EngineView {
  std::vector<std::pair<size_t, size_t>> visit_order;  // (candidate, best k)
  std::vector<int64_t> effective;
  std::vector<bool> finite;
  std::vector<int64_t> untried;
  uint64_t rank_hash = 0;

  static EngineView Of(PriorityEngine& engine) {
    EngineView view;
    engine.VisitActive([&](size_t candidate, size_t best_k) {
      view.visit_order.emplace_back(candidate, best_k);
      return true;
    });
    for (size_t i = 0; i < engine.num_candidates(); ++i) {
      view.finite.push_back(engine.Finite(i));
      view.effective.push_back(engine.Finite(i) ? engine.EffectivePriority(i) : 0);
      view.untried.push_back(engine.Untried(i));
    }
    view.rank_hash = engine.RankAuditHash();
    return view;
  }

  friend bool operator==(const EngineView&, const EngineView&) = default;
};

TEST(PriorityEngineFuzzTest, IncrementalDeltasMatchFromScratchRecompute) {
  std::mt19937 rng(0x5eed);
  constexpr size_t kCandidates = 500;
  constexpr size_t kObservables = 40;
  constexpr int kRounds = 120;

  EngineSpec spec = RandomSpec(&rng, kCandidates, kObservables);
  PriorityEngine incremental(spec);
  PriorityEngine reference(spec);

  std::vector<int64_t> priorities(kObservables, 0);
  std::vector<size_t> retired;  // replayed into `reference` after each Reset
  std::uniform_int_distribution<size_t> num_moves(1, 8);
  std::uniform_int_distribution<size_t> pick_obs(0, kObservables - 1);
  std::uniform_int_distribution<int64_t> pick_delta(-3, 3);
  std::uniform_int_distribution<size_t> pick_candidate(0, kCandidates - 1);
  std::uniform_int_distribution<int> retire_gate(0, 3);

  for (int round = 0; round < kRounds; ++round) {
    // Random feedback moves, applied incrementally to one engine and via a
    // full from-scratch recompute to the other.
    std::vector<std::pair<size_t, int64_t>> deltas;
    size_t moves = num_moves(rng);
    for (size_t m = 0; m < moves; ++m) {
      size_t k = pick_obs(rng);
      int64_t delta = pick_delta(rng);
      if (delta == 0) {
        continue;
      }
      priorities[k] += delta;
      deltas.emplace_back(k, delta);
    }
    incremental.ApplyDeltas(deltas);
    reference.Reset(priorities);
    for (size_t index : retired) {
      reference.NoteTriedIndex(index);
    }

    // Random retirements (both engines, same order).
    if (retire_gate(rng) == 0) {
      size_t index = pick_candidate(rng);
      if (incremental.Finite(index) && incremental.Untried(index) > 0) {
        incremental.NoteTriedIndex(index);
        reference.NoteTriedIndex(index);
        retired.push_back(index);
      }
    }

    ASSERT_EQ(EngineView::Of(incremental), EngineView::Of(reference))
        << "dirty-set maintenance diverged from the from-scratch recompute at "
        << "fuzz round " << round;
  }
}

TEST(PriorityEngineFuzzTest, StitchBoostOrdersAheadOfUnboosted) {
  // A boosted candidate with a worse raw F must still outrank an unboosted
  // one: the boost is part of the effective priority the heap orders by.
  EngineSpec spec;
  spec.observables = 1;
  spec.rows = {{{0, 10}}, {{0, 1}}};
  spec.boosts = {kStitchBoost, 0};
  spec.instance_counts = {1, 1};
  PriorityEngine engine(spec);
  std::vector<std::pair<size_t, size_t>> order;
  std::function<bool(size_t, size_t)> visit = [&](size_t candidate, size_t best_k) {
    order.emplace_back(candidate, best_k);
    return true;
  };
  engine.VisitActive(visit);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].first, 0u);
  EXPECT_EQ(order[1].first, 1u);
}

TEST(PriorityEngineFuzzTest, ExhaustionMatchesUntriedBudgets) {
  EngineSpec spec;
  spec.observables = 1;
  spec.rows = {{{0, 5}}, {{0, 7}}};
  spec.boosts = {0, 0};
  spec.instance_counts = {2, 1};
  PriorityEngine engine(spec);
  EXPECT_TRUE(engine.AnyActive());
  engine.NoteTriedIndex(0);
  engine.NoteTriedIndex(1);
  EXPECT_TRUE(engine.AnyActive()) << "candidate 0 still has one untried instance";
  engine.NoteTriedIndex(0);
  EXPECT_FALSE(engine.AnyActive());
}

}  // namespace
}  // namespace anduril::explorer
