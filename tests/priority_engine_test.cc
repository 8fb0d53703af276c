// Pinned search trajectories of the feedback and list strategies, plus the
// priority engine's own invariants.
//
// tests/golden/search_runs.txt holds one line per (strategy, case, base-seed
// offset): the five feedback strategies (full, full-order, full-sum,
// multiply, site-feedback) and the six list strategies (exhaustive,
// site-distance, site-distance-limit, fate, crashtuner, stacktrace) over the
// 31 registered non-storm cases at base-seed offsets 0 and 7919, plus full on
// the two storm cases. Cascades are capped at 40 rounds (single-fault search
// never reproduces them), everything else at 300. Each line has readable
// fields (reproduced, rounds, exhausted, script seed and text) and FNV-1a
// digests of:
//
//   windows  every NextWindow result, in order;
//   records  every RoundRecord's window size, tracked rank, injected
//            candidate, present-observable count, outcome and success;
//   audits   the per-round rank-audit hashes (RankAuditHash) the strategy
//            pushes;
//   state    the strategy's final StrategyCheckpoint ("-" for the list
//            strategies, which save no state).
//
// The feedback lines were first written while stage-1 ranking still had a
// second, from-scratch implementation (a full per-round re-rank behind an
// explorer option). The generator ran full on both and refused to write
// unless every line agreed, and the ablations' lines are that re-rank's own
// output. After an intentional change to a trajectory, refresh the file with
// scripts/update_trace_golden.sh.
//
// Plus: a randomized dirty-set fuzz (incremental ApplyDeltas against a
// from-scratch Reset on every round), the engine's stitch-boost and exhaustion
// unit checks, and the storm-scale candidate-space floor.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/explorer/context.h"
#include "src/explorer/explorer.h"
#include "src/explorer/priority_engine.h"
#include "src/explorer/strategy.h"
#include "src/systems/common.h"
#include "src/util/file.h"
#include "src/util/hash.h"
#include "tests/test_util.h"

namespace anduril::explorer {
namespace {

// --- pinned search trajectories ----------------------------------------------------

constexpr const char* kGoldenFile = "search_runs.txt";

constexpr const char* kGoldenHeader =
    "# Search trajectories of the feedback and list strategies, written by\n"
    "# tests/priority_engine_test.cc.\n"
    "# <strategy> <case> +<base-seed offset> reproduced= rounds= exhausted= seed=\n"
    "#   windows= records= audits= state= script=\n"
    "# windows: FNV-1a over every NextWindow result; records: over every round's\n"
    "# window size, tracked rank, injected candidate, present count, outcome and\n"
    "# success; audits: over the per-round rank-audit hashes; state: over the final\n"
    "# StrategyCheckpoint (- when the strategy saves none). Refresh after an\n"
    "# intentional change:\n"
    "# scripts/update_trace_golden.sh\n";

constexpr const char* kStrategies[] = {
    "full",       "full-order",    "full-sum",            "multiply", "site-feedback",
    "exhaustive", "site-distance", "site-distance-limit", "fate",     "crashtuner",
    "stacktrace"};
constexpr uint64_t kSeedOffsets[] = {0, 7919};
constexpr int kCascadeRoundCap = 40;
constexpr int kRoundCap = 300;

void MixCandidate(Fnv1aHasher* hasher, const interp::InjectionCandidate& candidate) {
  hasher->MixInt(candidate.site);
  hasher->MixInt(candidate.occurrence);
  hasher->MixInt(candidate.type);
  hasher->MixInt(static_cast<int64_t>(candidate.kind));
}

// Forwards every call to the strategy under test and digests each window it
// hands the explorer.
class RecordingStrategy : public InjectionStrategy {
 public:
  explicit RecordingStrategy(std::unique_ptr<InjectionStrategy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void Initialize(const ExplorerContext& context) override { inner_->Initialize(context); }
  void set_metrics(obs::MetricsRegistry* metrics) override { inner_->set_metrics(metrics); }
  std::vector<interp::InjectionCandidate> NextWindow() override {
    std::vector<interp::InjectionCandidate> window = inner_->NextWindow();
    windows_.MixInt(static_cast<int64_t>(window.size()));
    for (const interp::InjectionCandidate& candidate : window) {
      MixCandidate(&windows_, candidate);
    }
    return window;
  }
  void OnRound(const RoundOutcome& outcome) override { inner_->OnRound(outcome); }
  bool Exhausted() const override { return inner_->Exhausted(); }
  bool WantsLogFeedback() const override { return inner_->WantsLogFeedback(); }
  void SeedStitchedSites(const std::vector<ir::FaultSiteId>& sites) override {
    inner_->SeedStitchedSites(sites);
  }
  int RankOfSite(ir::FaultSiteId site) const override { return inner_->RankOfSite(site); }
  void SetRankAuditSink(std::vector<uint64_t>* sink) override { inner_->SetRankAuditSink(sink); }
  bool SaveState(StrategyCheckpoint* out) const override { return inner_->SaveState(out); }
  bool RestoreState(const StrategyCheckpoint& state) override {
    return inner_->RestoreState(state);
  }

  uint64_t windows_hash() const { return windows_.hash(); }

 private:
  std::unique_ptr<InjectionStrategy> inner_;
  Fnv1aHasher windows_;
};

uint64_t DigestRecords(const std::vector<RoundRecord>& records) {
  Fnv1aHasher hasher;
  for (const RoundRecord& record : records) {
    hasher.MixInt(record.window_size);
    hasher.MixInt(record.tracked_rank);
    hasher.MixInt(record.injected);
    if (record.injected) {
      MixCandidate(&hasher, record.candidate);
    }
    hasher.MixInt(record.present_observables);
    hasher.MixInt(static_cast<int64_t>(record.outcome));
    hasher.MixInt(record.success);
    hasher.MixSeparator();
  }
  return hasher.hash();
}

uint64_t DigestAudits(const std::vector<uint64_t>& audits) {
  Fnv1aHasher hasher;
  hasher.MixInt(static_cast<int64_t>(audits.size()));
  for (uint64_t audit : audits) {
    hasher.MixInt(static_cast<int64_t>(audit));
  }
  return hasher.hash();
}

uint64_t DigestState(const StrategyCheckpoint& state) {
  Fnv1aHasher hasher;
  hasher.MixInt(state.window_size);
  hasher.MixInt(state.exhausted);
  hasher.MixInt(static_cast<int64_t>(state.observable_priorities.size()));
  for (int64_t priority : state.observable_priorities) {
    hasher.MixInt(priority);
  }
  hasher.MixInt(static_cast<int64_t>(state.tried.size()));
  for (const interp::InjectionCandidate& candidate : state.tried) {
    MixCandidate(&hasher, candidate);
  }
  hasher.MixInt(static_cast<int64_t>(state.demotions.size()));
  for (const StrategyCheckpoint::Demotion& demotion : state.demotions) {
    MixCandidate(&hasher, demotion.candidate);
    hasher.MixInt(demotion.count);
  }
  return hasher.hash();
}

std::string Hex(uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof(text), "%016" PRIx64, value);
  return text;
}

// One point of the grid, searched with `threads` workers.
std::string SearchLine(const std::string& strategy_name, const systems::FailureCase& failure_case,
                       uint64_t offset, int threads) {
  systems::BuiltCase built = systems::BuildCase(failure_case, /*verify=*/false);
  built.spec.base_seed += offset;
  ExplorerOptions options = OptionsForCase(failure_case, threads);
  options.max_rounds = failure_case.root_chain.empty() ? kRoundCap : kCascadeRoundCap;
  options.track_site = built.ground_truth.site;

  Explorer explorer(built.spec, options);
  std::unique_ptr<InjectionStrategy> inner = MakeStrategy(strategy_name);
  EXPECT_NE(inner, nullptr) << strategy_name;
  RecordingStrategy strategy(std::move(inner));
  std::vector<uint64_t> audits;
  strategy.SetRankAuditSink(&audits);
  ExploreResult result = explorer.Explore(&strategy);
  StrategyCheckpoint state;
  const bool saved = strategy.SaveState(&state);

  const bool has_script = result.script.has_value();
  std::ostringstream line;
  line << strategy_name << ' ' << failure_case.id << " +" << offset
       << " reproduced=" << result.reproduced << " rounds=" << result.rounds
       << " exhausted=" << strategy.Exhausted()
       << " seed=" << (has_script ? std::to_string(result.script->seed) : "-")
       << " windows=" << Hex(strategy.windows_hash())
       << " records=" << Hex(DigestRecords(result.records))
       << " audits=" << Hex(DigestAudits(audits))
       << " state=" << (saved ? Hex(DigestState(state)) : "-")
       << " script="
       << (has_script ? "\"" + result.script->ToText(*built.program) + "\"" : "-");
  return line.str();
}

std::vector<const systems::FailureCase*> NonStormCases() {
  std::vector<const systems::FailureCase*> cases;
  for (const std::vector<systems::FailureCase>* registry :
       {&systems::AllCases(), &systems::CrashStallCases(), &systems::NetworkCases(),
        &systems::CascadeCases()}) {
    for (const systems::FailureCase& failure_case : *registry) {
      cases.push_back(&failure_case);
    }
  }
  return cases;
}

// The grid's lines for `strategies` (in file order) at `threads` workers. The
// ablations stay off the storm cases: order-temporal distance is quadratic in
// a site's instance count, and the storm sites have thousands.
std::vector<std::string> CurrentLines(const std::vector<std::string>& strategies, int threads) {
  std::vector<std::string> lines;
  for (const std::string& strategy : strategies) {
    std::vector<const systems::FailureCase*> cases = NonStormCases();
    if (strategy == "full") {
      for (const systems::FailureCase& storm : systems::StormCases()) {
        cases.push_back(&storm);
      }
    }
    for (const systems::FailureCase* failure_case : cases) {
      for (uint64_t offset : kSeedOffsets) {
        lines.push_back(SearchLine(strategy, *failure_case, offset, threads));
      }
    }
  }
  return lines;
}

// A line's fields as (name, value): "strategy", "case" and "seed offset",
// then every key=value pair (a quoted value runs to its closing quote).
std::vector<std::pair<std::string, std::string>> Fields(const std::string& line) {
  std::vector<std::pair<std::string, std::string>> fields;
  std::istringstream in(line);
  for (const char* name : {"strategy", "case", "seed offset"}) {
    std::string token;
    in >> token;
    fields.emplace_back(name, token);
  }
  for (std::string token; in >> token;) {
    if (token.find("=\"") != std::string::npos) {
      for (std::string rest; token.back() != '"' && in >> rest;) {
        token += " " + rest;
      }
    }
    const size_t eq = token.find('=');
    fields.emplace_back(token.substr(0, eq),
                        eq == std::string::npos ? std::string() : token.substr(eq + 1));
  }
  return fields;
}

// "<strategy> <case> +<offset>: field '<name>' differs", plus both lines.
std::string DescribeDifference(const std::string& expected, const std::string& actual) {
  const auto want = Fields(expected);
  const auto got = Fields(actual);
  std::string field;
  for (size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    if (i >= want.size() || i >= got.size() || want[i] != got[i]) {
      field = i < want.size() ? want[i].first : got[i].first;
      break;
    }
  }
  return want[0].second + " " + want[1].second + " " + want[2].second + ": field '" + field +
         "' differs\n  expected: " + expected + "\n  actual:   " + actual;
}

// Compares `actual` with `expected` line by line; reports the count of
// differing lines and the first difference.
void ExpectLinesMatch(const std::vector<std::string>& expected,
                      const std::vector<std::string>& actual, const std::string& what) {
  int differing = 0;
  std::string first;
  for (size_t i = 0; i < std::max(expected.size(), actual.size()); ++i) {
    const std::string want = i < expected.size() ? expected[i] : "- - - (no line)";
    const std::string got = i < actual.size() ? actual[i] : "- - - (no line)";
    if (want != got && differing++ == 0) {
      first = DescribeDifference(want, got);
    }
  }
  EXPECT_EQ(differing, 0) << differing << " of " << expected.size() << " " << what
                          << " differ from " << GoldenPath(kGoldenFile) << "; first: " << first
                          << "\nif the change is intentional, run scripts/update_trace_golden.sh";
}

std::vector<std::string> GoldenLines() {
  std::string text;
  EXPECT_TRUE(ReadFileToString(GoldenPath(kGoldenFile), &text))
      << GoldenPath(kGoldenFile) << " missing; run scripts/update_trace_golden.sh";
  return GoldenDataLines(text);
}

TEST(SearchTrajectoryGolden, StrategiesMatchCommittedTrajectories) {
  const std::vector<std::string> strategies(std::begin(kStrategies), std::end(kStrategies));
  const std::vector<std::string> actual = CurrentLines(strategies, 1);
  EXPECT_EQ(actual.size(), 11u * 31u * 2u + 2u * 2u)
      << "the grid is 11 strategies x 31 cases x 2 seeds, plus full on 2 storms x 2 seeds";
  if (UpdateGoldens()) {
    ASSERT_FALSE(HasFailure()) << "not writing " << GoldenPath(kGoldenFile);
    std::string text = kGoldenHeader;
    for (const std::string& line : actual) {
      text += line + "\n";
    }
    ASSERT_TRUE(WriteFileAtomic(GoldenPath(kGoldenFile), text))
        << "cannot write " << GoldenPath(kGoldenFile);
    return;
  }
  ExpectLinesMatch(GoldenLines(), actual, "search lines");
}

// The determinism contract at the trajectory level: full's lines do not
// depend on the worker count.
TEST(SearchTrajectoryGolden, FullFeedbackMatchesAtTwoAndEightThreads) {
  std::vector<std::string> expected;
  for (const std::string& line : GoldenLines()) {
    if (line.rfind("full ", 0) == 0) {
      expected.push_back(line);
    }
  }
  for (int threads : {2, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ExpectLinesMatch(expected, CurrentLines({"full"}, threads), "full lines");
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
