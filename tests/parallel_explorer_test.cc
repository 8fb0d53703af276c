// Determinism tests for the parallel exploration engine: with a fixed seed,
// the explorer must emit the same ReproductionScript and round count at
// every thread count (1, 2, 8), with one run per round and with combined
// repetitions, on real failure cases. This is the engine's headline
// invariant — parallelism only changes wall-clock time, never the search
// outcome.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/explorer/explorer.h"
#include "src/explorer/iterative.h"
#include "src/systems/common.h"
#include "tests/test_util.h"

namespace anduril::explorer {
namespace {

struct Outcome {
  bool reproduced = false;
  int rounds = 0;
  std::string script_text;
  std::optional<ReproductionScript> script;
  std::vector<int> present_observables;
};

Outcome RunCase(const systems::BuiltCase& built, const ExplorerOptions& options) {
  ExploreResult result = RunSearch(built, options);
  Outcome outcome;
  outcome.reproduced = result.reproduced;
  outcome.rounds = result.rounds;
  outcome.script = result.script;
  if (result.script.has_value()) {
    outcome.script_text = result.script->ToText(*built.spec.program);
  }
  for (const RoundRecord& record : result.records) {
    outcome.present_observables.push_back(record.present_observables);
  }
  return outcome;
}

void ExpectIdenticalAcrossThreadCounts(const std::string& case_id,
                                       ExplorerOptions options) {
  const systems::FailureCase* failure_case = systems::FindCase(case_id);
  ASSERT_NE(failure_case, nullptr) << case_id;
  systems::BuiltCase built = systems::BuildCase(*failure_case);

  options.num_threads = 1;
  Outcome serial = RunCase(built, options);
  ASSERT_TRUE(serial.reproduced) << case_id;
  ASSERT_TRUE(serial.script.has_value()) << case_id;
  EXPECT_TRUE(Explorer::Replay(built.spec, *serial.script)) << case_id;

  for (int threads : {2, 8}) {
    options.num_threads = threads;
    Outcome parallel = RunCase(built, options);
    EXPECT_EQ(parallel.reproduced, serial.reproduced) << case_id << " threads=" << threads;
    EXPECT_EQ(parallel.rounds, serial.rounds) << case_id << " threads=" << threads;
    EXPECT_EQ(parallel.script_text, serial.script_text)
        << case_id << " threads=" << threads;
    EXPECT_EQ(parallel.present_observables, serial.present_observables)
        << case_id << " threads=" << threads;
  }
}

// --- single run per round -----------------------------------------------------

TEST(ParallelDeterminism, HdfsSingleRunPerRound) {
  ExplorerOptions options;
  ExpectIdenticalAcrossThreadCounts("hd-4233", options);
}

TEST(ParallelDeterminism, ZooKeeperSingleRunPerRound) {
  ExplorerOptions options;
  ExpectIdenticalAcrossThreadCounts("zk-2247", options);
}

// --- network-fault candidate space --------------------------------------------

// The widened (network_candidates) space must preserve the headline
// invariant too: seed-derived delays, partition state, and duplicate
// deliveries are all pure functions of (round, candidate), never of thread
// scheduling.
TEST(ParallelDeterminism, NetworkPartitionCase) {
  ExplorerOptions options;
  options.network_candidates = true;
  ExpectIdenticalAcrossThreadCounts("zk-net-1", options);
}

TEST(ParallelDeterminism, NetworkDelayCase) {
  ExplorerOptions options;
  options.network_candidates = true;
  ExpectIdenticalAcrossThreadCounts("hd-net-2", options);
}

// --- combined repetitions (§6) ------------------------------------------------

TEST(ParallelDeterminism, HdfsMultiRepetition) {
  ExplorerOptions options;
  options.runs_per_round = 4;
  ExpectIdenticalAcrossThreadCounts("hd-4233", options);
}

TEST(ParallelDeterminism, ZooKeeperMultiRepetition) {
  ExplorerOptions options;
  options.runs_per_round = 4;
  ExpectIdenticalAcrossThreadCounts("zk-2247", options);
}

// --- reproduction scripts replay regardless of the thread count they came from

TEST(ParallelDeterminism, ParallelScriptReplays) {
  const systems::FailureCase* failure_case = systems::FindCase("zk-2247");
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  ExplorerOptions options;
  options.num_threads = 4;
  options.runs_per_round = 3;
  Explorer explorer(built.spec, options);
  auto strategy = MakeFullFeedbackStrategy();
  ExploreResult result = explorer.Explore(strategy.get());
  ASSERT_TRUE(result.reproduced);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(Explorer::Replay(built.spec, *result.script));
  }
}

// --- shared analysis cache ----------------------------------------------------

TEST(SharedContext, ExplorersShareOneAnalysis) {
  const systems::FailureCase* failure_case = systems::FindCase("zk-2247");
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case);

  ExplorerOptions options;
  Explorer first(built.spec, options);
  std::shared_ptr<const ExplorerContext> cache = first.shared_context();
  Explorer second(cache, options);
  EXPECT_EQ(&second.context(), cache.get());

  auto strategy_a = MakeFullFeedbackStrategy();
  auto strategy_b = MakeFullFeedbackStrategy();
  ExploreResult a = first.Explore(strategy_a.get());
  ExploreResult b = second.Explore(strategy_b.get());
  ASSERT_TRUE(a.reproduced);
  ASSERT_TRUE(b.reproduced);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.script->ToText(*built.spec.program), b.script->ToText(*built.spec.program));
}

}  // namespace
}  // namespace anduril::explorer
