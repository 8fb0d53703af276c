// Checkpoint/resume invariant and the crash/stall scenario registry.
//
// The central contract under test: a search killed after any round and
// resumed from its checkpoint file emits the byte-identical
// ReproductionScript — and the same total round count — as the
// uninterrupted search at the same seed, at every thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/explorer/checkpoint.h"
#include "src/explorer/explorer.h"
#include "src/explorer/iterative.h"
#include "src/explorer/strategy.h"
#include "src/systems/common.h"
#include "src/util/file.h"
#include "tests/test_util.h"

namespace anduril::explorer {
namespace {

// --- serialization round-trip ---------------------------------------------------

TEST(CheckpointTest, SerializeParseRoundTripIsLossless) {
  SearchCheckpoint snap;
  snap.program_fingerprint = 0xdeadbeefcafef00dull;
  snap.base_seed = (1ull << 63) + 17;  // exercises the >2^53 string encoding
  snap.rounds_completed = 42;
  snap.network_candidates = true;
  snap.partition_heal_ms = 750;
  snap.network_delay_ms = 400;
  snap.pinned.push_back(interp::InjectionCandidate{3, 9, 2, interp::FaultKind::kException});
  snap.pinned.push_back(
      interp::InjectionCandidate{5, 1, ir::kInvalidId, interp::FaultKind::kCrash});
  snap.pinned.push_back(
      interp::InjectionCandidate{6, 2, ir::kInvalidId, interp::FaultKind::kPartition});
  snap.strategy.window_size = 20;
  snap.strategy.exhausted = false;
  snap.strategy.observable_priorities = {4, 0, -2, 100};
  snap.strategy.tried.push_back(
      interp::InjectionCandidate{1, 2, 3, interp::FaultKind::kException});
  snap.strategy.tried.push_back(
      interp::InjectionCandidate{8, 4, ir::kInvalidId, interp::FaultKind::kStall});
  snap.strategy.tried.push_back(
      interp::InjectionCandidate{9, 1, ir::kInvalidId, interp::FaultKind::kDrop});
  snap.strategy.tried.push_back(
      interp::InjectionCandidate{9, 2, ir::kInvalidId, interp::FaultKind::kDelay});
  snap.strategy.tried.push_back(
      interp::InjectionCandidate{9, 3, ir::kInvalidId, interp::FaultKind::kDuplicate});
  snap.strategy.demotions.push_back(
      {interp::InjectionCandidate{8, 4, ir::kInvalidId, interp::FaultKind::kStall}, 2});
  // Chain block: an accepted two-step prefix mid-search.
  snap.chain.steps.push_back(FaultChainStep{
      interp::InjectionCandidate{3, 9, 2, interp::FaultKind::kException},
      (1ull << 62) + 5,
      20,
      {"ERROR append failed", "WARN retry queued"}});
  snap.chain.steps.push_back(FaultChainStep{
      interp::InjectionCandidate{5, 1, ir::kInvalidId, interp::FaultKind::kCrash}, 1, 13, {}});
  snap.chain.phase = 2;
  snap.chain.rounds_before_phase = 33;
  snap.chain.stitched_sites = {7, 11};
  snap.chain.round_candidates.push_back(ChainRoundCandidate{
      interp::InjectionCandidate{9, 3, ir::kInvalidId, interp::FaultKind::kDelay}, 4, 17});
  // Engine block: the candidate-space shape.
  snap.engine_candidates = 100000;
  snap.engine_observables = 40;

  std::string text = SerializeCheckpoint(snap);
  SearchCheckpoint parsed;
  std::string error;
  ASSERT_TRUE(ParseCheckpoint(text, &parsed, &error)) << error;

  EXPECT_EQ(parsed.program_fingerprint, snap.program_fingerprint);
  EXPECT_EQ(parsed.base_seed, snap.base_seed);
  EXPECT_EQ(parsed.rounds_completed, snap.rounds_completed);
  EXPECT_EQ(parsed.network_candidates, snap.network_candidates);
  EXPECT_EQ(parsed.partition_heal_ms, snap.partition_heal_ms);
  EXPECT_EQ(parsed.network_delay_ms, snap.network_delay_ms);
  EXPECT_EQ(parsed.pinned, snap.pinned);
  EXPECT_EQ(parsed.strategy.window_size, snap.strategy.window_size);
  EXPECT_EQ(parsed.strategy.exhausted, snap.strategy.exhausted);
  EXPECT_EQ(parsed.strategy.observable_priorities, snap.strategy.observable_priorities);
  EXPECT_EQ(parsed.strategy.tried, snap.strategy.tried);
  ASSERT_EQ(parsed.strategy.demotions.size(), 1u);
  EXPECT_EQ(parsed.strategy.demotions[0].candidate, snap.strategy.demotions[0].candidate);
  EXPECT_EQ(parsed.strategy.demotions[0].count, snap.strategy.demotions[0].count);
  EXPECT_EQ(parsed.chain, snap.chain);
  EXPECT_EQ(parsed.engine_candidates, snap.engine_candidates);
  EXPECT_EQ(parsed.engine_observables, snap.engine_observables);

  // Serialization is canonical: re-serializing the parse is byte-identical.
  EXPECT_EQ(SerializeCheckpoint(parsed), text);
}

TEST(CheckpointTest, ParseRejectsMalformedAndWrongVersion) {
  SearchCheckpoint out;
  std::string error;
  EXPECT_FALSE(ParseCheckpoint("not json at all", &out, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(ParseCheckpoint("{\"version\": 999}", &out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(CheckpointTest, RejectsVersion1FileWithActionableError) {
  // A pre-network-model checkpoint (schema v1: no network object, no
  // partitioned_stuck count). It must be refused with an error that names
  // both versions and tells the user what to do — not half-parsed into a
  // search with a silently different candidate space.
  const char* v1_text = R"({
    "version": 1,
    "program_fingerprint": "12345",
    "base_seed": "1",
    "rounds_completed": 7,
    "retry_rng_draws": "0",
    "experiment": {"completed_rounds": 7},
    "pinned": [],
    "strategy": {"window_size": 10, "exhausted": false,
                 "observable_priorities": [], "tried": [], "demotions": []}
  })";
  SearchCheckpoint out;
  std::string error;
  EXPECT_FALSE(ParseCheckpoint(v1_text, &out, &error));
  EXPECT_NE(error.find("version 1"), std::string::npos) << error;
  EXPECT_NE(error.find("version 5"), std::string::npos) << error;
  EXPECT_NE(error.find("delete"), std::string::npos)
      << "error must be actionable: " << error;
}

TEST(CheckpointTest, RejectsVersion3FileWithActionableError) {
  // A pre-engine checkpoint (schema v3: chain block but no engine block).
  // Resuming it would skip the engine-vs-options compatibility validation, so
  // it must be refused with an error naming both versions.
  const char* v3_text = R"({
    "version": 3,
    "program_fingerprint": "12345",
    "base_seed": "1",
    "rounds_completed": 7,
    "retry_rng_draws": "0",
    "experiment": {"completed_rounds": 7},
    "network": {"candidates": false, "partition_heal_ms": 0, "delay_ms": 0},
    "pinned": [],
    "strategy": {"window_size": 10, "exhausted": false,
                 "observable_priorities": [], "tried": [], "demotions": []},
    "chain": {"steps": [], "phase": 0, "rounds_before_phase": 0,
              "stitched_sites": [], "round_candidates": []}
  })";
  SearchCheckpoint out;
  std::string error;
  EXPECT_FALSE(ParseCheckpoint(v3_text, &out, &error));
  EXPECT_NE(error.find("version 3"), std::string::npos) << error;
  EXPECT_NE(error.find("version 5"), std::string::npos) << error;
  EXPECT_NE(error.find("delete"), std::string::npos)
      << "error must be actionable: " << error;
}

TEST(CheckpointTest, RejectsVersion4FileWithActionableError) {
  // A v4 checkpoint: the current members plus the ones version 5 dropped —
  // the per-outcome round counts and host-clock seconds of "experiment", and
  // the always-constant "retry_rng_draws", "transient_retries" and engine
  // "kind". Refused like every older version, with both versions named.
  const char* v4_text = R"({
    "version": 4,
    "program_fingerprint": "12345",
    "base_seed": "1",
    "rounds_completed": 7,
    "retry_rng_draws": "0",
    "network": {"candidates": false, "partition_heal_ms": 0, "network_delay_ms": 0},
    "experiment": {"completed_rounds": 7, "crashed_rounds": 0, "hung_rounds": 0,
                   "budget_exceeded_rounds": 0, "partitioned_stuck_rounds": 0,
                   "transient_retries": 0, "total_run_wall_seconds": 0.0125,
                   "max_round_wall_seconds": 0.0031},
    "pinned": [],
    "strategy": {"window_size": 10, "exhausted": false,
                 "observable_priorities": [], "tried": [], "demotions": []},
    "chain": {"steps": [], "phase": 0, "rounds_before_phase": 0,
              "stitched_sites": [], "round_candidates": []},
    "chain_signature_hash": "14695981039346656037",
    "engine": {"kind": "incremental", "candidates": 0, "observables": 0}
  })";
  SearchCheckpoint out;
  std::string error;
  EXPECT_FALSE(ParseCheckpoint(v4_text, &out, &error));
  EXPECT_NE(error.find("version 4"), std::string::npos) << error;
  EXPECT_NE(error.find("version 5"), std::string::npos) << error;
  EXPECT_NE(error.find("delete"), std::string::npos)
      << "error must be actionable: " << error;
}

TEST(CheckpointTest, RejectsFileWithoutEngineBlock) {
  // A file with the engine object stripped: refuse rather than guessing the
  // candidate space at resume.
  SearchCheckpoint snap;
  std::string text = SerializeCheckpoint(snap);
  const std::string key = "\"engine\": {";
  size_t begin = text.find(key);
  ASSERT_NE(begin, std::string::npos);
  size_t end = text.find('}', begin);
  ASSERT_NE(end, std::string::npos);
  // Erase back through the comma after the previous member so the JSON stays
  // well-formed (the engine object is the last member of the root).
  size_t comma = text.rfind(',', begin);
  ASSERT_NE(comma, std::string::npos);
  text.erase(comma, end + 1 - comma);
  SearchCheckpoint out;
  std::string error;
  EXPECT_FALSE(ParseCheckpoint(text, &out, &error));
  EXPECT_NE(error.find("no engine object"), std::string::npos) << error;
}

// Search state no search can reach is refused by field name rather than
// resumed: an empty or negative window (a resume would run empty rounds, or
// overflow the doubling), a priority large enough to overflow the ranking
// arithmetic, and integers that are negative, not integers, or past their
// type's range (they used to be cast into a different search).
TEST(CheckpointTest, RejectsOutOfRangeSearchState) {
  SearchCheckpoint snap;
  snap.strategy.window_size = 20;
  snap.strategy.observable_priorities = {0, 12345};
  const std::string text = SerializeCheckpoint(snap);
  struct Case {
    std::string from;
    std::string to;
    std::string field;
  };
  for (const Case& bad : {Case{"\"window_size\": 20", "\"window_size\": 0", "window_size"},
                          Case{"\"window_size\": 20", "\"window_size\": -2147483648",
                               "window_size"},
                          Case{"12345", "9223372036854775807", "observable_priorities"},
                          Case{"12345", "\"12345\"", "observable_priorities"},
                          Case{"\"rounds_completed\": 0", "\"rounds_completed\": -7",
                               "rounds_completed"},
                          Case{"\"rounds_completed\": 0", "\"rounds_completed\": \"2\"",
                               "rounds_completed"},
                          Case{"\"rounds_completed\": 0", "\"rounds_completed\": 4294967298",
                               "rounds_completed"},
                          Case{"\"partition_heal_ms\": 0", "\"partition_heal_ms\": -1",
                               "partition_heal_ms"}}) {
    SCOPED_TRACE(bad.to);
    std::string tampered = text;
    size_t pos = tampered.find(bad.from);
    ASSERT_NE(pos, std::string::npos);
    tampered.replace(pos, bad.from.size(), bad.to);
    SearchCheckpoint out;
    std::string error;
    EXPECT_FALSE(ParseCheckpoint(tampered, &out, &error));
    EXPECT_NE(error.find("\"" + bad.field + "\""), std::string::npos) << error;
  }
}

TEST(CheckpointTest, RejectsTamperedChainSignatureHash) {
  SearchCheckpoint snap;
  snap.chain.steps.push_back(FaultChainStep{
      interp::InjectionCandidate{3, 9, 2, interp::FaultKind::kException}, 1, 20, {"obs"}});
  std::string text = SerializeCheckpoint(snap);
  // Flip the last digit of the recorded hash: still a well-formed u64 (a
  // flipped leading digit can overflow 2^64, which the field decoder rejects
  // as malformed), but the chain state no longer matches it.
  const std::string key = "\"chain_signature_hash\": \"";
  size_t pos = text.find(key);
  ASSERT_NE(pos, std::string::npos);
  pos = text.find('"', pos + key.size()) - 1;
  text[pos] = text[pos] == '1' ? '2' : '1';
  SearchCheckpoint out;
  std::string error;
  EXPECT_FALSE(ParseCheckpoint(text, &out, &error));
  EXPECT_NE(error.find("chain signature hash mismatch"), std::string::npos) << error;
  EXPECT_NE(error.find("delete"), std::string::npos) << error;
}

TEST(CheckpointTest, RejectsTamperedChainStep) {
  // Editing the chain block itself (not the hash) must fail the same check:
  // the recomputed hash diverges from the recorded one.
  SearchCheckpoint snap;
  snap.chain.steps.push_back(FaultChainStep{
      interp::InjectionCandidate{3, 777, 2, interp::FaultKind::kException}, 1, 20, {}});
  std::string text = SerializeCheckpoint(snap);
  size_t pos = text.find("777");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 3, "778");
  SearchCheckpoint out;
  std::string error;
  EXPECT_FALSE(ParseCheckpoint(text, &out, &error));
  EXPECT_NE(error.find("chain signature hash mismatch"), std::string::npos) << error;
}

TEST(CheckpointTest, ParseRejectsUnknownFaultKind) {
  SearchCheckpoint snap;
  snap.pinned.push_back(
      interp::InjectionCandidate{1, 1, ir::kInvalidId, interp::FaultKind::kDrop});
  std::string text = SerializeCheckpoint(snap);
  // Corrupt the well-formed checkpoint with a kind string no build emits.
  std::string bad = text;
  size_t pos = bad.find("\"drop\"");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 6, "\"teleport\"");
  SearchCheckpoint out;
  std::string error;
  EXPECT_FALSE(ParseCheckpoint(bad, &out, &error));
  EXPECT_NE(error.find("teleport"), std::string::npos) << error;
}

// u64 fields ride as decimal strings and are decoded strictly: a malformed
// value is rejected with an error naming the field, never read as its digit
// prefix ("12abc" -> 12) or as 0.
TEST(CheckpointTest, ParseRejectsMalformedU64Fields) {
  SearchCheckpoint snap;
  snap.base_seed = 77;
  snap.chain.steps.push_back(FaultChainStep{
      interp::InjectionCandidate{3, 9, 2, interp::FaultKind::kException}, 5, 20, {}});
  const std::string text = SerializeCheckpoint(snap);
  for (const std::string field :
       {"program_fingerprint", "base_seed", "seed", "chain_signature_hash"}) {
    for (const std::string bad : {"12abc", "-1", "", "18446744073709551616"}) {
      SCOPED_TRACE(field + "=\"" + bad + "\"");
      std::string tampered = text;
      const std::string key = "\"" + field + "\": \"";
      size_t begin = tampered.find(key);
      ASSERT_NE(begin, std::string::npos);
      begin += key.size();
      tampered.replace(begin, tampered.find('"', begin) - begin, bad);
      SearchCheckpoint out;
      std::string error;
      EXPECT_FALSE(ParseCheckpoint(tampered, &out, &error));
      EXPECT_NE(error.find("\"" + field + "\""), std::string::npos) << error;
    }
  }
}

TEST(CheckpointTest, SaveAndLoadFileRoundTrip) {
  SearchCheckpoint snap;
  snap.program_fingerprint = 123;
  snap.base_seed = 456;
  snap.rounds_completed = 3;
  std::string path = TempPath("save_load_roundtrip.json");
  ASSERT_TRUE(SaveCheckpointFile(path, snap));
  SearchCheckpoint loaded;
  std::string error;
  ASSERT_TRUE(LoadCheckpointFile(path, &loaded, &error)) << error;
  EXPECT_EQ(SerializeCheckpoint(loaded), SerializeCheckpoint(snap));
  std::remove(path.c_str());
}

// --- kill-and-resume invariant --------------------------------------------------

// One search of `built` with the named strategy.
ExploreResult RunStrategy(const systems::BuiltCase& built, const ExplorerOptions& options,
                          const std::string& strategy_name,
                          const CheckpointConfig& checkpoint = {}) {
  Explorer explorer(built.spec, options);
  std::unique_ptr<InjectionStrategy> strategy = MakeStrategy(strategy_name);
  return explorer.Explore(strategy.get(), checkpoint);
}

// The per-outcome round tally of a metrics snapshot: its explore.outcome.*
// counters.
std::vector<std::pair<std::string, int64_t>> OutcomeTally(const obs::MetricsSnapshot& snapshot) {
  std::vector<std::pair<std::string, int64_t>> tally;
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind("explore.outcome.", 0) == 0) {
      tally.emplace_back(name, value);
    }
  }
  return tally;
}

// Runs `case_id` uninterrupted, then again with the round budget cut short
// and a checkpoint file, then resumes a fresh explorer from that file, and
// asserts the resumed search is indistinguishable from the uninterrupted one.
// Every search attaches a metrics registry, so the checkpoint carries it.
void ExpectResumeMatchesUninterrupted(const std::string& case_id, int threads,
                                      const std::string& strategy_name = "full") {
  SCOPED_TRACE(case_id + " " + strategy_name + " @" + std::to_string(threads) + " threads");
  const systems::FailureCase* failure_case = systems::FindCase(case_id);
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  ExplorerOptions options = OptionsForCase(*failure_case, threads);

  obs::MetricsRegistry baseline_metrics;
  ExplorerOptions metered = options;
  metered.metrics = &baseline_metrics;
  ExploreResult baseline = RunStrategy(built, metered, strategy_name);
  ASSERT_TRUE(baseline.reproduced);
  ASSERT_TRUE(baseline.script.has_value());
  ASSERT_GT(baseline.rounds, 1) << "need at least two rounds to interrupt between";

  // Interrupted search: stop one round before success, checkpointing.
  std::string path = TempPath("resume_" + case_id + "_" + strategy_name + "_" +
                              std::to_string(threads) + ".json");
  obs::MetricsRegistry interrupted_metrics;
  ExplorerOptions truncated = options;
  truncated.max_rounds = baseline.rounds - 1;
  truncated.metrics = &interrupted_metrics;
  ExploreResult interrupted =
      RunStrategy(built, truncated, strategy_name, CheckpointConfig{path, nullptr});
  EXPECT_FALSE(interrupted.reproduced);

  // Resume in a brand-new explorer + strategy, rebuilt from the file alone.
  SearchCheckpoint snap;
  std::string error;
  ASSERT_TRUE(LoadCheckpointFile(path, &snap, &error)) << error;
  EXPECT_EQ(snap.rounds_completed, baseline.rounds - 1);
  systems::BuiltCase rebuilt = systems::BuildCase(*failure_case);
  obs::MetricsRegistry resumed_metrics;
  ExplorerOptions resuming = options;
  resuming.metrics = &resumed_metrics;
  ExploreResult resumed =
      RunStrategy(rebuilt, resuming, strategy_name, CheckpointConfig{"", &snap});

  ASSERT_TRUE(resumed.reproduced);
  ASSERT_TRUE(resumed.script.has_value());
  // Byte-identical script, identical seed, identical total round count.
  EXPECT_EQ(resumed.script->ToText(*rebuilt.spec.program),
            baseline.script->ToText(*built.spec.program));
  EXPECT_EQ(resumed.script->seed, baseline.script->seed);
  EXPECT_EQ(resumed.rounds, baseline.rounds);
  // The resumed tally includes the pre-checkpoint rounds.
  int64_t tallied = 0;
  for (const auto& [name, rounds] : OutcomeTally(resumed.metrics)) {
    tallied += rounds;
  }
  EXPECT_EQ(tallied, baseline.rounds);
  EXPECT_EQ(OutcomeTally(resumed.metrics), OutcomeTally(baseline.metrics));
  std::remove(path.c_str());
}

// A readable checkpoint that does not match the search is refused with an
// error before any round runs — never an abort. Here zk-2247 is resumed from
// a checkpoint hd-4233's search wrote, by the plain and the chain explorer.
TEST(CheckpointResumeTest, MismatchedCheckpointReturnsErrorInsteadOfAborting) {
  const systems::FailureCase* writer_case = systems::FindCase("hd-4233");
  const systems::FailureCase* reader_case = systems::FindCase("zk-2247");
  ASSERT_NE(writer_case, nullptr);
  ASSERT_NE(reader_case, nullptr);
  systems::BuiltCase writer = systems::BuildCase(*writer_case);
  ExplorerOptions writer_options = OptionsForCase(*writer_case, 1);
  writer_options.max_rounds = 1;
  const std::string path = TempPath("resume_mismatch.json");
  ASSERT_FALSE(RunSearch(writer, writer_options, CheckpointConfig{path, nullptr}).reproduced);
  SearchCheckpoint snap;
  std::string error;
  ASSERT_TRUE(LoadCheckpointFile(path, &snap, &error)) << error;
  std::remove(path.c_str());

  systems::BuiltCase reader = systems::BuildCase(*reader_case);
  ExplorerOptions options = OptionsForCase(*reader_case, 1);
  ExploreResult plain = RunSearch(reader, options, CheckpointConfig{"", &snap});
  EXPECT_NE(plain.error.find("different program"), std::string::npos) << plain.error;
  EXPECT_FALSE(plain.reproduced);
  EXPECT_TRUE(plain.records.empty());

  ChainExplorer chain_explorer(reader.spec, options);
  ChainResult chain = chain_explorer.Explore(4, CheckpointConfig{"", &snap});
  EXPECT_NE(chain.error.find("different program"), std::string::npos) << chain.error;
  EXPECT_EQ(chain.total_rounds, 0);

  // The right program, but another search configuration.
  const std::string own_path = TempPath("resume_mismatch_own.json");
  ExplorerOptions truncated = options;
  truncated.max_rounds = 1;
  RunSearch(reader, truncated, CheckpointConfig{own_path, nullptr});
  SearchCheckpoint own;
  ASSERT_TRUE(LoadCheckpointFile(own_path, &own, &error)) << error;
  std::remove(own_path.c_str());
  own.base_seed += 1;
  ExploreResult reseeded = RunSearch(reader, options, CheckpointConfig{"", &own});
  EXPECT_NE(reseeded.error.find("base seed"), std::string::npos) << reseeded.error;

  // A chain-bearing checkpoint under the plain explorer, and a chain longer
  // than the chain search may grow.
  own.base_seed -= 1;
  own.chain.steps.assign(3, FaultChainStep{});
  ExploreResult chained = RunSearch(reader, options, CheckpointConfig{"", &own});
  EXPECT_NE(chained.error.find("chain state does not match"), std::string::npos)
      << chained.error;
  ChainResult too_long = chain_explorer.Explore(2, CheckpointConfig{"", &own});
  EXPECT_NE(too_long.error.find("max_chain_length"), std::string::npos) << too_long.error;
}

TEST(CheckpointResumeTest, Zk2247SerialResumeIsByteIdentical) {
  ExpectResumeMatchesUninterrupted("zk-2247", 1);
}

TEST(CheckpointResumeTest, Zk2247EightThreadResumeIsByteIdentical) {
  ExpectResumeMatchesUninterrupted("zk-2247", 8);
}

TEST(CheckpointResumeTest, Hd4233SerialResumeIsByteIdentical) {
  ExpectResumeMatchesUninterrupted("hd-4233", 1);
}

TEST(CheckpointResumeTest, Hd4233EightThreadResumeIsByteIdentical) {
  ExpectResumeMatchesUninterrupted("hd-4233", 8);
}

// Network-rooted cases exercise the v2 fields: the checkpoint records the
// widened candidate space plus the cluster's partition/delay knobs, and the
// resumed search must replay them byte-identically (zk-net-1's search also
// passes through partitioned-stuck rounds before it succeeds).
TEST(CheckpointResumeTest, ZkNet1PartitionSerialResumeIsByteIdentical) {
  ExpectResumeMatchesUninterrupted("zk-net-1", 1);
}

TEST(CheckpointResumeTest, HdNet1DropEightThreadResumeIsByteIdentical) {
  ExpectResumeMatchesUninterrupted("hd-net-1", 8);
}

// Storm-scale case: a mid-search kill/resume over a ~6×10⁴-instance
// candidate space must land on the identical script — the incremental
// engine's restored state (F_i / k*_i / untried budgets recomputed from the
// checkpoint's priorities + tried set) has to agree with the uninterrupted
// engine at full scale, not just on the Table 5 registry.
TEST(CheckpointResumeTest, CaStorm1SerialResumeIsByteIdentical) {
  ExpectResumeMatchesUninterrupted("ca-storm-1", 1);
}

// The ablations restore through the same engine Reset plus tried-set replay
// as full feedback. zk-crash-1's searches pass through hung rounds, so their
// checkpoints carry demotions too.
TEST(CheckpointResumeTest, AblationResumesAreByteIdentical) {
  for (const char* strategy : {"full-order", "full-sum", "multiply", "site-feedback"}) {
    for (const char* case_id : {"hd-4233", "zk-crash-1"}) {
      ExpectResumeMatchesUninterrupted(case_id, 1, strategy);
    }
  }
}

// A checkpoint the search cannot write ends it with an error after the round
// that tried, instead of aborting the process: the plain search, and the
// chain search whose phase it stops.
TEST(CheckpointResumeTest, UnwritableCheckpointStopsThePlainSearchWithAnError) {
  const systems::FailureCase* failure_case = systems::FindCase("hd-4233");
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  const std::string path = TempPath("no_such_dir/checkpoint.json");
  ExploreResult result =
      RunSearch(built, OptionsForCase(*failure_case, 1), CheckpointConfig{path, nullptr});
  EXPECT_NE(result.error.find("cannot write checkpoint file " + path + " after round 1"),
            std::string::npos)
      << result.error;
  EXPECT_FALSE(result.reproduced);
  EXPECT_EQ(result.rounds, 1);
}

TEST(CheckpointResumeTest, UnwritableCheckpointStopsTheChainSearchWithAnError) {
  const systems::FailureCase* failure_case = systems::FindCase("casc-retry-1");
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  const std::string path = TempPath("no_such_dir/chain_checkpoint.json");
  ChainExplorer explorer(built.spec, OptionsForCase(*failure_case, 1));
  ChainResult result = explorer.Explore(4, CheckpointConfig{path, nullptr});
  EXPECT_NE(result.error.find("cannot write checkpoint file " + path), std::string::npos)
      << result.error;
  EXPECT_FALSE(result.reproduced);
  EXPECT_EQ(result.phases, 1);
}

// The list baselines have no serializable state: asking one to checkpoint is
// refused before round 1, and no file appears.
TEST(CheckpointResumeTest, StrategyThatCannotCheckpointIsRefusedBeforeRoundOne) {
  const systems::FailureCase* failure_case = systems::FindCase("zk-2247");
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  const std::string path = TempPath("fate_checkpoint.json");
  std::remove(path.c_str());
  ExploreResult result = RunStrategy(built, OptionsForCase(*failure_case, 1), "fate",
                                     CheckpointConfig{path, nullptr});
  EXPECT_NE(result.error.find("fate strategy cannot save its search state"), std::string::npos)
      << result.error;
  EXPECT_TRUE(result.records.empty());
  SearchCheckpoint snap;
  std::string error;
  EXPECT_FALSE(LoadCheckpointFile(path, &snap, &error));
}

TEST(CheckpointResumeTest, NetworkConfigIsPersistedInCheckpoint) {
  const systems::FailureCase* failure_case = systems::FindCase("hd-net-2");
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  ExplorerOptions options = OptionsForCase(*failure_case, 1);
  options.max_rounds = 2;
  std::string path = TempPath("network_config.json");
  RunSearch(built, options, CheckpointConfig{path, nullptr});
  SearchCheckpoint snap;
  std::string error;
  ASSERT_TRUE(LoadCheckpointFile(path, &snap, &error)) << error;
  EXPECT_TRUE(snap.network_candidates);
  EXPECT_EQ(snap.partition_heal_ms, built.cluster.partition_heal_ms);
  EXPECT_EQ(snap.network_delay_ms, built.cluster.network_delay_ms);
  std::remove(path.c_str());
}

TEST(CheckpointResumeTest, CappedSearchLeavesItsCapRoundCheckpoint) {
  const systems::FailureCase* failure_case = systems::FindCase("zk-2247");
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  ExplorerOptions options = OptionsForCase(*failure_case, 1);
  options.max_rounds = 2;
  std::string path = TempPath("cap_round.json");
  RunSearch(built, options, CheckpointConfig{path, nullptr});
  SearchCheckpoint snap;
  std::string error;
  ASSERT_TRUE(LoadCheckpointFile(path, &snap, &error)) << error;
  EXPECT_EQ(snap.rounds_completed, 2);
  EXPECT_EQ(snap.program_fingerprint, ProgramFingerprint(*built.spec.program));
  EXPECT_EQ(snap.base_seed, built.spec.base_seed);
  std::remove(path.c_str());
}

// A checkpoint is a pure function of the search: the file a search saves at
// its round-N cap holds the same bytes whether the search ran rounds 1..N in
// one process or stopped at round k < N and resumed.
TEST(CheckpointResumeTest, ResumedSearchSavesTheUninterruptedCheckpointBytes) {
  constexpr int kStopRound = 2;
  constexpr int kCapRound = 4;  // zk-2247 reproduces in round 5
  const systems::FailureCase* failure_case = systems::FindCase("zk-2247");
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  ExplorerOptions options = OptionsForCase(*failure_case, 1);

  const std::string uninterrupted_path = TempPath("pure_uninterrupted.json");
  obs::MetricsRegistry uninterrupted_metrics;
  ExplorerOptions capped = options;
  capped.max_rounds = kCapRound;
  capped.metrics = &uninterrupted_metrics;
  ASSERT_FALSE(RunSearch(built, capped, CheckpointConfig{uninterrupted_path, nullptr}).reproduced);

  const std::string stopped_path = TempPath("pure_stopped.json");
  obs::MetricsRegistry stopped_metrics;
  ExplorerOptions stopping = options;
  stopping.max_rounds = kStopRound;
  stopping.metrics = &stopped_metrics;
  ASSERT_FALSE(RunSearch(built, stopping, CheckpointConfig{stopped_path, nullptr}).reproduced);
  SearchCheckpoint snap;
  std::string error;
  ASSERT_TRUE(LoadCheckpointFile(stopped_path, &snap, &error)) << error;
  ASSERT_EQ(snap.rounds_completed, kStopRound);

  const std::string resumed_path = TempPath("pure_resumed.json");
  systems::BuiltCase rebuilt = systems::BuildCase(*failure_case);
  obs::MetricsRegistry resumed_metrics;
  capped.metrics = &resumed_metrics;
  ASSERT_FALSE(RunSearch(rebuilt, capped, CheckpointConfig{resumed_path, &snap}).reproduced);

  std::string uninterrupted;
  std::string resumed;
  ASSERT_TRUE(ReadFileToString(uninterrupted_path, &uninterrupted));
  ASSERT_TRUE(ReadFileToString(resumed_path, &resumed));
  EXPECT_NE(uninterrupted.find("\"rounds_completed\": 4,"), std::string::npos) << uninterrupted;
  EXPECT_NE(uninterrupted.find("\"metrics\""), std::string::npos) << uninterrupted;
  EXPECT_EQ(resumed, uninterrupted);
  for (const std::string& path : {uninterrupted_path, stopped_path, resumed_path}) {
    std::remove(path.c_str());
  }
}

// Full feedback, with `on_round` called after each round's feedback.
class RoundHook : public InjectionStrategy {
 public:
  explicit RoundHook(std::function<void(int round)> on_round)
      : inner_(MakeFullFeedbackStrategy()), on_round_(std::move(on_round)) {}
  std::string name() const override { return inner_->name(); }
  void Initialize(const ExplorerContext& context) override { inner_->Initialize(context); }
  void set_metrics(obs::MetricsRegistry* metrics) override { inner_->set_metrics(metrics); }
  std::vector<interp::InjectionCandidate> NextWindow() override { return inner_->NextWindow(); }
  void OnRound(const RoundOutcome& outcome) override {
    inner_->OnRound(outcome);
    on_round_(outcome.round);
  }
  bool Exhausted() const override { return inner_->Exhausted(); }
  bool WantsLogFeedback() const override { return inner_->WantsLogFeedback(); }
  int RankOfSite(ir::FaultSiteId site) const override { return inner_->RankOfSite(site); }
  bool SaveState(StrategyCheckpoint* out) const override { return inner_->SaveState(out); }
  bool RestoreState(const StrategyCheckpoint& state) override {
    return inner_->RestoreState(state);
  }

 private:
  std::unique_ptr<InjectionStrategy> inner_;
  std::function<void(int round)> on_round_;
};

// A drain stops the search at the next round boundary and saves the round it
// ended on there, though the cadence skipped it: the file holds round 3, and
// a search resumed from it matches the uninterrupted one in script, seed,
// round count and final metrics. The flag is set from another thread, as a
// signal handler or the service would.
TEST(CheckpointResumeTest, DrainSavesItsLastRoundAndResumesByteIdentically) {
  constexpr int kDrainRound = 3;
  const systems::FailureCase* failure_case = systems::FindCase("hd-4233");
  ASSERT_NE(failure_case, nullptr);
  for (const int threads : {1, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    systems::BuiltCase built = systems::BuildCase(*failure_case);
    ExplorerOptions options = OptionsForCase(*failure_case, threads);
    obs::MetricsRegistry baseline_metrics;
    options.metrics = &baseline_metrics;
    const ExploreResult baseline = RunSearch(built, options);
    ASSERT_TRUE(baseline.reproduced);
    ASSERT_GT(baseline.rounds, kDrainRound + 1);

    const std::string path = TempPath("drain_" + std::to_string(threads) + ".json");
    std::atomic<bool> cancel{false};
    obs::MetricsRegistry drained_metrics;
    ExplorerOptions draining = options;
    draining.metrics = &drained_metrics;
    draining.cancel = &cancel;
    RoundHook hook([&cancel](int round) {
      if (round == kDrainRound) {
        std::thread([&cancel] { cancel.store(true, std::memory_order_relaxed); }).join();
      }
    });
    Explorer explorer(built.spec, draining);
    const ExploreResult drained = explorer.Explore(&hook, CheckpointConfig{path, nullptr});
    EXPECT_TRUE(drained.error.empty()) << drained.error;
    EXPECT_TRUE(drained.interrupted);
    EXPECT_EQ(drained.rounds, kDrainRound);
    SearchCheckpoint snap;
    std::string error;
    ASSERT_TRUE(LoadCheckpointFile(path, &snap, &error)) << error;
    EXPECT_EQ(snap.rounds_completed, kDrainRound);
    std::remove(path.c_str());

    systems::BuiltCase rebuilt = systems::BuildCase(*failure_case);
    obs::MetricsRegistry resumed_metrics;
    ExplorerOptions resuming = options;
    resuming.metrics = &resumed_metrics;
    const ExploreResult resumed = RunSearch(rebuilt, resuming, CheckpointConfig{"", &snap});
    ASSERT_TRUE(resumed.reproduced);
    EXPECT_EQ(resumed.script->ToText(*rebuilt.spec.program),
              baseline.script->ToText(*built.spec.program));
    EXPECT_EQ(resumed.script->seed, baseline.script->seed);
    EXPECT_EQ(resumed.rounds, baseline.rounds);
    EXPECT_EQ(obs::MetricsSnapshotToJson(resumed.metrics).Dump(),
              obs::MetricsSnapshotToJson(baseline.metrics).Dump());
  }
}

// A resumed search with quick rounds writes nothing before its cap: with the
// checkpoint's directory gone after its first round, the save that fails is
// the cap's, four rounds later. hd-4233's rounds take well under
// kCheckpointInterval, sanitized builds included.
TEST(CheckpointResumeTest, ResumedSliceSavesOnlyAtItsCap) {
  const systems::FailureCase* failure_case = systems::FindCase("hd-4233");
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  ExplorerOptions options = OptionsForCase(*failure_case, 1);
  options.max_rounds = 2;
  const std::string dir = TempPath("resumed_slice");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/checkpoint.json";
  ASSERT_FALSE(RunSearch(built, options, CheckpointConfig{path, nullptr}).reproduced);
  SearchCheckpoint snap;
  std::string error;
  ASSERT_TRUE(LoadCheckpointFile(path, &snap, &error)) << error;
  ASSERT_EQ(snap.rounds_completed, 2);

  options.max_rounds = 6;
  RoundHook hook([&dir](int round) {
    if (round == 3) {
      std::filesystem::remove_all(dir);
    }
  });
  Explorer explorer(built.spec, options);
  const ExploreResult resumed = explorer.Explore(&hook, CheckpointConfig{path, &snap});
  EXPECT_NE(resumed.error.find("cannot write checkpoint file " + path + " after round 6"),
            std::string::npos)
      << resumed.error;
  EXPECT_FALSE(resumed.reproduced);
  EXPECT_EQ(resumed.rounds, 6);
}

// --- crash/stall scenario registry ---------------------------------------------

TEST(CrashStallScenarioTest, RegistryIsSeparateFromTable5Set) {
  EXPECT_EQ(systems::AllCases().size(), 22u);
  ASSERT_GE(systems::CrashStallCases().size(), 2u);
  bool has_crash = false;
  bool has_stall = false;
  for (const systems::FailureCase& failure_case : systems::CrashStallCases()) {
    has_crash |= failure_case.root_kind == interp::FaultKind::kCrash;
    has_stall |= failure_case.root_kind == interp::FaultKind::kStall;
    // Reachable through FindCase like every other case.
    EXPECT_EQ(systems::FindCase(failure_case.id), &failure_case);
  }
  EXPECT_TRUE(has_crash);
  EXPECT_TRUE(has_stall);
}

TEST(CrashStallScenarioTest, ScenariosReproduceAndReplayDeterministically) {
  for (const systems::FailureCase& failure_case : systems::CrashStallCases()) {
    SCOPED_TRACE(failure_case.id);
    systems::BuiltCase built = systems::BuildCase(failure_case);
    ExplorerOptions options = OptionsForCase(failure_case, 1);
    ASSERT_TRUE(options.crash_stall_candidates);
    ExploreResult result = RunSearch(built, options);
    ASSERT_TRUE(result.reproduced);
    ASSERT_TRUE(result.script.has_value());
    EXPECT_NE(result.script->kind, interp::FaultKind::kException)
        << "reachable only via crash/stall by construction";
    // The search visited crash and hang outcomes on the way.
    auto rounds_ending = [&result](interp::RunOutcome outcome) {
      return std::count_if(
          result.records.begin(), result.records.end(),
          [outcome](const RoundRecord& record) { return record.outcome == outcome; });
    };
    EXPECT_GT(rounds_ending(interp::RunOutcome::kCrashed), 0);
    EXPECT_GT(rounds_ending(interp::RunOutcome::kHung), 0);
    // The emitted script replays deterministically.
    EXPECT_TRUE(Explorer::Replay(built.spec, *result.script));
  }
}

TEST(CrashStallScenarioTest, ExceptionOnlySearchCannotReachCrashScenarios) {
  // Without crash_stall_candidates the candidate space contains no crash or
  // stall instances, so the oracle can never be satisfied.
  for (const systems::FailureCase& failure_case : systems::CrashStallCases()) {
    SCOPED_TRACE(failure_case.id);
    systems::BuiltCase built = systems::BuildCase(failure_case);
    ExplorerOptions options;
    options.num_threads = 1;
    options.crash_stall_candidates = false;
    options.max_rounds = 150;  // bounded: this search is expected to fail
    ExploreResult result = RunSearch(built, options);
    EXPECT_FALSE(result.reproduced);
  }
}

}  // namespace
}  // namespace anduril::explorer
