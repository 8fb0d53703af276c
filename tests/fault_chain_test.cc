// Ordered fault chains: the cascade registry, the chain-vs-independent
// separation, chain determinism and mid-chain kill/resume, and the fault
// signature lifecycle (build, replay, minimize, round-trip).
//
// The central contracts under test:
//  - every CascadeCases() scenario is reproduced by the chain search in
//    bounded rounds while the single-fault search provably caps out;
//  - a fixed seed yields the identical FaultChain and round count at every
//    thread count, and a search killed mid-chain and resumed from its
//    checkpoint is indistinguishable from the uninterrupted one;
//  - the unminimized signature of a reproduction replays byte-identically
//    to the search's own failing run, with zero search rounds, and survives
//    greedy minimization and a serialize/parse round-trip.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/explorer/checkpoint.h"
#include "src/explorer/explorer.h"
#include "src/explorer/iterative.h"
#include "src/explorer/signature.h"
#include "src/interp/log_entry.h"
#include "src/interp/simulator.h"
#include "src/obs/trace.h"
#include "src/systems/common.h"
#include "src/util/file.h"
#include "tests/test_util.h"

namespace anduril::explorer {
namespace {

// Bounded budgets for searches that are *expected* to fail: big enough that
// success would be seen if it were possible, small enough to keep the suite
// fast. The chain search must win well inside the same per-phase budget.
constexpr int kDoomedRounds = 120;
constexpr int kPhaseRounds = 200;

ChainResult RunChain(const systems::BuiltCase& built, const ExplorerOptions& options,
                     int max_chain_length = 3,
                     const CheckpointConfig& checkpoint = CheckpointConfig{}) {
  ChainExplorer chain_explorer(built.spec, options);
  return chain_explorer.Explore(max_chain_length, checkpoint);
}

// --- registry -------------------------------------------------------------------

TEST(CascadeRegistryTest, CasesAreChainRootedAndDiverse) {
  ASSERT_GE(systems::CascadeCases().size(), 3u);
  bool has_crash_or_stall = false;
  bool has_network = false;
  for (const systems::FailureCase& failure_case : systems::CascadeCases()) {
    SCOPED_TRACE(failure_case.id);
    // Cascades are chain-only by construction: at least two ordered
    // ground-truth faults, reachable through FindCase like every other case.
    EXPECT_GE(failure_case.root_chain.size(), 2u);
    EXPECT_EQ(systems::FindCase(failure_case.id), &failure_case);
    has_crash_or_stall |= systems::NeedsCrashStallCandidates(failure_case);
    has_network |= systems::NeedsNetworkCandidates(failure_case);
  }
  // The registry exercises the NetworkModel + crash/stall fault space, not
  // just exception chains.
  EXPECT_TRUE(has_crash_or_stall);
  EXPECT_TRUE(has_network);
}

// --- chain-only separation ------------------------------------------------------

TEST(FaultChainTest, SingleFaultSearchCapsOutOnEveryCascade) {
  for (const systems::FailureCase& failure_case : systems::CascadeCases()) {
    SCOPED_TRACE(failure_case.id);
    systems::BuiltCase built = systems::BuildCase(failure_case);
    ExplorerOptions options = OptionsForCase(failure_case, 1);
    options.max_rounds = kDoomedRounds;
    ExploreResult result = RunSearch(built, options);
    // A later-step site has no dynamic instance in the fault-free baseline,
    // so no single injection can ever satisfy the oracle.
    EXPECT_FALSE(result.reproduced);
  }
}

TEST(FaultChainTest, ChainSearchReproducesEveryCascadeInBoundedRounds) {
  for (const systems::FailureCase& failure_case : systems::CascadeCases()) {
    SCOPED_TRACE(failure_case.id);
    systems::BuiltCase built = systems::BuildCase(failure_case);
    ExplorerOptions options = OptionsForCase(failure_case, 1);
    options.max_rounds = kPhaseRounds;
    ChainResult result = RunChain(built, options);
    ASSERT_TRUE(result.reproduced);
    // An ordered chain, found within the budget the doomed searches got.
    EXPECT_GE(result.chain.steps.size(), 2u);
    EXPECT_LE(result.total_rounds, kDoomedRounds);
    EXPECT_GE(result.phases, 2);
    // Every intermediate step was accepted on evidence: its stitch run
    // flipped observables and/or newly executed sites; the final step is the
    // window injection that satisfied the oracle.
    EXPECT_TRUE(result.chain.steps.back().stitched_observables.empty());
    // The chain replays deterministically.
    EXPECT_TRUE(ChainExplorer::Replay(built.spec, result));
  }
}

// --- determinism ----------------------------------------------------------------

TEST(FaultChainTest, ChainIsIdenticalAtEveryThreadCount) {
  const systems::FailureCase* failure_case = systems::FindCase("casc-retry-1");
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  ExplorerOptions serial = OptionsForCase(*failure_case, 1);
  serial.max_rounds = kPhaseRounds;
  ChainResult baseline = RunChain(built, serial);
  ASSERT_TRUE(baseline.reproduced);
  for (int threads : {2, 8}) {
    SCOPED_TRACE(threads);
    ExplorerOptions options = OptionsForCase(*failure_case, threads);
    options.max_rounds = kPhaseRounds;
    ChainResult result = RunChain(built, options);
    ASSERT_TRUE(result.reproduced);
    EXPECT_EQ(result.chain, baseline.chain);
    EXPECT_EQ(result.total_rounds, baseline.total_rounds);
    EXPECT_EQ(result.phases, baseline.phases);
  }
}

// Each phase's rounds sit in a trace range of their own: phase p's round r
// spans [p*kPhaseStride + r*kRoundStride, +kRoundStride).
TEST(FaultChainTest, PhaseRoundsOccupyDisjointTraceRanges) {
  const systems::FailureCase* failure_case = systems::FindCase("casc-retry-1");
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  obs::Tracer tracer;
  ExplorerOptions options = OptionsForCase(*failure_case, 1);
  options.max_rounds = kPhaseRounds;
  options.tracer = &tracer;
  ChainResult result = RunChain(built, options);
  ASSERT_TRUE(result.reproduced);
  ASSERT_EQ(result.chain.steps.size(), 2u);

  std::vector<std::pair<int64_t, int64_t>> expected;  // (ts, dur) per round span
  for (size_t phase = 0; phase < result.chain.steps.size(); ++phase) {
    for (int round = 1; round <= result.chain.steps[phase].rounds; ++round) {
      expected.emplace_back(static_cast<int64_t>(phase) * obs::kPhaseStride +
                                static_cast<int64_t>(round) * obs::kRoundStride,
                            obs::kRoundStride);
    }
  }
  std::vector<std::pair<int64_t, int64_t>> spans;
  for (const obs::TraceEvent& event : tracer.Events()) {
    if (event.name == "round") {
      spans.emplace_back(event.ts, event.dur);
    }
  }
  EXPECT_EQ(spans, expected);
}

// --- mid-chain kill and resume --------------------------------------------------

// Kills the chain search after `kill_after_rounds` total rounds (checkpoint
// on disk, exactly as a process kill would leave it), resumes a brand-new
// ChainExplorer from the file alone, and asserts the resumed search is
// indistinguishable from the uninterrupted baseline.
void ExpectChainResumeMatchesUninterrupted(const std::string& case_id, int threads,
                                           int kill_after_rounds,
                                           const ChainResult& baseline) {
  SCOPED_TRACE(case_id + " @" + std::to_string(threads) + " threads, killed after round " +
               std::to_string(kill_after_rounds));
  const systems::FailureCase* failure_case = systems::FindCase(case_id);
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  ExplorerOptions options = OptionsForCase(*failure_case, threads);
  options.max_rounds = kPhaseRounds;

  std::string path = TempPath("chain_resume_" + case_id + "_" + std::to_string(threads) +
                              "_" + std::to_string(kill_after_rounds) + ".json");
  ExplorerOptions truncated = options;
  truncated.max_total_rounds = kill_after_rounds;
  ChainResult interrupted = RunChain(built, truncated, 3, CheckpointConfig{path, nullptr});
  ASSERT_FALSE(interrupted.reproduced);

  SearchCheckpoint snap;
  std::string error;
  ASSERT_TRUE(LoadCheckpointFile(path, &snap, &error)) << error;
  systems::BuiltCase rebuilt = systems::BuildCase(*failure_case);
  ChainExplorer resumed_explorer(rebuilt.spec, options);
  ChainResult resumed = resumed_explorer.Explore(3, CheckpointConfig{"", &snap});

  ASSERT_TRUE(resumed.reproduced);
  // Byte-identical chain: same steps, candidates, seeds, per-phase round
  // counts, stitched observables — and the same total accounting.
  EXPECT_EQ(resumed.chain, baseline.chain);
  EXPECT_EQ(resumed.total_rounds, baseline.total_rounds);
  EXPECT_EQ(resumed.phases, baseline.phases);
  std::remove(path.c_str());
}

TEST(FaultChainTest, MidChainKillResumeIsByteIdentical) {
  const systems::FailureCase* failure_case = systems::FindCase("casc-retry-1");
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  ExplorerOptions options = OptionsForCase(*failure_case, 1);
  options.max_rounds = kPhaseRounds;
  ChainResult baseline = RunChain(built, options);
  ASSERT_TRUE(baseline.reproduced);
  ASSERT_GE(baseline.chain.steps.size(), 2u);
  const int phase1_rounds = baseline.chain.steps.front().rounds;
  const int final_rounds = baseline.chain.steps.back().rounds;
  ASSERT_GE(final_rounds, 2) << "need at least two final-phase rounds to kill between";

  // Kill inside phase 1 (before any step is accepted): the checkpoint's
  // chain block carries only the injected-round summaries.
  ExpectChainResumeMatchesUninterrupted("casc-retry-1", 1, phase1_rounds - 1, baseline);
  // Kill at the phase boundary (phase 1 exhausted, stitch not yet run): the
  // resumed search must re-make the identical stitch decision from the
  // persisted round candidates alone.
  ExpectChainResumeMatchesUninterrupted("casc-retry-1", 1, phase1_rounds, baseline);
  // Kill mid-phase-2 (one chain step accepted and pinned): the resumed
  // search re-pins the prefix and continues the interrupted phase.
  ExpectChainResumeMatchesUninterrupted("casc-retry-1", 1,
                                        phase1_rounds + final_rounds - 1, baseline);
  // Same mid-chain kill, parallel engine.
  ExpectChainResumeMatchesUninterrupted("casc-retry-1", 8,
                                        phase1_rounds + final_rounds - 1, baseline);
}

// A chain checkpoint is a pure function of the search: the file the chain
// search saves when max_total_rounds stops it after round N holds the same
// bytes whether it ran uninterrupted or stopped inside phase 1 and resumed,
// re-making the stitch decision in between.
TEST(FaultChainTest, ResumedChainSavesTheUninterruptedCheckpointBytes) {
  const systems::FailureCase* failure_case = systems::FindCase("casc-retry-1");
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  ExplorerOptions options = OptionsForCase(*failure_case, 1);
  options.max_rounds = kPhaseRounds;
  ChainResult baseline = RunChain(built, options);
  ASSERT_TRUE(baseline.reproduced);
  ASSERT_EQ(baseline.chain.steps.size(), 2u);
  const int phase1_rounds = baseline.chain.steps.front().rounds;
  const int cap_round = phase1_rounds + baseline.chain.steps.back().rounds - 1;
  ASSERT_GT(cap_round, phase1_rounds) << "the cap must land in phase 2";

  // Stops the chain search after `rounds` total rounds, checkpointing to
  // `path`, optionally resuming from `resume`; every search attaches a
  // metrics registry, so the file carries it.
  auto run_until = [&](int rounds, const std::string& path, const SearchCheckpoint* resume) {
    obs::MetricsRegistry metrics;
    ExplorerOptions truncated = options;
    truncated.max_total_rounds = rounds;
    truncated.metrics = &metrics;
    systems::BuiltCase fresh = systems::BuildCase(*failure_case);
    return RunChain(fresh, truncated, 3, CheckpointConfig{path, resume});
  };
  const std::string uninterrupted_path = TempPath("pure_chain_uninterrupted.json");
  ASSERT_FALSE(run_until(cap_round, uninterrupted_path, nullptr).reproduced);
  const std::string stopped_path = TempPath("pure_chain_stopped.json");
  ASSERT_FALSE(run_until(phase1_rounds - 1, stopped_path, nullptr).reproduced);
  SearchCheckpoint snap;
  std::string error;
  ASSERT_TRUE(LoadCheckpointFile(stopped_path, &snap, &error)) << error;
  ASSERT_EQ(snap.chain.phase, 0);
  const std::string resumed_path = TempPath("pure_chain_resumed.json");
  ASSERT_FALSE(run_until(cap_round, resumed_path, &snap).reproduced);

  std::string uninterrupted;
  std::string resumed;
  ASSERT_TRUE(ReadFileToString(uninterrupted_path, &uninterrupted));
  ASSERT_TRUE(ReadFileToString(resumed_path, &resumed));
  EXPECT_NE(uninterrupted.find("\"phase\": 1,"), std::string::npos) << uninterrupted;
  EXPECT_NE(uninterrupted.find("\"metrics\""), std::string::npos) << uninterrupted;
  EXPECT_EQ(resumed, uninterrupted);
  for (const std::string& path : {uninterrupted_path, stopped_path, resumed_path}) {
    std::remove(path.c_str());
  }
}

// --- fault signatures -----------------------------------------------------------

class SignatureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failure_case_ = systems::FindCase("casc-retry-1");
    ASSERT_NE(failure_case_, nullptr);
    built_ = systems::BuildCase(*failure_case_);
    // BuiltCase::spec points into the BuiltCase's own members; re-anchor it
    // after the move-assignment above.
    built_.spec.program = built_.program.get();
    built_.spec.cluster = &built_.cluster;
    ExplorerOptions options = OptionsForCase(*failure_case_, 1);
    options.max_rounds = kPhaseRounds;
    result_ = RunChain(built_, options);
    ASSERT_TRUE(result_.reproduced);
    signature_ = BuildSignature(built_.spec, failure_case_->id, result_);
  }

  const systems::FailureCase* failure_case_ = nullptr;
  systems::BuiltCase built_;
  ChainResult result_;
  FaultSignature signature_;
};

TEST_F(SignatureTest, UnminimizedReplayIsByteIdenticalToSearchFailingRun) {
  // The search's own failing run, re-executed directly: chain prefix pinned,
  // final step as the window injection at its recorded seed.
  std::vector<interp::InjectionCandidate> pinned;
  for (size_t i = 0; i + 1 < result_.chain.steps.size(); ++i) {
    pinned.push_back(result_.chain.steps[i].candidate);
  }
  const FaultChainStep& last = result_.chain.steps.back();
  interp::FaultRuntime runtime(built_.spec.program);
  runtime.SetPinned(pinned);
  runtime.SetWindow({last.candidate});
  interp::Simulator simulator(built_.spec.program, built_.spec.cluster, last.seed, &runtime);
  interp::RunResult search_run = simulator.Run();
  ASSERT_TRUE(built_.spec.oracle(*built_.spec.program, search_run));

  // The unminimized signature retains the full workload, so its replay is
  // the byte-identical run — not merely an equivalent one.
  ASSERT_FALSE(signature_.minimized);
  SignatureReplay replay = ReplaySignature(built_.spec, signature_);
  ASSERT_TRUE(replay.error.empty()) << replay.error;
  EXPECT_TRUE(replay.fired);
  EXPECT_EQ(interp::FormatLogFile(replay.run.log), interp::FormatLogFile(search_run.log));
  EXPECT_EQ(replay.run.outcome, search_run.outcome);
}

TEST_F(SignatureTest, MinimizedSignatureStillFiresDeterministically) {
  int replays = 0;
  FaultSignature minimized = MinimizeSignature(built_.spec, signature_, &replays);
  EXPECT_TRUE(minimized.minimized);
  EXPECT_GT(replays, 0);
  // Minimization never grows the artifact, and never drops the window step.
  EXPECT_LE(minimized.steps.size(), signature_.steps.size());
  EXPECT_GE(minimized.steps.size(), 1u);
  EXPECT_LE(minimized.retained_tasks.size(), signature_.retained_tasks.size());
  EXPECT_LE(minimized.ir_methods.size(), signature_.ir_methods.size());
  EXPECT_EQ(minimized.steps.back(), signature_.steps.back());

  SignatureReplay first = ReplaySignature(built_.spec, minimized);
  ASSERT_TRUE(first.error.empty()) << first.error;
  EXPECT_TRUE(first.fired);
  // Zero-search replay is deterministic: same bytes every time.
  SignatureReplay second = ReplaySignature(built_.spec, minimized);
  EXPECT_EQ(interp::FormatLogFile(first.run.log), interp::FormatLogFile(second.run.log));
}

TEST_F(SignatureTest, SerializationRoundTripsAndRejectsTampering) {
  std::string text = SerializeSignature(signature_);
  FaultSignature parsed;
  std::string error;
  ASSERT_TRUE(ParseSignature(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed, signature_);
  // Canonical: re-serializing the parse is byte-identical.
  EXPECT_EQ(SerializeSignature(parsed), text);

  // A tampered artifact (here: a different occurrence) must be rejected by
  // the content hash, not replayed as a subtly different scenario.
  std::string tampered = text;
  size_t pos = tampered.find("\"occurrence\"");
  ASSERT_NE(pos, std::string::npos);
  pos = tampered.find(':', pos);
  tampered.insert(pos + 2, "4");
  FaultSignature out;
  error.clear();
  EXPECT_FALSE(ParseSignature(tampered, &out, &error));
  EXPECT_NE(error.find("hash"), std::string::npos) << error;
}

// u64 fields are decoded strictly: a malformed value is an error naming the
// field, not its digit prefix or 0.
TEST_F(SignatureTest, ParseRejectsMalformedU64Fields) {
  const std::string text = SerializeSignature(signature_);
  for (const std::string field : {"program_fingerprint", "seed", "content_hash"}) {
    for (const std::string bad : {"12abc", "-1", "", "18446744073709551616"}) {
      SCOPED_TRACE(field + "=\"" + bad + "\"");
      std::string tampered = text;
      const std::string key = "\"" + field + "\": \"";
      size_t begin = tampered.find(key);
      ASSERT_NE(begin, std::string::npos);
      begin += key.size();
      tampered.replace(begin, tampered.find('"', begin) - begin, bad);
      FaultSignature out;
      std::string error;
      EXPECT_FALSE(ParseSignature(tampered, &out, &error));
      EXPECT_NE(error.find("\"" + field + "\""), std::string::npos) << error;
    }
  }
}

// Integer fields are read strictly too: a string, a double or an
// out-of-range value is an error naming the field, not a fallback that the
// content hash then reports as tampering (or a version mismatch).
TEST_F(SignatureTest, ParseRejectsMalformedIntegerFields) {
  const std::string text = SerializeSignature(signature_);
  struct Tamper {
    std::string field;
    std::string bad;
    std::string named;
  };
  for (const Tamper& tamper : std::vector<Tamper>{
           {"version", "\"1\"", "\"version\" is not an integer"},
           {"version", "1.0", "\"version\" is not an integer"},
           {"occurrence", "\"3\"", "\"occurrence\" is not an integer"},
           {"occurrence", "1.5", "\"occurrence\" is not an integer"},
           {"occurrence", "true", "\"occurrence\" is not an integer"},
           {"occurrence", "0", "\"occurrence\" is 0, outside [1, "},  // 1-based
           {"occurrence", "-3", "\"occurrence\" is -3, outside [1, "},
       }) {
    SCOPED_TRACE(tamper.field + "=" + tamper.bad);
    std::string tampered = text;
    const std::string key = "\"" + tamper.field + "\": ";
    size_t begin = tampered.find(key);
    ASSERT_NE(begin, std::string::npos);
    begin += key.size();
    tampered.replace(begin, tampered.find_first_of(",\n", begin) - begin, tamper.bad);
    FaultSignature out;
    std::string error;
    EXPECT_FALSE(ParseSignature(tampered, &out, &error));
    EXPECT_NE(error.find(tamper.named), std::string::npos) << error;
  }
}

TEST_F(SignatureTest, SaveLoadFileRoundTrip) {
  std::string path = TempPath("sig_roundtrip.json");
  ASSERT_TRUE(SaveSignatureFile(path, signature_));
  FaultSignature loaded;
  std::string error;
  ASSERT_TRUE(LoadSignatureFile(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded, signature_);
  std::remove(path.c_str());
}

TEST_F(SignatureTest, ReplayRefusesMismatchedProgram) {
  const systems::FailureCase* other = systems::FindCase("casc-herd-1");
  ASSERT_NE(other, nullptr);
  systems::BuiltCase other_built = systems::BuildCase(*other, /*verify=*/false);
  SignatureReplay replay = ReplaySignature(other_built.spec, signature_);
  EXPECT_FALSE(replay.fired);
  EXPECT_NE(replay.error.find("fingerprint"), std::string::npos) << replay.error;
}

}  // namespace
}  // namespace anduril::explorer
