// Reproduction-service tests: queue manifest integrity, scheduling policy,
// slice execution, and the service-level robustness contract — a queue that
// is killed (daemon crash, worker crash, SIGKILL, cooperative drain) and
// resumed finishes with byte-identical scripts and metrics to an
// uninterrupted run, at any worker count.
//
// Crash-emulation tests exec the real anduril_serve binary (the daemon
// _exit()s mid-queue, which an in-process call could not survive); its path
// arrives via the ANDURIL_SERVE_BIN compile definition. Everything else runs
// the service in-process through RunService.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/explorer/checkpoint.h"
#include "src/service/context_cache.h"
#include "src/service/daemon.h"
#include "src/service/manifest.h"
#include "src/service/runner.h"
#include "src/service/scheduler.h"
#include "src/service/work.h"
#include "src/systems/common.h"
#include "src/util/file.h"
#include "tests/test_util.h"

namespace anduril::service {
namespace {

namespace fs = std::filesystem;

// Fresh (empty) state directory under the test temp dir.
std::string FreshStateDir(const std::string& name) {
  const std::string dir = explorer::TempPath(name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

QueueCase MakeCase(const std::string& id, int budget, bool chain = false) {
  QueueCase entry;
  entry.id = id;
  entry.chain = chain;
  entry.round_budget = budget;
  return entry;
}

// The invariant fields a finished queue must agree on regardless of how it
// was sliced, sharded, or interrupted. slices_done and crashes are *not*
// invariant (a crashed slice is re-run), so they are compared only where the
// test controls them.
using Outcome = std::tuple<std::string, CaseState, int, std::string, uint64_t>;

std::vector<Outcome> Outcomes(const QueueManifest& manifest) {
  std::vector<Outcome> out;
  for (const QueueCase& entry : manifest.cases) {
    out.emplace_back(entry.id, entry.state, entry.rounds_done, entry.script,
                     entry.script_seed);
  }
  return out;
}

std::string ReadFileOrDie(const std::string& path) {
  std::string text;
  EXPECT_TRUE(ReadFileToString(path, &text)) << path;
  return text;
}

ServeOptions BaseOptions(const std::string& state_dir, std::vector<QueueCase> seed) {
  ServeOptions options;
  options.state_dir = state_dir;
  options.seed_cases = std::move(seed);
  options.workers = 0;
  options.verbose = false;
  return options;
}

// ---------------------------------------------------------------------------
// Manifest

QueueManifest SampleManifest() {
  QueueManifest manifest;
  manifest.slice_rounds = 50;
  manifest.cases.push_back(MakeCase("zk-2247", 2000));
  QueueCase done = MakeCase("ca-6415", 2000);
  done.state = CaseState::kReproduced;
  done.rounds_done = 17;
  done.slices_done = 1;
  done.script = "round 17: InjectionError at occurrence 2 (seed 99)\n";
  done.script_seed = 99;
  manifest.cases.push_back(done);
  QueueCase starved = MakeCase("hd-4233", 10);
  starved.state = CaseState::kStarved;
  starved.rounds_done = 10;
  starved.slices_done = 2;
  manifest.cases.push_back(starved);
  QueueCase chained = MakeCase("casc-retry-1", 500, /*chain=*/true);
  chained.crashes = 1;
  chained.rounds_done = 3;
  manifest.cases.push_back(chained);
  return manifest;
}

TEST(ManifestTest, SerializeParseRoundTrip) {
  const QueueManifest manifest = SampleManifest();
  QueueManifest parsed;
  std::string error;
  ASSERT_TRUE(ParseManifest(SerializeManifest(manifest), &parsed, &error)) << error;
  EXPECT_EQ(manifest, parsed);
}

TEST(ManifestTest, FileRoundTripAndMissingFile) {
  const std::string path = explorer::TempPath("service_manifest_roundtrip.json");
  const QueueManifest manifest = SampleManifest();
  ASSERT_TRUE(SaveManifestFile(path, manifest));
  QueueManifest loaded;
  std::string error;
  ASSERT_TRUE(LoadManifestFile(path, &loaded, &error)) << error;
  EXPECT_EQ(manifest, loaded);

  EXPECT_FALSE(LoadManifestFile(explorer::TempPath("no_such_manifest.json"), &loaded,
                                &error));
  EXPECT_FALSE(error.empty());
}

TEST(ManifestTest, RejectsFieldTampering) {
  std::string text = SerializeManifest(SampleManifest());
  // Same-length edit of a scheduling-relevant field: the JSON still parses,
  // but the integrity hash must catch the change.
  const size_t at = text.find("hd-4233");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 7, "hd-9999");
  QueueManifest parsed;
  std::string error;
  EXPECT_FALSE(ParseManifest(text, &parsed, &error));
  EXPECT_NE(error.find("integrity"), std::string::npos) << error;
}

TEST(ManifestTest, RejectsIntegrityCorruption) {
  std::string text = SerializeManifest(SampleManifest());
  const size_t at = text.find("\"integrity\"");
  ASSERT_NE(at, std::string::npos);
  // Flip the first digit of the stored hash.
  const size_t digit = text.find_first_of("0123456789", at + 11);
  ASSERT_NE(digit, std::string::npos);
  text[digit] = text[digit] == '9' ? '1' : '9';
  QueueManifest parsed;
  std::string error;
  EXPECT_FALSE(ParseManifest(text, &parsed, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ManifestTest, RejectsGarbageAndWrongVersion) {
  QueueManifest parsed;
  std::string error;
  EXPECT_FALSE(ParseManifest("not json at all", &parsed, &error));
  EXPECT_FALSE(ParseManifest("{\"anduril_queue\": 999, \"cases\": []}", &parsed, &error));
}

TEST(ManifestTest, RejectsSliceWidthBelowOne) {
  for (const int width : {0, -4}) {
    QueueManifest manifest = SampleManifest();
    manifest.slice_rounds = width;
    QueueManifest parsed;
    std::string error;
    EXPECT_FALSE(ParseManifest(SerializeManifest(manifest), &parsed, &error)) << width;
    EXPECT_NE(error.find("slice_rounds"), std::string::npos) << error;
  }
}

// A count that is negative, not an integer, or past the int range is refused
// by name before the integrity check could be fooled by a wrapped value.
TEST(ManifestTest, RejectsMalformedCounts) {
  const std::string text = SerializeManifest(SampleManifest());
  for (const auto& [from, to] : {std::pair{"\"rounds_done\": 17", "\"rounds_done\": -17"},
                                 std::pair{"\"crashes\": 1", "\"crashes\": \"1\""},
                                 std::pair{"\"slices_done\": 2", "\"slices_done\": 4294967298"},
                                 std::pair{"\"round_budget\": 10", "\"round_budget\": 1e1"}}) {
    std::string tampered = text;
    const size_t at = tampered.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    tampered.replace(at, std::string(from).size(), to);
    QueueManifest parsed;
    std::string error;
    EXPECT_FALSE(ParseManifest(tampered, &parsed, &error)) << to;
    const std::string key = std::string(from).substr(0, std::string(from).find(':'));
    EXPECT_NE(error.find("manifest: " + key), std::string::npos) << error;
  }
}

TEST(ManifestTest, CountsAndTerminality) {
  QueueManifest manifest = SampleManifest();
  EXPECT_FALSE(manifest.AllTerminal());
  EXPECT_EQ(manifest.CountState(CaseState::kPending), 2);
  EXPECT_EQ(manifest.CountState(CaseState::kReproduced), 1);
  EXPECT_EQ(manifest.CountState(CaseState::kStarved), 1);
  for (QueueCase& entry : manifest.cases) {
    if (entry.state == CaseState::kPending) {
      entry.state = CaseState::kFailed;
    }
  }
  EXPECT_TRUE(manifest.AllTerminal());
}

// ---------------------------------------------------------------------------
// Scheduler policy

TEST(SchedulerTest, PicksLeastRoundsWithLowestIndexTie) {
  QueueManifest manifest;
  manifest.cases.push_back(MakeCase("a", 100));
  manifest.cases.push_back(MakeCase("b", 100));
  manifest.cases.push_back(MakeCase("c", 100));
  manifest.cases[0].rounds_done = 5;
  manifest.cases[1].rounds_done = 2;
  manifest.cases[2].rounds_done = 2;
  std::vector<bool> busy(3, false);
  // b and c tie on rounds; the lower index wins.
  EXPECT_EQ(PickNextCase(manifest, busy), 1);
  busy[1] = true;
  EXPECT_EQ(PickNextCase(manifest, busy), 2);
  busy[2] = true;
  EXPECT_EQ(PickNextCase(manifest, busy), 0);
  busy[0] = true;
  EXPECT_EQ(PickNextCase(manifest, busy), -1);
}

TEST(SchedulerTest, WarmCaseWinsATie) {
  QueueManifest manifest;
  for (const char* id : {"a", "b", "c", "d"}) {
    manifest.cases.push_back(MakeCase(id, 100));
  }
  manifest.cases[0].rounds_done = 8;
  manifest.cases[1].rounds_done = 4;
  manifest.cases[2].rounds_done = 4;
  manifest.cases[3].rounds_done = 4;
  const std::vector<bool> busy(4, false);
  // b, c and d tie on rounds; the worker already ran c and d, so the lower
  // of those wins over b.
  EXPECT_EQ(PickNextCase(manifest, busy, {false, false, true, true}), 2);
  EXPECT_EQ(PickNextCase(manifest, busy, {true, false, false, true}), 3);
  // A warm case that is busy elsewhere does not count.
  EXPECT_EQ(PickNextCase(manifest, {false, false, true, false}, {false, false, true, false}),
            1);
}

TEST(SchedulerTest, WarmCaseNeverBeatsACaseBehind) {
  QueueManifest manifest;
  manifest.cases.push_back(MakeCase("warm-ahead", 100));
  manifest.cases.push_back(MakeCase("cold-behind", 100));
  manifest.cases[0].rounds_done = 5;
  manifest.cases[1].rounds_done = 4;
  EXPECT_EQ(PickNextCase(manifest, std::vector<bool>(2, false), {true, false}), 1);
}

TEST(SchedulerTest, EmptyWarmKeepsFairSharePick) {
  QueueManifest manifest;
  for (const char* id : {"a", "b", "c"}) {
    manifest.cases.push_back(MakeCase(id, 100));
  }
  manifest.cases[0].rounds_done = 3;
  manifest.cases[1].rounds_done = 1;
  manifest.cases[2].rounds_done = 1;
  const std::vector<bool> busy(3, false);
  EXPECT_EQ(PickNextCase(manifest, busy, {}), 1);
  EXPECT_EQ(PickNextCase(manifest, busy, std::vector<bool>(3, false)), 1);
}

TEST(SchedulerTest, SkipsTerminalCases) {
  QueueManifest manifest;
  manifest.cases.push_back(MakeCase("a", 100));
  manifest.cases.push_back(MakeCase("b", 100));
  manifest.cases[0].state = CaseState::kReproduced;
  EXPECT_EQ(PickNextCase(manifest, std::vector<bool>(2, false)), 1);
  manifest.cases[1].state = CaseState::kFailed;
  EXPECT_EQ(PickNextCase(manifest, std::vector<bool>(2, false)), -1);
}

TEST(SchedulerTest, StarveOutDemotesOnlyExhaustedBudgets) {
  QueueManifest manifest;
  manifest.cases.push_back(MakeCase("under", 100));
  manifest.cases.push_back(MakeCase("at-limit", 100));
  manifest.cases.push_back(MakeCase("unbounded", 0));
  manifest.cases[0].rounds_done = 99;
  manifest.cases[1].rounds_done = 100;
  manifest.cases[2].rounds_done = 100000;
  const std::vector<int> demoted = ApplyStarveOut(&manifest);
  EXPECT_EQ(demoted, std::vector<int>{1});
  EXPECT_EQ(manifest.cases[0].state, CaseState::kPending);
  EXPECT_EQ(manifest.cases[1].state, CaseState::kStarved);
  // budget 0 means "no starve-out line".
  EXPECT_EQ(manifest.cases[2].state, CaseState::kPending);
  // Idempotent: the already-starved case is not demoted again.
  EXPECT_TRUE(ApplyStarveOut(&manifest).empty());
}

// ---------------------------------------------------------------------------
// Work-unit handoff

TEST(WorkTest, UnitAndResultRoundTrip) {
  WorkUnit unit;
  unit.case_id = "zk-net-1";
  unit.chain = true;
  unit.slice_rounds = 25;
  unit.round_budget = 2000;
  unit.checkpoint_path = "/tmp/ckpt.json";
  unit.metrics_path = "/tmp/metrics.json";
  unit.daemon_pid = 12345;
  unit.emulate_crash_after_rounds = 2;
  WorkUnit unit_parsed;
  std::string error;
  ASSERT_TRUE(ParseWorkUnit(SerializeWorkUnit(unit), &unit_parsed, &error)) << error;
  EXPECT_EQ(unit, unit_parsed);

  WorkResult result;
  result.case_id = "zk-net-1";
  result.status = SliceStatus::kReproduced;
  result.rounds_done = 31;
  result.script = "round 31: StallFault at occurrence 1 (seed 7)\n";
  result.script_seed = 7;
  result.daemon_pid = 12345;
  WorkResult result_parsed;
  ASSERT_TRUE(ParseWorkResult(SerializeWorkResult(result), &result_parsed, &error))
      << error;
  EXPECT_EQ(result, result_parsed);

  EXPECT_FALSE(ParseWorkResult("{\"status\": \"bogus\"}", &result_parsed, &error));
}

// Integer fields are refused by name when they are not integers or out of
// range, instead of being cast into a different unit or result.
TEST(WorkTest, RejectsMalformedIntegers) {
  for (const char* field :
       {R"("slice_rounds": -1)", R"("round_budget": "2000")", R"("daemon_pid": 4294967298)",
        R"("emulate_crash_after_rounds": 1.5)"}) {
    const std::string text = std::string(R"({"case_id": "zk-2247", )") + field + "}";
    const std::string key = std::string(field).substr(0, std::string(field).find(':'));
    WorkUnit unit;
    std::string error;
    EXPECT_FALSE(ParseWorkUnit(text, &unit, &error)) << text;
    EXPECT_NE(error.find("work unit: " + key), std::string::npos) << error;
  }
  for (const char* field : {R"("rounds_done": -3)", R"("daemon_pid": -1)"}) {
    const std::string text =
        std::string(R"({"case_id": "zk-2247", "status": "slice_done", )") + field + "}";
    WorkResult result;
    std::string error;
    EXPECT_FALSE(ParseWorkResult(text, &result, &error)) << text;
    EXPECT_NE(error.find("work result: "), std::string::npos) << error;
  }
}

// One end pair of the kind the daemon shares with each worker.
struct Channel {
  int ends[2] = {-1, -1};
  Channel() { EXPECT_EQ(socketpair(AF_UNIX, SOCK_SEQPACKET, 0, ends), 0); }
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;
  ~Channel() {
    close(ends[0]);
    close(ends[1]);
  }
};

// Also when the child exits with a packet of ours unread, which the kernel
// reports as one ECONNRESET ahead of the child's packet.
TEST(ChannelTest, PacketSentJustBeforeExitArrivesWholeThenHangUp) {
  WorkResult result;
  result.case_id = "casc-retry-1";
  result.status = SliceStatus::kReproduced;
  result.rounds_done = 40;
  result.script = std::string(900, 's');
  result.script_seed = 7;
  const std::string packet = SerializeWorkResult(result);
  for (const bool unread : {false, true}) {
    SCOPED_TRACE(unread ? "child left a packet unread" : "nothing unread");
    Channel channel;
    ASSERT_TRUE(!unread || SendMessage(channel.ends[0], "{}"));
    const pid_t pid = fork();
    if (pid == 0) {
      close(channel.ends[0]);
      _exit(SendMessage(channel.ends[1], packet) ? 0 : 1);
    }
    ASSERT_GT(pid, 0);
    close(channel.ends[1]);
    channel.ends[1] = -1;
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
    std::string received;
    ASSERT_EQ(ReceiveMessage(channel.ends[0], &received), Received::kMessage);
    EXPECT_EQ(received, packet);
    EXPECT_EQ(ReceiveMessage(channel.ends[0], &received), Received::kHangUp);
  }
}

TEST(ChannelTest, EmptyChannelHasNothingPending) {
  Channel channel;
  std::string received;
  EXPECT_EQ(ReceiveMessage(channel.ends[0], &received), Received::kEmpty);
  ASSERT_TRUE(SendMessage(channel.ends[1], "{}"));
  ASSERT_EQ(ReceiveMessage(channel.ends[0], &received), Received::kMessage);
  EXPECT_EQ(received, "{}");
  EXPECT_EQ(ReceiveMessage(channel.ends[0], &received), Received::kEmpty);
}

TEST(ChannelTest, OverlongPacketCountsAsHangUp) {
  Channel channel;
  const std::string longest(kMaxMessageBytes, 'x');
  std::string received;
  ASSERT_TRUE(SendMessage(channel.ends[1], longest));
  ASSERT_EQ(ReceiveMessage(channel.ends[0], &received), Received::kMessage);
  EXPECT_EQ(received, longest);

  const std::string overlong = longest + "x";
  EXPECT_FALSE(SendMessage(channel.ends[1], overlong));
  ASSERT_EQ(send(channel.ends[1], overlong.data(), overlong.size(), 0),
            static_cast<ssize_t>(overlong.size()));
  EXPECT_EQ(ReceiveMessage(channel.ends[0], &received), Received::kHangUp);
}

// ---------------------------------------------------------------------------
// Context cache

TEST(ContextCacheTest, KeyedByCaseIdNotFingerprint) {
  // zk-2247 and zk-4203 share a program *shape* (same fault sites and
  // exception types), so their fingerprints collide — the cache must still
  // keep separate entries, or one case would be searched against the other's
  // workload and oracle.
  const systems::FailureCase* first = systems::FindCase("zk-2247");
  const systems::FailureCase* second = systems::FindCase("zk-4203");
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);

  ContextCache cache;
  ContextCache::Entry* entry_first = cache.Get(*first);
  ContextCache::Entry* entry_second = cache.Get(*second);
  ASSERT_NE(entry_first, nullptr);
  ASSERT_NE(entry_second, nullptr);
  EXPECT_NE(entry_first, entry_second);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(explorer::ProgramFingerprint(*entry_first->built.program),
            explorer::ProgramFingerprint(*entry_second->built.program));
  EXPECT_NE(entry_first->built.spec.failure_log_text,
            entry_second->built.spec.failure_log_text);

  // Repeat lookups reuse the entry (stable pointer).
  EXPECT_EQ(cache.Get(*first), entry_first);
  EXPECT_EQ(cache.size(), 2u);
}

// ---------------------------------------------------------------------------
// Slice runner

TEST(RunSliceTest, SlicedSearchMatchesOneShot) {
  const systems::FailureCase* failure_case = systems::FindCase("zk-2247");
  ASSERT_NE(failure_case, nullptr);

  auto run_with_slices = [&](const std::string& tag, int slice_rounds) {
    ContextCache cache;
    WorkUnit unit;
    unit.case_id = failure_case->id;
    unit.slice_rounds = slice_rounds;
    unit.round_budget = 2000;
    unit.checkpoint_path = explorer::TempPath("service_slice_" + tag + ".ckpt");
    unit.metrics_path = explorer::TempPath("service_slice_" + tag + ".metrics");
    fs::remove(unit.checkpoint_path);
    WorkResult result;
    int slices = 0;
    do {
      result = RunSlice(&cache, unit, nullptr);
      ++slices;
      if (slices >= 1000) {
        ADD_FAILURE() << "search failed to terminate within 1000 slices";
        break;
      }
    } while (result.status == SliceStatus::kSliceDone);
    EXPECT_EQ(result.status, SliceStatus::kReproduced);
    return std::make_tuple(result, slices, ReadFileOrDie(unit.metrics_path));
  };

  const auto [one_shot, one_shot_slices, one_shot_metrics] =
      run_with_slices("oneshot", 2000);
  // zk-2247 reproduces in 5 rounds, so 2-round slices force several
  // checkpoint/resume cycles.
  const auto [sliced, sliced_slices, sliced_metrics] = run_with_slices("fine", 2);
  EXPECT_EQ(one_shot_slices, 1);
  EXPECT_GT(sliced_slices, 1);

  // Byte-identical resume: same script, seed, round count, and final metrics
  // no matter how the rounds were cut into slices.
  EXPECT_EQ(one_shot.script, sliced.script);
  EXPECT_EQ(one_shot.script_seed, sliced.script_seed);
  EXPECT_EQ(one_shot.rounds_done, sliced.rounds_done);
  EXPECT_FALSE(one_shot.script.empty());
  EXPECT_EQ(one_shot_metrics, sliced_metrics);
}

TEST(RunSliceTest, UnknownCaseReportsError) {
  ContextCache cache;
  WorkUnit unit;
  unit.case_id = "no-such-case";
  unit.slice_rounds = 10;
  unit.checkpoint_path = explorer::TempPath("service_slice_unknown.ckpt");
  unit.metrics_path = explorer::TempPath("service_slice_unknown.metrics");
  const WorkResult result = RunSlice(&cache, unit, nullptr);
  EXPECT_EQ(result.status, SliceStatus::kError);
  EXPECT_FALSE(result.error.empty());
}

// A checkpoint another case wrote (another program) fails the slice once,
// as a setup error, instead of aborting the worker on every retry.
TEST(RunSliceTest, MismatchedCheckpointReportsError) {
  ContextCache cache;
  WorkUnit writer;
  writer.case_id = "hd-4233";
  writer.slice_rounds = 1;
  writer.round_budget = 2000;
  writer.checkpoint_path = explorer::TempPath("service_slice_mismatch.ckpt");
  writer.metrics_path = explorer::TempPath("service_slice_mismatch.metrics");
  fs::remove(writer.checkpoint_path);
  ASSERT_EQ(RunSlice(&cache, writer, nullptr).status, SliceStatus::kSliceDone);

  for (bool chain : {false, true}) {
    WorkUnit reader = writer;
    reader.case_id = "zk-2247";
    reader.chain = chain;
    const WorkResult result = RunSlice(&cache, reader, nullptr);
    EXPECT_EQ(result.status, SliceStatus::kError) << "chain=" << chain;
    EXPECT_NE(result.error.find("different program"), std::string::npos) << result.error;
  }
  fs::remove(writer.checkpoint_path);
  fs::remove(writer.metrics_path);
}

// A slice width near INT_MAX means "no slice cap": resuming a started case
// must not overflow done + width into a negative cap.
TEST(RunSliceTest, HugeSliceWidthRunsToCompletion) {
  ContextCache cache;
  WorkUnit unit;
  unit.case_id = "zk-2247";
  unit.slice_rounds = 2;
  unit.round_budget = 2000;
  unit.checkpoint_path = explorer::TempPath("service_slice_huge.ckpt");
  unit.metrics_path = explorer::TempPath("service_slice_huge.metrics");
  fs::remove(unit.checkpoint_path);
  ASSERT_EQ(RunSlice(&cache, unit, nullptr).status, SliceStatus::kSliceDone);
  for (const int budget : {2000, 0}) {
    WorkUnit wide = unit;
    wide.slice_rounds = INT_MAX;
    wide.round_budget = budget;
    const WorkResult result = RunSlice(&cache, wide, nullptr);
    EXPECT_EQ(result.status, SliceStatus::kReproduced) << "budget " << budget << ": "
                                                       << result.error;
    EXPECT_EQ(result.rounds_done, 5);
  }
  fs::remove(unit.checkpoint_path);
  fs::remove(unit.metrics_path);
}

// A checkpoint the slice cannot write fails the slice, not its worker.
TEST(RunSliceTest, UnwritableCheckpointReportsError) {
  ContextCache cache;
  for (bool chain : {false, true}) {
    WorkUnit unit;
    unit.case_id = chain ? "casc-retry-1" : "hd-4233";
    unit.chain = chain;
    unit.slice_rounds = 4;
    unit.round_budget = 2000;
    unit.checkpoint_path = explorer::TempPath("no_such_dir/service_slice.ckpt");
    const WorkResult result = RunSlice(&cache, unit, nullptr);
    EXPECT_EQ(result.status, SliceStatus::kError) << "chain=" << chain;
    EXPECT_NE(result.error.find("cannot write checkpoint file"), std::string::npos)
        << result.error;
  }
}

// ---------------------------------------------------------------------------
// Service end-to-end: in-process (workers=0) and sharded

std::vector<QueueCase> MixedSeed() {
  // Two plain cases from different systems plus a cascade (chain-mode) case.
  return {MakeCase("zk-2247", 2000), MakeCase("ca-6415", 2000),
          MakeCase("casc-retry-1", 2000, /*chain=*/true)};
}

TEST(ServiceTest, SerialQueueReproducesAndJournals) {
  const std::string dir = FreshStateDir("service_serial");
  const ServeReport report = RunService(BaseOptions(dir, MixedSeed()));
  ASSERT_FALSE(report.error) << report.error_text;
  EXPECT_FALSE(report.interrupted);
  EXPECT_TRUE(report.manifest.AllTerminal());
  EXPECT_EQ(report.manifest.CountState(CaseState::kReproduced), 3);
  for (const QueueCase& entry : report.manifest.cases) {
    EXPECT_FALSE(entry.script.empty()) << entry.id;
    EXPECT_GT(entry.rounds_done, 0) << entry.id;
  }

  // The journaled manifest matches the report, and the merged metrics file
  // exists — the queue's durable state is complete.
  QueueManifest journaled;
  std::string error;
  ASSERT_TRUE(LoadManifestFile(ManifestPath(dir), &journaled, &error)) << error;
  EXPECT_EQ(journaled, report.manifest);
  EXPECT_TRUE(fs::exists(MergedMetricsPath(dir)));
}

TEST(ServiceTest, SliceWidthDoesNotChangeOutcomes) {
  const std::string coarse_dir = FreshStateDir("service_width_coarse");
  ServeOptions coarse = BaseOptions(coarse_dir, MixedSeed());
  coarse.slice_rounds = 5000;  // every case in one slice
  const ServeReport coarse_report = RunService(coarse);
  ASSERT_FALSE(coarse_report.error) << coarse_report.error_text;

  const std::string fine_dir = FreshStateDir("service_width_fine");
  ServeOptions fine = BaseOptions(fine_dir, MixedSeed());
  fine.slice_rounds = 10;  // many checkpoint/resume cycles per case
  const ServeReport fine_report = RunService(fine);
  ASSERT_FALSE(fine_report.error) << fine_report.error_text;

  EXPECT_EQ(Outcomes(coarse_report.manifest), Outcomes(fine_report.manifest));
  EXPECT_EQ(ReadFileOrDie(MergedMetricsPath(coarse_dir)),
            ReadFileOrDie(MergedMetricsPath(fine_dir)));
}

// The daemon and its workers keep nothing in the state dir but the queue
// journal, the cases' checkpoints and metrics, and the merged metrics.
void ExpectOnlyQueueFiles(const std::string& dir) {
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    const bool known = name == "queue.json" || name == "merged_metrics.json" ||
                       name.rfind("ckpt-", 0) == 0 || name.rfind("metrics-", 0) == 0;
    EXPECT_TRUE(known && entry.is_regular_file()) << "unexpected " << name << " in " << dir;
  }
}

TEST(ServiceTest, ShardedMatchesSerialAtOneAndEightWorkers) {
  std::vector<QueueCase> seed = MixedSeed();
  seed.push_back(MakeCase("hd-4233", 2000));
  seed.push_back(MakeCase("hb-3315", 2000));
  seed.push_back(MakeCase("ka-12508", 2000));

  const std::string serial_dir = FreshStateDir("service_shard_serial");
  ServeOptions serial = BaseOptions(serial_dir, seed);
  serial.slice_rounds = 25;
  const ServeReport serial_report = RunService(serial);
  ASSERT_FALSE(serial_report.error) << serial_report.error_text;

  for (const int workers : {1, 8}) {
    const std::string dir =
        FreshStateDir("service_shard_w" + std::to_string(workers));
    ServeOptions sharded = BaseOptions(dir, seed);
    sharded.slice_rounds = 25;
    sharded.workers = workers;
    sharded.serve_binary = ANDURIL_SERVE_BIN;
    const ServeReport report = RunService(sharded);
    ASSERT_FALSE(report.error) << report.error_text;
    EXPECT_TRUE(report.manifest.AllTerminal());
    EXPECT_EQ(Outcomes(serial_report.manifest), Outcomes(report.manifest))
        << workers << " workers";
    EXPECT_EQ(ReadFileOrDie(MergedMetricsPath(serial_dir)),
              ReadFileOrDie(MergedMetricsPath(dir)))
        << workers << " workers";
    ExpectOnlyQueueFiles(dir);
  }
}

TEST(ServiceTest, RejectsSliceWidthBelowOneBeforeJournaling) {
  const std::string dir = FreshStateDir("service_zero_width");
  ServeOptions options = BaseOptions(dir, MixedSeed());
  options.slice_rounds = 0;
  const ServeReport report = RunService(options);
  EXPECT_TRUE(report.error);
  EXPECT_NE(report.error_text.find("slice_rounds"), std::string::npos) << report.error_text;
  EXPECT_FALSE(fs::exists(ManifestPath(dir)));
}

// A busy worker's checkpoint may stay silent for the checkpoint interval plus
// a round, so a nonzero heartbeat timeout at or below the interval is refused.
TEST(ServiceTest, RejectsHeartbeatWithinCheckpointIntervalBeforeJournaling) {
  const std::string dir = FreshStateDir("service_short_heartbeat");
  ServeOptions options = BaseOptions(dir, MixedSeed());
  for (const int timeout_ms : {1, 100}) {
    options.heartbeat_timeout_ms = timeout_ms;
    const ServeReport report = RunService(options);
    EXPECT_TRUE(report.error) << timeout_ms;
    EXPECT_NE(report.error_text.find("heartbeat_timeout_ms"), std::string::npos)
        << report.error_text;
    EXPECT_FALSE(fs::exists(ManifestPath(dir))) << timeout_ms;
  }
}

TEST(ServiceTest, StarveOutDoesNotWedgeQueue) {
  // hd-4233 needs far more than 10 rounds; it must starve out while the
  // solvable case still reproduces — one stubborn case cannot block the
  // queue.
  const std::string dir = FreshStateDir("service_starve");
  ServeOptions options =
      BaseOptions(dir, {MakeCase("zk-2247", 2000), MakeCase("hd-4233", 10)});
  options.slice_rounds = 5;
  const ServeReport report = RunService(options);
  ASSERT_FALSE(report.error) << report.error_text;
  EXPECT_TRUE(report.manifest.AllTerminal());
  EXPECT_EQ(report.manifest.cases[0].state, CaseState::kReproduced);
  EXPECT_EQ(report.manifest.cases[1].state, CaseState::kStarved);
  EXPECT_EQ(report.manifest.cases[1].rounds_done, 10);
  EXPECT_TRUE(report.manifest.cases[1].script.empty());
}

// ---------------------------------------------------------------------------
// Robustness: drain, worker crash, daemon crash, SIGKILL

TEST(ServiceTest, DrainThenResumeMatchesUninterrupted) {
  const std::string baseline_dir = FreshStateDir("service_drain_baseline");
  const ServeReport baseline = RunService(BaseOptions(baseline_dir, MixedSeed()));
  ASSERT_FALSE(baseline.error) << baseline.error_text;

  // A drain flag that is already set stops the daemon before it dispatches
  // anything — the deterministic extreme of SIGTERM-at-any-instant.
  const std::string dir = FreshStateDir("service_drain");
  std::atomic<bool> cancel{true};
  ServeOptions options = BaseOptions(dir, MixedSeed());
  options.cancel = &cancel;
  const ServeReport drained = RunService(options);
  EXPECT_TRUE(drained.interrupted);
  EXPECT_FALSE(drained.manifest.AllTerminal());

  // The drained queue was journaled; a fresh run resumes and finishes with
  // the baseline's exact outcomes.
  cancel.store(false);
  const ServeReport resumed = RunService(options);
  ASSERT_FALSE(resumed.error) << resumed.error_text;
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(Outcomes(baseline.manifest), Outcomes(resumed.manifest));
  EXPECT_EQ(ReadFileOrDie(MergedMetricsPath(baseline_dir)),
            ReadFileOrDie(MergedMetricsPath(dir)));
}

TEST(ServiceTest, WorkerKilledMidRoundConvergesToBaseline) {
  std::vector<QueueCase> seed = MixedSeed();

  const std::string baseline_dir = FreshStateDir("service_wcrash_baseline");
  ServeOptions baseline_options = BaseOptions(baseline_dir, seed);
  baseline_options.slice_rounds = 10;
  baseline_options.workers = 2;
  baseline_options.serve_binary = ANDURIL_SERVE_BIN;
  const ServeReport baseline = RunService(baseline_options);
  ASSERT_FALSE(baseline.error) << baseline.error_text;

  // The third dispatched slice dies two rounds in, without reporting —
  // indistinguishable from a SIGKILL between rounds. The daemon must requeue
  // the case, respawn the slot, and still converge to the baseline.
  const std::string dir = FreshStateDir("service_wcrash");
  ServeOptions options = BaseOptions(dir, seed);
  options.slice_rounds = 10;
  options.workers = 2;
  options.serve_binary = ANDURIL_SERVE_BIN;
  options.worker_crash_slice = 3;
  options.worker_crash_rounds = 2;
  const ServeReport report = RunService(options);
  ASSERT_FALSE(report.error) << report.error_text;
  EXPECT_GE(report.worker_respawns, 1);
  EXPECT_TRUE(report.manifest.AllTerminal());
  EXPECT_EQ(Outcomes(baseline.manifest), Outcomes(report.manifest));
  EXPECT_EQ(ReadFileOrDie(MergedMetricsPath(baseline_dir)),
            ReadFileOrDie(MergedMetricsPath(dir)));
}

// What the command line of a worker of the daemon on `state_dir` contains.
std::string WorkerNeedle(const std::string& state_dir) { return "worker " + state_dir + " "; }

// Pids of live processes whose command line contains `needle` (zombies
// have an empty command line and never match).
std::vector<pid_t> ProcessesNaming(const std::string& needle) {
  std::vector<pid_t> pids;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator("/proc", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    std::string cmdline;
    if (!ReadFileToString(entry.path().string() + "/cmdline", &cmdline)) {
      continue;
    }
    std::replace(cmdline.begin(), cmdline.end(), '\0', ' ');
    if (cmdline.find(needle) != std::string::npos) {
      pids.push_back(static_cast<pid_t>(std::stol(name)));
    }
  }
  return pids;
}

// A worker stopped (SIGSTOP) mid-slice makes no progress on its case's
// checkpoint: the daemon must SIGKILL it on the heartbeat deadline, respawn
// the slot, and still converge to the baseline.
TEST(ServiceTest, StoppedWorkerIsKilledOnHeartbeatAndConverges) {
  const std::vector<QueueCase> seed = {MakeCase("zk-crash-1", 2000),
                                       MakeCase("hd-stall-1", 2000),
                                       MakeCase("zk-2247", 2000),
                                       MakeCase("casc-retry-1", 2000, /*chain=*/true)};
  const std::string baseline_dir = FreshStateDir("service_heartbeat_baseline");
  ServeOptions baseline_options = BaseOptions(baseline_dir, seed);
  baseline_options.slice_rounds = 4;
  const ServeReport baseline = RunService(baseline_options);
  ASSERT_FALSE(baseline.error) << baseline.error_text;

  const std::string dir = FreshStateDir("service_heartbeat");
  ServeOptions options = BaseOptions(dir, seed);
  options.slice_rounds = 4;
  options.workers = 2;
  options.heartbeat_timeout_ms = 300;
  options.serve_binary = ANDURIL_SERVE_BIN;
  // Stops the first worker as soon as its process runs. At start the daemon
  // dispatches a slice to every idle worker, so the stopped one holds a
  // slice, and the daemon counts its slot busy until a result arrives.
  std::atomic<pid_t> stopped{0};
  std::atomic<bool> finished{false};
  std::thread stopper([&] {
    while (!finished) {
      const std::vector<pid_t> pids = ProcessesNaming(WorkerNeedle(dir));
      if (!pids.empty()) {
        kill(pids[0], SIGSTOP);
        stopped = pids[0];
        return;
      }
      usleep(100);
    }
  });
  const ServeReport report = RunService(options);
  finished = true;
  stopper.join();
  ASSERT_FALSE(report.error) << report.error_text;
  ASSERT_GT(stopped.load(), 0) << "worker 0 was never seen running a slice";
  // The stopped worker was SIGKILLed and reaped, not left behind.
  EXPECT_NE(kill(stopped.load(), 0), 0);
  EXPECT_GE(report.worker_respawns, 1);
  EXPECT_TRUE(report.manifest.AllTerminal());
  EXPECT_EQ(Outcomes(baseline.manifest), Outcomes(report.manifest));
  EXPECT_EQ(ReadFileOrDie(MergedMetricsPath(baseline_dir)),
            ReadFileOrDie(MergedMetricsPath(dir)));
}

// What WaitServeCli returns for a process still running at its deadline.
constexpr int kServeTimedOut = -2000;

// Forks and execs `anduril_serve <args...>`; returns the child's pid (or a
// negative value when fork fails).
pid_t StartServeCli(const std::vector<std::string>& args) {
  std::vector<std::string> argv_storage = {ANDURIL_SERVE_BIN};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  argv.reserve(argv_storage.size() + 1);
  for (std::string& arg : argv_storage) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid == 0) {
    execv(ANDURIL_SERVE_BIN, argv.data());
    _exit(127);
  }
  return pid;
}

// Reaps `pid` and returns its exit code (negative signal number if it died to
// a signal). When `timeout_ms` is positive a process still running after it
// is SIGKILLed and the call returns kServeTimedOut.
int WaitServeCli(pid_t pid, int timeout_ms = 0) {
  int status = 0;
  if (timeout_ms > 0) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (waitpid(pid, &status, WNOHANG) != pid) {
      if (std::chrono::steady_clock::now() >= deadline) {
        kill(pid, SIGKILL);
        waitpid(pid, &status, 0);
        return kServeTimedOut;
      }
      usleep(2000);
    }
  } else {
    waitpid(pid, &status, 0);
  }
  if (WIFEXITED(status)) {
    return WEXITSTATUS(status);
  }
  if (WIFSIGNALED(status)) {
    return -WTERMSIG(status);
  }
  return -1001;
}

// Spawns `anduril_serve run <dir> <flags...>` and returns its exit code as
// WaitServeCli does. When `kill_after_ms` is positive the child gets SIGKILL
// after that delay.
int RunServeCli(const std::vector<std::string>& args, int kill_after_ms = 0,
                int timeout_ms = 0) {
  const pid_t pid = StartServeCli(args);
  if (pid < 0) {
    return -1000;
  }
  if (kill_after_ms > 0) {
    usleep(static_cast<useconds_t>(kill_after_ms) * 1000);
    kill(pid, SIGKILL);
  }
  return WaitServeCli(pid, timeout_ms);
}

constexpr const char* kCliCases = "--cases=zk-2247,ca-6415,casc-retry-1,hd-4233";

std::vector<std::string> CliArgs(const std::string& dir,
                                 const std::vector<std::string>& extra = {}) {
  std::vector<std::string> args = {"run",  dir,  kCliCases, "--workers=2",
                                   "--slice-rounds=10", "--quiet"};
  args.insert(args.end(), extra.begin(), extra.end());
  return args;
}

TEST(ServiceCrashTest, DaemonKilledBetweenCommitsResumesByteIdentically) {
  const std::string baseline_dir = FreshStateDir("service_dcrash_baseline");
  ASSERT_EQ(RunServeCli(CliArgs(baseline_dir)), 0);
  QueueManifest baseline_manifest;
  std::string error;
  ASSERT_TRUE(LoadManifestFile(ManifestPath(baseline_dir), &baseline_manifest, &error))
      << error;

  // The default shape, and 4 workers on 4-round slices, where one commit
  // can carry several results.
  const std::vector<std::vector<std::string>> shapes = {{},
                                                        {"--workers=4", "--slice-rounds=4"}};
  for (const std::vector<std::string>& shape : shapes) {
    SCOPED_TRACE(shape.empty() ? "default shape" : shape[0] + " " + shape[1]);
    // The daemon _exit()s right after the commit that journals its 4th
    // slice result — a kill landing between two queue commits, with workers
    // orphaned.
    const std::string dir = FreshStateDir("service_dcrash");
    std::vector<std::string> crash = shape;
    crash.push_back("--crash-after-slices=4");
    ASSERT_EQ(RunServeCli(CliArgs(dir, crash)), 42);

    // The half-finished queue must be loadable and visibly partial.
    QueueManifest partial;
    ASSERT_TRUE(LoadManifestFile(ManifestPath(dir), &partial, &error)) << error;
    EXPECT_FALSE(partial.AllTerminal());

    // Rerunning the same command resumes and finishes with baseline outcomes.
    ASSERT_EQ(RunServeCli(CliArgs(dir, shape)), 0);
    QueueManifest resumed_manifest;
    ASSERT_TRUE(LoadManifestFile(ManifestPath(dir), &resumed_manifest, &error)) << error;
    EXPECT_EQ(Outcomes(baseline_manifest), Outcomes(resumed_manifest));
    EXPECT_EQ(ReadFileOrDie(MergedMetricsPath(baseline_dir)),
              ReadFileOrDie(MergedMetricsPath(dir)));
  }
}

TEST(ServiceCrashTest, DaemonSigkilledResumesByteIdentically) {
  const std::string baseline_dir = FreshStateDir("service_sigkill_baseline");
  ASSERT_EQ(RunServeCli(CliArgs(baseline_dir)), 0);

  // A real SIGKILL at an arbitrary instant. The daemon may or may not have
  // finished by then; either way the follow-up run must land on the baseline
  // outcomes — that is the whole point of the journal + checkpoint design.
  const std::string dir = FreshStateDir("service_sigkill");
  const int first = RunServeCli(CliArgs(dir), /*kill_after_ms=*/30);
  EXPECT_TRUE(first == -SIGKILL || first == 0) << "exit " << first;

  ASSERT_EQ(RunServeCli(CliArgs(dir)), 0);
  QueueManifest baseline_manifest;
  QueueManifest resumed_manifest;
  std::string error;
  ASSERT_TRUE(
      LoadManifestFile(ManifestPath(baseline_dir), &baseline_manifest, &error))
      << error;
  ASSERT_TRUE(LoadManifestFile(ManifestPath(dir), &resumed_manifest, &error)) << error;
  EXPECT_EQ(Outcomes(baseline_manifest), Outcomes(resumed_manifest));
  EXPECT_EQ(ReadFileOrDie(MergedMetricsPath(baseline_dir)),
            ReadFileOrDie(MergedMetricsPath(dir)));
}

// Rerunning a queue that is already done has nothing to dispatch: the
// daemon must journal and exit 0 at once, every time, with the merged
// metrics unchanged. (A daemon that spawned workers only to shut them down
// could lose a worker's SIGTERM between fork and exec and wait on it
// forever.)
TEST(ServiceCrashTest, RerunOfCompletedQueueExitsPromptly) {
  const std::string dir = FreshStateDir("service_rerun_done");
  ASSERT_EQ(RunServeCli(CliArgs(dir)), 0);
  const std::string merged = ReadFileOrDie(MergedMetricsPath(dir));
  for (int attempt = 0; attempt < 20; ++attempt) {
    ASSERT_EQ(RunServeCli(CliArgs(dir), /*kill_after_ms=*/0, /*timeout_ms=*/5000), 0)
        << "rerun " << attempt;
  }
  EXPECT_EQ(ReadFileOrDie(MergedMetricsPath(dir)), merged);
}

// A case's metrics file that does not parse fails the merge: the rerun exits
// 1, names the file, and leaves merged_metrics.json as the first run wrote
// it instead of merging the other cases without it. So does a merged file
// that cannot be written.
TEST(ServiceCrashTest, UnmergeableMetricsFailTheRunAndKeepTheMergedFile) {
  const std::string dir = FreshStateDir("service_bad_metrics");
  const std::vector<std::string> args = {"run", dir, "--workers=1", "--cases=zk-2247,hd-4233",
                                         "--quiet"};
  ASSERT_EQ(RunServeCli(args), 0);
  const std::string merged = ReadFileOrDie(MergedMetricsPath(dir));
  const std::string metrics_path = CaseMetricsPath(dir, "zk-2247");
  std::string metrics = ReadFileOrDie(metrics_path);
  const std::string counter = "\"explore.rounds\": ";
  const size_t at = metrics.find(counter);
  ASSERT_NE(at, std::string::npos) << metrics;
  const size_t digits = at + counter.size();
  const size_t end = metrics.find_first_not_of("0123456789", digits);
  ASSERT_GT(end, digits);
  metrics.insert(end, "\"");
  metrics.insert(digits, "\"");
  ASSERT_TRUE(WriteFileAtomic(metrics_path, metrics));

  EXPECT_EQ(RunServeCli(args, /*kill_after_ms=*/0, /*timeout_ms=*/30000), 1);
  EXPECT_EQ(ReadFileOrDie(MergedMetricsPath(dir)), merged);
  ServeReport report = RunService(BaseOptions(dir, {}));
  EXPECT_TRUE(report.error);
  EXPECT_NE(report.error_text.find(metrics_path), std::string::npos) << report.error_text;
  EXPECT_EQ(ReadFileOrDie(MergedMetricsPath(dir)), merged);

  // Intact metrics, but a directory where the merged file goes.
  const std::string clean_dir = FreshStateDir("service_unwritable_merge");
  fs::create_directories(MergedMetricsPath(clean_dir));
  report = RunService(BaseOptions(clean_dir, {MakeCase("zk-2247", 2000)}));
  EXPECT_TRUE(report.error);
  EXPECT_NE(report.error_text.find(MergedMetricsPath(clean_dir)), std::string::npos)
      << report.error_text;
  EXPECT_FALSE(fs::exists(MergedMetricsPath(clean_dir) + ".tmp"));
}

// A real SIGTERM while slices are in flight drains the queue (exit 3)
// promptly, and rerunning the command finishes it byte-identically.
TEST(ServiceCrashTest, SigtermDrainsPromptlyAndResumesByteIdentically) {
  const std::vector<std::string> flags = {"--cases=zk-crash-1,hd-stall-1,zk-2247,casc-retry-1",
                                          "--workers=2", "--slice-rounds=4", "--quiet"};
  auto args = [&flags](const std::string& dir) {
    std::vector<std::string> args = {"run", dir};
    args.insert(args.end(), flags.begin(), flags.end());
    return args;
  };
  const std::string baseline_dir = FreshStateDir("service_sigterm_baseline");
  ASSERT_EQ(RunServeCli(args(baseline_dir)), 0);

  const std::string dir = FreshStateDir("service_sigterm");
  const pid_t pid = StartServeCli(args(dir));
  ASSERT_GT(pid, 0);
  // The first checkpoint means a slice is running.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!fs::exists(CaseCheckpointPath(dir, "zk-crash-1")) &&
         std::chrono::steady_clock::now() < deadline) {
    usleep(200);
  }
  kill(pid, SIGTERM);
  ASSERT_EQ(WaitServeCli(pid, /*timeout_ms=*/5000), 3);
  QueueManifest drained;
  std::string error;
  ASSERT_TRUE(LoadManifestFile(ManifestPath(dir), &drained, &error)) << error;
  EXPECT_FALSE(drained.AllTerminal());

  ASSERT_EQ(RunServeCli(args(dir)), 0);
  QueueManifest baseline_manifest;
  QueueManifest resumed_manifest;
  ASSERT_TRUE(LoadManifestFile(ManifestPath(baseline_dir), &baseline_manifest, &error))
      << error;
  ASSERT_TRUE(LoadManifestFile(ManifestPath(dir), &resumed_manifest, &error)) << error;
  EXPECT_EQ(Outcomes(baseline_manifest), Outcomes(resumed_manifest));
  EXPECT_EQ(ReadFileOrDie(MergedMetricsPath(baseline_dir)),
            ReadFileOrDie(MergedMetricsPath(dir)));
}

// Workers do not outlive a daemon that died: none is left 2 s later.
TEST(ServiceCrashTest, DaemonCrashLeavesNoWorkerBehind) {
  const std::string dir = FreshStateDir("service_orphans");
  ASSERT_EQ(RunServeCli(CliArgs(dir, {"--crash-after-slices=4"})), 42);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::vector<pid_t> left = ProcessesNaming(WorkerNeedle(dir));
  while (!left.empty() && std::chrono::steady_clock::now() < deadline) {
    usleep(10000);
    left = ProcessesNaming(WorkerNeedle(dir));
  }
  EXPECT_TRUE(left.empty()) << left.size() << " workers outlived their daemon";
}

// A worker started by hand, without a socket at descriptor 3, exits 2 at once.
TEST(ServiceCrashTest, WorkerWithoutChannelExitsTwo) {
  const std::string dir = FreshStateDir("service_no_channel");
  for (const bool closed : {true, false}) {
    const std::string parent = std::to_string(getpid());
    const pid_t pid = fork();
    if (pid == 0) {
      if (closed) {
        close(3);
      } else {
        const int null_fd = open("/dev/null", O_RDONLY);
        if (null_fd != 3) {
          dup2(null_fd, 3);
        }
      }
      execl(ANDURIL_SERVE_BIN, ANDURIL_SERVE_BIN, "worker", dir.c_str(), parent.c_str(),
            static_cast<char*>(nullptr));
      _exit(127);
    }
    ASSERT_GT(pid, 0);
    EXPECT_EQ(WaitServeCli(pid, /*timeout_ms=*/5000), 2)
        << (closed ? "descriptor 3 closed" : "descriptor 3 not a socket");
  }
}

// Bad numbers, unknown flags, extra arguments and a heartbeat timeout within
// the checkpoint interval are usage errors (exit 2) caught before anything is
// journaled.
TEST(ServiceCliTest, BadArgumentsExitTwoBeforeJournaling) {
  for (const char* bad : {"--slice-rounds=0", "--slice-rounds=abc", "--slice-rounds=4x",
                          "--slice-rounds=", "--slice-round=4", "--workers=-1",
                          "--workers=99999999999", "--poll-ms=2", "extra",
                          "--cases=zk-2247:1e3", "--heartbeat-timeout-ms=100"}) {
    const std::string dir = FreshStateDir("service_bad_cli");
    const std::vector<std::string> args = {"run", dir, "--cases=zk-2247,hd-4233",
                                           "--workers=0", "--quiet", bad};
    EXPECT_EQ(RunServeCli(args, /*kill_after_ms=*/0, /*timeout_ms=*/5000), 2) << bad;
    EXPECT_FALSE(fs::exists(ManifestPath(dir))) << bad;
  }
}

}  // namespace
}  // namespace anduril::service
