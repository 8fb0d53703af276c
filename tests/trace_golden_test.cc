// Golden-trace regression test: a fixed-seed zk-2247 search emits the
// byte-identical logical-timestamp trace and metrics dump at 1, 2, and 8
// worker threads, and across a checkpoint kill + resume — and that exact
// byte stream is checked in under tests/golden/.
//
// To refresh the goldens after an intentional trace/metric change:
//   scripts/update_trace_golden.sh
// (runs this binary with ANDURIL_UPDATE_GOLDENS=1, which rewrites the files
// in the source tree instead of comparing).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/explorer/checkpoint.h"
#include "src/explorer/explorer.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/systems/common.h"
#include "tests/test_util.h"

namespace anduril::explorer {
namespace {

constexpr const char* kCaseId = "zk-2247";

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void CompareOrUpdateGolden(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (UpdateGoldens()) {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << actual;
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    return;
  }
  const std::string expected = ReadFileOrEmpty(path);
  ASSERT_FALSE(expected.empty())
      << "golden file " << path << " missing; run scripts/update_trace_golden.sh";
  EXPECT_EQ(actual, expected)
      << "trace/metrics drifted from " << path
      << "; if intentional, run scripts/update_trace_golden.sh";
}

// One searched case with the observability sinks attached. Everything in the
// trace is a pure function of the seed.
struct TracedSearch {
  std::string trace_jsonl;
  std::string metrics_json;
  ExploreResult result;
};

TracedSearch RunTraced(int threads, int max_rounds = 0) {
  const systems::FailureCase* failure_case = systems::FindCase(kCaseId);
  EXPECT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  ExplorerOptions options = OptionsForCase(*failure_case, threads);
  options.tracer = &tracer;
  options.metrics = &metrics;
  if (max_rounds > 0) {
    options.max_rounds = max_rounds;
  }
  TracedSearch traced;
  traced.result = RunSearch(built, options);
  traced.trace_jsonl = tracer.DumpJsonl();  // logical timestamps only
  traced.metrics_json = metrics.DumpJson();
  return traced;
}

TEST(TraceGoldenTest, TraceAndMetricsMatchGoldenAtOneThread) {
  TracedSearch traced = RunTraced(/*threads=*/1);
  ASSERT_TRUE(traced.result.reproduced);
  CompareOrUpdateGolden("zk2247_trace.jsonl", traced.trace_jsonl);
  CompareOrUpdateGolden("zk2247_metrics.json", traced.metrics_json);
}

TEST(TraceGoldenTest, TraceAndMetricsAreByteIdenticalAcrossThreadCounts) {
  TracedSearch serial = RunTraced(/*threads=*/1);
  ASSERT_TRUE(serial.result.reproduced);
  for (int threads : {2, 8}) {
    TracedSearch parallel = RunTraced(threads);
    EXPECT_EQ(parallel.trace_jsonl, serial.trace_jsonl) << "threads=" << threads;
    EXPECT_EQ(parallel.metrics_json, serial.metrics_json) << "threads=" << threads;
  }
}

TEST(TraceGoldenTest, ResultCarriesFinalMetricsSnapshot) {
  TracedSearch traced = RunTraced(/*threads=*/1);
  ASSERT_FALSE(traced.result.metrics.empty());
  obs::MetricsRegistry reloaded;
  reloaded.Restore(traced.result.metrics);
  EXPECT_EQ(reloaded.DumpJson(), traced.metrics_json);
}

// Round-level trace lines: everything except the version header and the
// per-session "explore" envelope span (a resumed session's envelope
// legitimately covers only its own rounds).
std::vector<std::string> RoundLines(const std::string& jsonl) {
  std::vector<std::string> lines;
  std::istringstream in(jsonl);
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (header) {
      header = false;
      continue;
    }
    if (line.find("\"name\":\"explore\"") != std::string::npos) {
      continue;
    }
    lines.push_back(line);
  }
  return lines;
}

TEST(TraceGoldenTest, TraceAndMetricsAreByteIdenticalAcrossCheckpointResume) {
  TracedSearch baseline = RunTraced(/*threads=*/1);
  ASSERT_TRUE(baseline.result.reproduced);
  ASSERT_GT(baseline.result.rounds, 1);

  const systems::FailureCase* failure_case = systems::FindCase(kCaseId);
  ASSERT_NE(failure_case, nullptr);
  const std::string path = TempPath("trace_golden_resume.json");

  // Interrupted session: stop one round short of success, checkpointing.
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  obs::Tracer interrupted_tracer;
  obs::MetricsRegistry interrupted_metrics;
  ExplorerOptions options = OptionsForCase(*failure_case, 1);
  options.tracer = &interrupted_tracer;
  options.metrics = &interrupted_metrics;
  options.max_rounds = baseline.result.rounds - 1;
  ExploreResult interrupted = RunSearch(built, options, CheckpointConfig{path, nullptr});
  ASSERT_FALSE(interrupted.reproduced);

  // Resumed session: fresh explorer, tracer, and registry, rebuilt from the
  // checkpoint file alone.
  SearchCheckpoint snap;
  std::string error;
  ASSERT_TRUE(LoadCheckpointFile(path, &snap, &error)) << error;
  ASSERT_TRUE(snap.has_metrics);
  systems::BuiltCase rebuilt = systems::BuildCase(*failure_case);
  obs::Tracer resumed_tracer;
  obs::MetricsRegistry resumed_metrics;
  ExplorerOptions resume_options = OptionsForCase(*failure_case, 1);
  resume_options.tracer = &resumed_tracer;
  resume_options.metrics = &resumed_metrics;
  ExploreResult resumed = RunSearch(rebuilt, resume_options, CheckpointConfig{"", &snap});
  ASSERT_TRUE(resumed.reproduced);

  // The two sessions' round-level trace lines, concatenated, are exactly the
  // uninterrupted search's — same bytes, same order (the resumed rounds all
  // start at later logical timestamps).
  std::vector<std::string> stitched = RoundLines(interrupted_tracer.DumpJsonl());
  std::vector<std::string> resumed_lines = RoundLines(resumed_tracer.DumpJsonl());
  stitched.insert(stitched.end(), resumed_lines.begin(), resumed_lines.end());
  EXPECT_EQ(stitched, RoundLines(baseline.trace_jsonl));

  // The restored registry ends byte-identical to the uninterrupted one.
  EXPECT_EQ(resumed_metrics.DumpJson(), baseline.metrics_json);

  std::remove(path.c_str());
}

}  // namespace
}  // namespace anduril::explorer
