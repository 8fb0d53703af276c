// Pinned interpreter semantics. tests/golden/interp_runs.txt records one line
// per run over every registered scenario (the paper cases, crash/stall,
// network, cascade and storm registries), six runs per case:
//
//   fault-free.0/1/2  the exploration workload at three seeds;
//   window.occ1/occ2  the multi-candidate window a search arms (the context's
//                     first 10 candidates) at occurrence 1 and at 2;
//   ground-truth      the failure workload with the ground truth injected the
//                     way BuildCase generates the failure log (a cascade's
//                     earlier chain steps pinned, its last step windowed).
//
// Each line carries readable fields (seed, outcome, interpreter steps, end
// time, log lines, trace events) and an FNV-1a digest over everything a run
// observably produces: outcome and budget flags, the formatted log, the
// fault-instance trace, thread end states, final node variables, crashed
// nodes, network accounting, partition transitions and the fault runtime's
// accounting. decision_nanos is the one field left out: it is host
// wall-clock, sampled, so only its sign is checked elsewhere. Every run of
// the grid must also end well inside the step and simulated-time limits.
//
// The lines were first written by running every point on both the flattened
// interpreter and the statement-tree walker it replaced, refusing to write
// unless the two agreed, so the file is the reference semantics. After an
// intentional change to them, refresh it with scripts/update_trace_golden.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/explorer/context.h"
#include "src/interp/log_entry.h"
#include "src/interp/simulator.h"
#include "src/ir/flatten.h"
#include "src/obs/metrics.h"
#include "src/systems/common.h"
#include "src/util/file.h"
#include "tests/test_util.h"

namespace anduril {
namespace {

using Window = std::vector<interp::InjectionCandidate>;

constexpr const char* kGoldenFile = "interp_runs.txt";

constexpr const char* kGoldenHeader =
    "# Interpreter run digests, written by tests/interp_equivalence_test.cc.\n"
    "# <case> <run> seed= outcome= steps= end_ms= log= trace= digest=\n"
    "# digest: FNV-1a over outcome, budget flags, formatted log, fault trace,\n"
    "# thread end states, node vars, crashed nodes, network stats, partition\n"
    "# transitions and fault accounting (decision_nanos excluded).\n"
    "# Refresh after an intentional semantics change: scripts/update_trace_golden.sh\n";

// One point of the per-case grid.
struct RunPoint {
  std::string label;
  const interp::ClusterSpec* cluster = nullptr;
  uint64_t seed = 0;
  Window window;
  Window pinned;
};

struct Run {
  interp::RunResult result;
  int64_t steps = 0;
};

Run Execute(const systems::BuiltCase& built, const RunPoint& point,
            const ir::FlatProgram* flat = nullptr) {
  interp::RunScratch scratch;
  interp::FaultRuntime runtime(built.program.get());
  runtime.SetWindow(point.window);
  runtime.SetPinned(point.pinned);
  interp::Simulator simulator(built.program.get(), point.cluster, point.seed, &runtime, flat,
                              &scratch);
  obs::MetricsRegistry metrics;
  simulator.set_metrics(&metrics);
  Run run;
  run.result = simulator.Run();
  run.steps = metrics.histogram("sim.steps").sum;
  return run;
}

std::string RunLine(const std::string& case_id, const RunPoint& point, const Run& run) {
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, interp::DigestRun(run.result));
  std::ostringstream line;
  line << case_id << ' ' << point.label << " seed=" << point.seed
       << " outcome=" << interp::RunOutcomeName(run.result.outcome) << " steps=" << run.steps
       << " end_ms=" << run.result.end_time_ms << " log=" << run.result.log.size()
       << " trace=" << run.result.trace.size() << " digest=" << digest;
  return line.str();
}

// The six-run grid of one case.
std::vector<RunPoint> GridFor(const systems::FailureCase& failure_case,
                              const systems::BuiltCase& built) {
  std::vector<RunPoint> points;
  for (int i = 0; i < 3; ++i) {
    points.push_back(RunPoint{"fault-free." + std::to_string(i), &built.cluster,
                              failure_case.explore_seed + 17 * static_cast<uint64_t>(i),
                              {},
                              {}});
  }
  explorer::ExplorerContext context(built.spec, systems::OptionsForCase(failure_case));
  for (int64_t occurrence : {1, 2}) {
    Window window;
    for (size_t c = 0; c < std::min<size_t>(10, context.candidates().size()); ++c) {
      window.push_back(explorer::Arm(context.candidates()[c], occurrence));
    }
    EXPECT_FALSE(window.empty()) << failure_case.id;
    points.push_back(RunPoint{"window.occ" + std::to_string(occurrence), &built.cluster,
                              failure_case.explore_seed, std::move(window), {}});
  }
  Window pinned;
  if (!built.ground_truth_chain.empty()) {
    pinned.assign(built.ground_truth_chain.begin(), built.ground_truth_chain.end() - 1);
  }
  points.push_back(RunPoint{"ground-truth", &built.failure_cluster, failure_case.failure_seed,
                            {built.ground_truth},
                            std::move(pinned)});
  return points;
}

// The deterministic limits bound every run, with room to spare: no run of the
// grid (its crashed, hung and partition-stuck runs included) hits step_limit
// or time_limit_ms, and none takes 5% of step_limit. The step limit bounds the
// event loop as well as the ops: every event is pushed either by one of the
// cluster's initial tasks or by an op, and an op pushes at most two events
// (a duplicated send) or one per waiter it wakes (a signal or a completed
// future).
void ExpectWellInsideLimits(const std::string& case_id, const RunPoint& point, const Run& run) {
  const std::string where = case_id + " " + point.label;
  EXPECT_FALSE(run.result.hit_step_limit) << where;
  EXPECT_FALSE(run.result.hit_time_limit) << where;
  EXPECT_LT(run.steps * 20, point.cluster->step_limit)
      << where << " took " << run.steps << " of " << point.cluster->step_limit << " steps";
}

std::vector<std::string> CurrentRunLines() {
  std::vector<std::string> lines;
  for (const std::vector<systems::FailureCase>* registry :
       {&systems::AllCases(), &systems::CrashStallCases(), &systems::NetworkCases(),
        &systems::CascadeCases(), &systems::StormCases()}) {
    for (const systems::FailureCase& failure_case : *registry) {
      systems::BuiltCase built = systems::BuildCase(failure_case, /*verify=*/false);
      for (const RunPoint& point : GridFor(failure_case, built)) {
        const Run run = Execute(built, point);
        ExpectWellInsideLimits(failure_case.id, point, run);
        lines.push_back(RunLine(failure_case.id, point, run));
      }
    }
  }
  return lines;
}

std::vector<std::string> Tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  for (std::string token; in >> token;) {
    tokens.push_back(token);
  }
  return tokens;
}

// The first field two run lines disagree on: "case", "run", or the key of a
// key=value field.
std::string FirstDifferingField(const std::string& expected, const std::string& actual) {
  const std::vector<std::string> want = Tokens(expected);
  const std::vector<std::string> got = Tokens(actual);
  for (size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const std::string a = i < want.size() ? want[i] : "";
    const std::string b = i < got.size() ? got[i] : "";
    if (a != b) {
      if (i < 2) {
        return i == 0 ? "case" : "run";
      }
      const std::string& token = a.empty() ? b : a;
      return token.substr(0, token.find('='));
    }
  }
  return "";
}

TEST(InterpEquivalence, RunsMatchCommittedDigests) {
  const std::vector<std::string> actual = CurrentRunLines();
  EXPECT_EQ(actual.size(), 33u * 6u) << "the grid is 33 cases x 6 runs";
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
  std::string text;
  ASSERT_TRUE(ReadFileToString(GoldenPath(kGoldenFile), &text))
      << GoldenPath(kGoldenFile) << " missing; run scripts/update_trace_golden.sh";
  const std::vector<std::string> expected = GoldenDataLines(text);

  int differing = 0;
  std::string first;
  for (size_t i = 0; i < std::max(expected.size(), actual.size()); ++i) {
    const std::string want = i < expected.size() ? expected[i] : "(no run)";
    const std::string got = i < actual.size() ? actual[i] : "(no run)";
    if (want == got) {
      continue;
    }
    if (differing++ == 0) {
      const std::vector<std::string> tokens = Tokens(i < expected.size() ? want : got);
      first = tokens.size() >= 2 ? tokens[0] + " " + tokens[1] : want;
      first += ": field '" + FirstDifferingField(want, got) + "' differs\n  expected: " +
               want + "\n  actual:   " + got;
    }
  }
  EXPECT_EQ(differing, 0) << differing << " of " << expected.size()
                          << " runs differ from " << GoldenPath(kGoldenFile)
                          << "; first: " << first
                          << "\nif the change is intentional, run scripts/update_trace_golden.sh";
}

// The shared, context-cached FlatProgram must behave exactly like a
// per-simulator self-lowered one.
TEST(InterpEquivalence, SharedFlatProgramMatchesSelfLowered) {
  const systems::FailureCase* failure_case = systems::FindCase("zk-2247");
  ASSERT_NE(failure_case, nullptr);
  systems::BuiltCase built = systems::BuildCase(*failure_case, /*verify=*/false);
  ir::FlatProgram flat(*built.program);
  for (const RunPoint& point : GridFor(*failure_case, built)) {
    EXPECT_EQ(RunLine(failure_case->id, point, Execute(built, point, &flat)),
              RunLine(failure_case->id, point, Execute(built, point)));
  }
}

}  // namespace
}  // namespace anduril
