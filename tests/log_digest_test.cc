// The structured run-log digest (interp::DigestLog) against the text path it
// replaces, logdiff::ParseLogFile(interp::FormatLogFile(log)).
//
// The two must agree field by field (index, thread, level, logger, message,
// key) on every run of every registered scenario over a seed x armed-window
// grid, on hand-made entries and a small program that hit every fallback
// shape, and inside the search itself: the present observables the explorer
// hands the strategy each round must equal the ones the text path finds in
// the same runs.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/explorer/context.h"
#include "src/explorer/explorer.h"
#include "src/explorer/strategy.h"
#include "src/interp/log_entry.h"
#include "src/interp/simulator.h"
#include "src/ir/builder.h"
#include "src/logdiff/parser.h"
#include "src/systems/common.h"
#include "tests/test_util.h"

namespace anduril {
namespace {

using interp::InjectionCandidate;
using interp::LogEntry;

logdiff::ParsedLog TextPath(const std::vector<LogEntry>& log) {
  return logdiff::ParseLogFile(interp::FormatLogFile(log));
}

void ExpectSameLines(const logdiff::ParsedLog& digest, const logdiff::ParsedLog& text,
                     const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(digest.lines.size(), text.lines.size());
  for (size_t i = 0; i < text.lines.size(); ++i) {
    const logdiff::ParsedLine& got = digest.lines[i];
    const logdiff::ParsedLine& want = text.lines[i];
    EXPECT_EQ(got.index, want.index) << "line " << i;
    EXPECT_EQ(got.thread, want.thread) << "line " << i;
    EXPECT_EQ(got.level, want.level) << "line " << i;
    EXPECT_EQ(got.logger, want.logger) << "line " << i;
    EXPECT_EQ(got.message, want.message) << "line " << i;
    EXPECT_EQ(got.key, want.key) << "line " << i;
  }
}

// Digests `log` fresh and into a reused buffer; both must match the text path.
void ExpectDigestMatchesText(const std::vector<LogEntry>& log, logdiff::ParsedLog* reused,
                             const std::string& label) {
  const logdiff::ParsedLog text = TextPath(log);
  ExpectSameLines(interp::DigestLog(log), text, label);
  interp::DigestLog(log, reused);
  ExpectSameLines(*reused, text, label + " (reused buffer)");
}

// --- every registered scenario ---------------------------------------------------

struct GridStats {
  int runs = 0;
  int64_t lines = 0;
};

// The armed windows of the grid: none, the ground truth, single candidates
// spread over the context's candidate list at their first fault-free
// instance, and a search-shaped window of the top candidates.
std::vector<std::vector<InjectionCandidate>> WindowGrid(const systems::BuiltCase& built,
                                                        const explorer::ExplorerContext& context) {
  auto first_instance = [&](const explorer::FaultCandidate& candidate) {
    const std::vector<explorer::InstanceEstimate>& instances =
        context.InstancesOf(candidate.site);
    return explorer::Arm(candidate, instances.empty() ? 1 : instances.front().occurrence);
  };
  std::vector<std::vector<InjectionCandidate>> windows = {{}, {built.ground_truth}};
  const std::vector<explorer::FaultCandidate>& candidates = context.candidates();
  constexpr size_t kSingles = 8;
  for (size_t i = 0; i < kSingles && i < candidates.size(); ++i) {
    windows.push_back({first_instance(candidates[i * candidates.size() / kSingles])});
  }
  std::vector<InjectionCandidate> top;
  for (size_t i = 0; i < 5 && i < candidates.size(); ++i) {
    top.push_back(first_instance(candidates[i]));
  }
  windows.push_back(top);
  return windows;
}

void CheckRegistry(const std::vector<systems::FailureCase>& cases, GridStats* stats) {
  logdiff::ParsedLog reused;
  for (const systems::FailureCase& failure_case : cases) {
    SCOPED_TRACE(failure_case.id);
    const systems::BuiltCase built = systems::BuildCase(failure_case, /*verify=*/false);
    const explorer::ExplorerContext context(built.spec, explorer::OptionsForCase(failure_case));
    // Cascades also run with their chain prefix pinned, as the chain search does.
    std::vector<std::vector<InjectionCandidate>> pinned_sets = {{}};
    if (built.ground_truth_chain.size() > 1) {
      pinned_sets.emplace_back(built.ground_truth_chain.begin(),
                               built.ground_truth_chain.end() - 1);
    }
    const uint64_t base = failure_case.explore_seed;
    for (uint64_t seed : {base, base + 1, base + 1000}) {
      for (const std::vector<InjectionCandidate>& window : WindowGrid(built, context)) {
        for (const std::vector<InjectionCandidate>& pinned : pinned_sets) {
          const interp::RunResult run =
              systems::RunOnce(*built.program, built.cluster, seed, window, pinned);
          ExpectDigestMatchesText(run.log, &reused,
                                  "seed " + std::to_string(seed) + ", " +
                                      std::to_string(window.size()) + " armed, " +
                                      std::to_string(pinned.size()) + " pinned");
          ++stats->runs;
          stats->lines += static_cast<int64_t>(run.log.size());
        }
      }
    }
    // The production run: its digest must equal the committed failure log's parse.
    std::vector<InjectionCandidate> prefix;
    if (built.ground_truth_chain.size() > 1) {
      prefix.assign(built.ground_truth_chain.begin(), built.ground_truth_chain.end() - 1);
    }
    const interp::RunResult production = systems::RunOnce(
        *built.program, built.failure_cluster, failure_case.failure_seed,
        {built.ground_truth}, prefix);
    ExpectSameLines(interp::DigestLog(production.log),
                    logdiff::ParseLogFile(built.failure_log_text), "production run");
  }
}

TEST(LogDigestEquivalence, EveryRegistryOverSeedAndWindowGrid) {
  GridStats stats;
  CheckRegistry(systems::AllCases(), &stats);
  CheckRegistry(systems::CrashStallCases(), &stats);
  CheckRegistry(systems::NetworkCases(), &stats);
  CheckRegistry(systems::CascadeCases(), &stats);
  CheckRegistry(systems::StormCases(), &stats);
  // 33 scenarios x 3 seeds x up to 11 windows (+ pinned cascade variants).
  EXPECT_GT(stats.runs, 1000);
  EXPECT_GT(stats.lines, 200000);
}

// --- fallback shapes ---------------------------------------------------------------

LogEntry Entry(std::string node, std::string thread, std::string logger, std::string message,
               ir::LogLevel level = ir::LogLevel::kInfo) {
  LogEntry entry;
  entry.time_ms = 1234;
  entry.node = std::move(node);
  entry.thread = std::move(thread);
  entry.level = level;
  entry.logger = std::move(logger);
  entry.message = std::move(message);
  return entry;
}

TEST(LogDigestEquivalence, HandMadeEntriesCoverEveryFallbackShape) {
  const std::vector<LogEntry> log = {
      Entry("n1", "main", "plain", "block 12 of 7"),
      Entry("n1", "main", "plain", ""),                      // blank message
      Entry("n1", "main", "plain", "   "),                   // whitespace-only message
      Entry("n1", "main", "plain", "trailing space "),       // trimmed off the line
      Entry("n1", "main", "plain", "trailing tab\t"),
      Entry("n1", "main", "plain", "carriage return\r"),
      Entry("n1", "main", "plain", "  leading spaces kept"),
      Entry("n1", "main", "plain", "inner - separator - kept"),
      Entry("n1", "main", "a - b", "separator inside the logger"),
      Entry("n1", "main", "ends -", "logger ends in a dash"),
      Entry("n1", "main", "-", "logger is a dash"),
      Entry("n1", "main", "- x", "logger starts with a dash"),
      Entry("n1", "main", "x-", "logger ends in a bare dash"),
      Entry("n1", "main", " padded ", "logger with outer spaces"),
      Entry("n1", "main", "", "empty logger"),
      Entry("n1", "wor]ker", "plain", "bracket in the thread"),
      Entry("n]1", "main", "plain", "bracket in the node"),
      Entry("n1", "[main", "plain", "open bracket in the thread"),
      Entry("n1", "main", "plain", "first\nsecond"),       // newline in the message
      Entry("n1", "main", "plain", "spoof\n10:00:00,000 [x/y] ERROR fake - forged 9"),
      Entry("n1", "ma\nin", "plain", "newline in the thread"),
      Entry("n1", "main", "log\nger", "newline in the logger"),
      Entry("n1", "main", "plain", std::string("nul\0byte", 8)),
      Entry("n1", "main", std::string("nul\0logger", 10), "message"),
      Entry("n1", "main", "plain", "delta -5 v2 block137 end", ir::LogLevel::kWarn),
      Entry("n1", "main", "thread",
            "Uncaught exception terminating thread: IOException [exc=IOException at "
            "op@m#3; caused by TimeoutException]",
            ir::LogLevel::kError),
  };
  logdiff::ParsedLog reused;
  for (size_t i = 0; i < log.size(); ++i) {
    ExpectDigestMatchesText({log[i]}, &reused, "entry " + std::to_string(i));
  }
  ExpectDigestMatchesText(log, &reused, "whole log");
  // Shrinking back to a short log must drop the stale tail of the buffer.
  ExpectDigestMatchesText({log[0]}, &reused, "short log after a long one");
  // The shapes really are the ones the text path reshapes.
  const logdiff::ParsedLog text = TextPath(log);
  EXPECT_NE(text.lines.size(), log.size());
}

// A program whose simulated log hits the fallback shapes through the
// interpreter: an empty template, trailing whitespace, " - " in a logger or
// " -" at its end, a padded logger, ']' in thread names, a newline or a NUL in
// a template, exception descriptions with a cause, negative values, and
// digits next to template digits.
TEST(LogDigestEquivalence, SimulatedFallbackProgram) {
  ir::Program program;
  program.DefineException("IOException");
  program.DefineException("ExecutionException");
  using ir::LogLevel;
  {
    ir::MethodBuilder b(&program, "task");
    b.External("task_op", {"IOException"});
  }
  {
    ir::MethodBuilder b(&program, "dying");
    b.Throw("IOException");
  }
  {
    ir::MethodBuilder b(&program, "bracketed");
    b.Log(LogLevel::kInfo, "plain", "logged from a thread named with a bracket");
  }
  {
    ir::MethodBuilder b(&program, "main");
    b.Assign("x", ir::Expr::Const(13));
    b.Log(LogLevel::kInfo, "plain", "");
    b.Log(LogLevel::kInfo, "plain", "trailing space ");
    b.Log(LogLevel::kInfo, "a - b", "separator in logger {}", {b.V("x")});
    b.Log(LogLevel::kWarn, "ends -", "logger ends in a dash");
    b.Log(LogLevel::kInfo, " padded ", "logger with outer spaces");
    b.Log(LogLevel::kInfo, "plain", std::string("nul\0byte", 8));
    b.Log(LogLevel::kInfo, "plain", "first line\nsecond line {}", {b.V("x")});
    b.Log(LogLevel::kInfo, "plain", "v2 block{}7 delta {} end", {b.V("x"), b.Minus("zero", 5)});
    b.Submit("task", "fut", "exec]utor");
    b.TryCatch([&] { b.FutureGet("fut"); },
               {{"ExecutionException",
                 [&] { b.LogExc(LogLevel::kError, "fut", "task {} failed", {b.V("x")}); }}});
  }
  program.Finalize();
  interp::ClusterSpec cluster;
  cluster.AddNode("n1");
  cluster.AddTask("n1", "main", program.FindMethod("main"));
  cluster.AddTask("n1", "wor]ker", program.FindMethod("bracketed"));
  cluster.AddTask("n1", "dier", program.FindMethod("dying"));

  const ir::FaultSiteId site = systems::FindSiteByName(program, "task_op");
  const InjectionCandidate fault{site, 1, program.FindException("IOException"),
                                 interp::FaultKind::kException};
  logdiff::ParsedLog reused;
  for (const std::vector<InjectionCandidate>& window :
       std::vector<std::vector<InjectionCandidate>>{{}, {fault}}) {
    const interp::RunResult run = systems::RunOnce(program, cluster, 1, window);
    ExpectDigestMatchesText(run.log, &reused, std::to_string(window.size()) + " armed");
    bool caused_by = false;
    for (const LogEntry& entry : run.log) {
      caused_by = caused_by || entry.message.find("; caused by IOException]") != std::string::npos;
    }
    EXPECT_EQ(caused_by, !window.empty());
    EXPECT_TRUE(run.HasLogContaining("delta -5 end"));
    EXPECT_TRUE(run.HasLogContaining("Uncaught exception terminating thread"));
  }
}

// --- the round loop ------------------------------------------------------------------

// Full feedback, recording each round's window and the present keys the
// explorer hands back.
class RecordingStrategy : public explorer::InjectionStrategy {
 public:
  RecordingStrategy() : inner_(explorer::MakeFullFeedbackStrategy()) {}
  std::string name() const override { return inner_->name(); }
  void Initialize(const explorer::ExplorerContext& bound) override {
    context = &bound;
    inner_->Initialize(bound);
  }
  void set_metrics(obs::MetricsRegistry* metrics) override { inner_->set_metrics(metrics); }
  std::vector<InjectionCandidate> NextWindow() override {
    windows.push_back(inner_->NextWindow());
    return windows.back();
  }
  void OnRound(const explorer::RoundOutcome& outcome) override {
    present.push_back(outcome.present_keys);
    inner_->OnRound(outcome);
  }
  bool Exhausted() const override { return inner_->Exhausted(); }
  bool WantsLogFeedback() const override { return inner_->WantsLogFeedback(); }

  const explorer::ExplorerContext* context = nullptr;
  std::vector<std::vector<InjectionCandidate>> windows;
  std::vector<std::vector<std::string>> present;  // unsuccessful rounds only

 private:
  std::unique_ptr<explorer::InjectionStrategy> inner_;
};

// Observables of `context` whose keys the text path finds in any of `logs`,
// in context order.
std::vector<std::string> TextPresentKeys(const explorer::ExplorerContext& context,
                                         const std::vector<std::vector<LogEntry>>& logs) {
  std::unordered_set<std::string> keys;
  for (const std::vector<LogEntry>& log : logs) {
    for (const logdiff::ParsedLine& line : TextPath(log).lines) {
      keys.insert(line.key);
    }
  }
  std::vector<std::string> present;
  for (const explorer::ObservableInfo& observable : context.observables()) {
    if (keys.contains(observable.key)) {
      present.push_back(observable.key);
    }
  }
  return present;
}

void CheckRoundLoop(const systems::FailureCase& failure_case, int runs_per_round,
                    int threads) {
  SCOPED_TRACE(failure_case.id);
  const systems::BuiltCase built = systems::BuildCase(failure_case, /*verify=*/false);
  explorer::ExplorerOptions options = explorer::OptionsForCase(failure_case, threads);
  options.runs_per_round = runs_per_round;
  options.max_rounds = 40;
  explorer::Explorer explorer(built.spec, options);
  RecordingStrategy strategy;
  const explorer::ExploreResult result = explorer.Explore(&strategy);
  ASSERT_NE(strategy.context, nullptr);
  // An exhausted search asks for one more window than it runs.
  ASSERT_GE(static_cast<int>(strategy.windows.size()), result.rounds);
  ASSERT_EQ(result.records.size(), static_cast<size_t>(result.rounds));

  for (int round = 1; round <= result.rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::vector<InjectionCandidate>& window = strategy.windows[round - 1];
    std::vector<std::vector<LogEntry>> logs;
    for (int rep = 0; rep < runs_per_round; ++rep) {
      const uint64_t seed = built.spec.base_seed +
                            static_cast<uint64_t>(round) * static_cast<uint64_t>(runs_per_round) +
                            static_cast<uint64_t>(rep);
      const bool selected = result.reproduced && round == result.rounds;
      if (selected && seed != result.script->seed) {
        continue;  // the successful round reports only the run it selected
      }
      logs.push_back(systems::RunOnce(*built.program, built.cluster, seed, window).log);
    }
    const std::vector<std::string> want = TextPresentKeys(*strategy.context, logs);
    EXPECT_EQ(result.records[static_cast<size_t>(round - 1)].present_observables,
              static_cast<int>(want.size()));
    if (static_cast<size_t>(round) <= strategy.present.size()) {
      EXPECT_EQ(strategy.present[static_cast<size_t>(round - 1)], want);
    }
  }
}

TEST(LogDigestEquivalence, RoundLoopPresentObservablesMatchTextPath) {
  for (const std::vector<systems::FailureCase>* cases :
       {&systems::AllCases(), &systems::CrashStallCases(), &systems::NetworkCases(),
        &systems::CascadeCases()}) {
    for (const systems::FailureCase& failure_case : *cases) {
      CheckRoundLoop(failure_case, /*runs_per_round=*/1, /*threads=*/1);
    }
  }
  // Combined feedback of several runs per round, digested on pool threads.
  // hd-13039's repetitions disagree on observables in some rounds, so only
  // their union matches.
  CheckRoundLoop(*systems::FindCase("hd-13039"), /*runs_per_round=*/3, /*threads=*/2);
  for (const systems::FailureCase& failure_case : systems::StormCases()) {
    CheckRoundLoop(failure_case, /*runs_per_round=*/4, /*threads=*/2);
  }
}

}  // namespace
}  // namespace anduril
