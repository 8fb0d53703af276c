#include <gtest/gtest.h>

#include <algorithm>

#include "src/logdiff/compare.h"
#include "src/logdiff/myers.h"
#include "src/logdiff/parser.h"
#include "src/util/rng.h"

namespace anduril::logdiff {
namespace {

// --- sanitizer ------------------------------------------------------------------

TEST(Sanitize, ReplacesDigitRuns) {
  EXPECT_EQ(Sanitize("block 123 of 7"), "block # of #");
  EXPECT_EQ(Sanitize("no digits"), "no digits");
  EXPECT_EQ(Sanitize("42"), "#");
  EXPECT_EQ(Sanitize("a1b22c333"), "a#b#c#");
  EXPECT_EQ(Sanitize(""), "");
}

TEST(Sanitize, MakesRenderedMessageMatchTemplate) {
  // "value {} done" rendered with 57 sanitizes to the same key as the
  // template with "{}" replaced by any digit run.
  EXPECT_EQ(Sanitize("value 57 done"), Sanitize("value 0 done"));
}

// --- parser ---------------------------------------------------------------------

TEST(Parser, ParsesWellFormedLine) {
  ParsedLog log = ParseLogFile("10:00:01,234 [node1/worker] WARN comp.sub - message 42\n");
  ASSERT_EQ(log.lines.size(), 1u);
  const ParsedLine& line = log.lines[0];
  EXPECT_EQ(line.thread, "node1/worker");
  EXPECT_EQ(line.level, "WARN");
  EXPECT_EQ(line.logger, "comp.sub");
  EXPECT_EQ(line.message, "message 42");
  EXPECT_EQ(line.key, "WARN|comp.sub|message #");
  EXPECT_EQ(line.index, 0);
}

TEST(Parser, SkipsMalformedLines) {
  ParsedLog log = ParseLogFile(
      "garbage\n"
      "\n"
      "10:00:00,000 [t] INFO a - ok\n"
      "  at some.stack.trace(Frame.java:10)\n"
      "10:00:00,001 missing bracket INFO a - x\n");
  ASSERT_EQ(log.lines.size(), 1u);
  EXPECT_EQ(log.lines[0].message, "ok");
}

TEST(Parser, IndicesAreSequential) {
  std::string text;
  for (int i = 0; i < 5; ++i) {
    text += "10:00:00,00" + std::to_string(i) + " [t] INFO a - m" + std::to_string(i) + "\n";
  }
  ParsedLog log = ParseLogFile(text);
  ASSERT_EQ(log.lines.size(), 5u);
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(log.lines[static_cast<size_t>(i)].index, i);
  }
}

TEST(Parser, MessageMayContainSeparator) {
  ParsedLog log = ParseLogFile("10:00:00,000 [t] INFO a - x - y - z\n");
  ASSERT_EQ(log.lines.size(), 1u);
  EXPECT_EQ(log.lines[0].message, "x - y - z");
}

// --- Myers diff -------------------------------------------------------------------

// Reference LCS length via DP, for property checking.
size_t LcsLength(const std::vector<int32_t>& a, const std::vector<int32_t>& b) {
  std::vector<std::vector<size_t>> dp(a.size() + 1, std::vector<size_t>(b.size() + 1, 0));
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      dp[i][j] = a[i - 1] == b[j - 1] ? dp[i - 1][j - 1] + 1
                                      : std::max(dp[i - 1][j], dp[i][j - 1]);
    }
  }
  return dp[a.size()][b.size()];
}

void CheckMatches(const std::vector<int32_t>& a, const std::vector<int32_t>& b) {
  auto matches = MyersDiff(a, b);
  // Valid: strictly increasing in both coordinates, elements equal.
  int32_t prev_a = -1;
  int32_t prev_b = -1;
  for (const auto& [i, j] : matches) {
    ASSERT_GT(i, prev_a);
    ASSERT_GT(j, prev_b);
    ASSERT_EQ(a[static_cast<size_t>(i)], b[static_cast<size_t>(j)]);
    prev_a = i;
    prev_b = j;
  }
  // Maximal: the match count equals the LCS length.
  EXPECT_EQ(matches.size(), LcsLength(a, b));
}

TEST(Myers, EmptySequences) {
  CheckMatches({}, {});
  CheckMatches({1, 2, 3}, {});
  CheckMatches({}, {1, 2, 3});
}

TEST(Myers, IdenticalSequences) {
  std::vector<int32_t> seq{5, 4, 3, 2, 1};
  auto matches = MyersDiff(seq, seq);
  ASSERT_EQ(matches.size(), seq.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(matches[i].first, static_cast<int32_t>(i));
    EXPECT_EQ(matches[i].second, static_cast<int32_t>(i));
  }
}

TEST(Myers, ClassicExample) {
  // ABCABBA vs CBABAC (Myers' paper example): LCS length 4.
  CheckMatches({0, 1, 2, 0, 1, 1, 0}, {2, 1, 0, 1, 0, 2});
}

TEST(Myers, CompletelyDifferent) { CheckMatches({1, 1, 1}, {2, 2, 2}); }

TEST(Myers, InsertionsOnly) { CheckMatches({1, 2, 3}, {0, 1, 9, 2, 8, 3, 7}); }

TEST(Myers, DeletionsOnly) { CheckMatches({0, 1, 9, 2, 8, 3, 7}, {1, 2, 3}); }

struct MyersRandomParam {
  int len_a;
  int len_b;
  int alphabet;
  uint64_t seed;
};

class MyersRandomTest : public ::testing::TestWithParam<MyersRandomParam> {};

TEST_P(MyersRandomTest, MatchesAreAnLcs) {
  const MyersRandomParam& param = GetParam();
  Rng rng(param.seed);
  std::vector<int32_t> a(static_cast<size_t>(param.len_a));
  std::vector<int32_t> b(static_cast<size_t>(param.len_b));
  for (auto& value : a) {
    value = static_cast<int32_t>(rng.NextBelow(static_cast<uint64_t>(param.alphabet)));
  }
  for (auto& value : b) {
    value = static_cast<int32_t>(rng.NextBelow(static_cast<uint64_t>(param.alphabet)));
  }
  CheckMatches(a, b);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MyersRandomTest,
    ::testing::Values(MyersRandomParam{10, 10, 3, 1}, MyersRandomParam{50, 50, 5, 2},
                      MyersRandomParam{100, 80, 2, 3}, MyersRandomParam{200, 200, 20, 4},
                      MyersRandomParam{37, 91, 4, 5}, MyersRandomParam{128, 1, 2, 6},
                      MyersRandomParam{1, 128, 2, 7}, MyersRandomParam{300, 300, 2, 8},
                      MyersRandomParam{150, 150, 50, 9}, MyersRandomParam{64, 65, 3, 10}));

// --- per-thread comparison -----------------------------------------------------------

std::string Line(const std::string& thread, const std::string& level,
                 const std::string& message) {
  return "10:00:00,000 [" + thread + "] " + level + " test - " + message + "\n";
}

TEST(CompareLogs, FailureOnlyMessagesBecomeObservables) {
  ParsedLog normal = ParseLogFile(Line("t1", "INFO", "start") + Line("t1", "INFO", "done"));
  ParsedLog failure = ParseLogFile(Line("t1", "INFO", "start") +
                                   Line("t1", "ERROR", "disaster struck") +
                                   Line("t1", "INFO", "done"));
  LogComparison comparison = CompareLogs(normal, failure);
  ASSERT_EQ(comparison.target_only_keys.size(), 1u);
  EXPECT_EQ(comparison.target_only_keys[0], "ERROR|test|disaster struck");
}

TEST(CompareLogs, SharedMessagesAreNotObservables) {
  std::string same = Line("t1", "WARN", "transient issue 5") + Line("t1", "INFO", "ok");
  // Different digits must still match after sanitization.
  ParsedLog normal = ParseLogFile(Line("t1", "WARN", "transient issue 9") +
                                  Line("t1", "INFO", "ok"));
  ParsedLog failure = ParseLogFile(same);
  EXPECT_TRUE(CompareLogs(normal, failure).target_only_keys.empty());
}

TEST(CompareLogs, ThreadsOnlyInFailureLogAreAllObservables) {
  ParsedLog normal = ParseLogFile(Line("t1", "INFO", "hello"));
  ParsedLog failure =
      ParseLogFile(Line("t1", "INFO", "hello") + Line("t9", "INFO", "mystery a") +
                   Line("t9", "INFO", "mystery b"));
  LogComparison comparison = CompareLogs(normal, failure);
  EXPECT_EQ(comparison.target_only_keys.size(), 2u);
}

TEST(CompareLogs, PerThreadDiffIgnoresCrossThreadInterleaving) {
  // Same per-thread sequences, globally interleaved differently.
  ParsedLog normal = ParseLogFile(Line("a", "INFO", "a1") + Line("b", "INFO", "b1") +
                                  Line("a", "INFO", "a2") + Line("b", "INFO", "b2"));
  ParsedLog failure = ParseLogFile(Line("b", "INFO", "b1") + Line("b", "INFO", "b2") +
                                   Line("a", "INFO", "a1") + Line("a", "INFO", "a2"));
  EXPECT_TRUE(CompareLogs(normal, failure).target_only_keys.empty());
}

TEST(CompareLogs, MultiplicityDifferenceIsReportedOnce) {
  ParsedLog normal = ParseLogFile(Line("t", "WARN", "retry"));
  ParsedLog failure = ParseLogFile(Line("t", "WARN", "retry") + Line("t", "WARN", "retry") +
                                   Line("t", "WARN", "retry"));
  LogComparison comparison = CompareLogs(normal, failure);
  // Two unmatched instances, one deduplicated key.
  ASSERT_EQ(comparison.target_only_keys.size(), 1u);
  EXPECT_EQ(comparison.target_only_keys[0], "WARN|test|retry");
}

TEST(CompareLogs, DuplicatedDeliveryIsOneMultiplicityObservable) {
  // A duplicate network fault makes a handler log the same template an extra
  // time in the failure run. That is a genuine multiplicity increase —
  // reported once, like any other — but it must not spray per-instance
  // phantom keys or disturb templates whose counts are unchanged
  // ("checkpoint ok" below stays silent).
  ParsedLog normal = ParseLogFile(Line("n2/handler", "INFO", "applied digest 4") +
                                  Line("n2/handler", "INFO", "applied digest 5") +
                                  Line("n2/handler", "INFO", "checkpoint ok"));
  ParsedLog failure = ParseLogFile(Line("n2/handler", "INFO", "applied digest 4") +
                                   Line("n2/handler", "INFO", "applied digest 4") +
                                   Line("n2/handler", "INFO", "applied digest 5") +
                                   Line("n2/handler", "INFO", "checkpoint ok") +
                                   Line("n2/handler", "ERROR", "digest mismatch"));
  LogComparison comparison = CompareLogs(normal, failure);
  ASSERT_EQ(comparison.target_only_keys.size(), 2u);
  EXPECT_EQ(comparison.target_only_keys[0], "INFO|test|applied digest #");
  EXPECT_EQ(comparison.target_only_keys[1], "ERROR|test|digest mismatch");
}

TEST(CompareLogs, ReorderedDeliveriesWithinAThreadAreNotPhantomObservables) {
  // A delay fault reorders two deliveries on the same handler thread. The
  // per-thread LCS leaves one instance unmatched, but the *keys* both exist
  // in the normal log, so neither may become a relevant observable.
  // Distinct non-digit suffixes: sanitization must not be what saves us.
  ParsedLog normal = ParseLogFile(Line("nn/receive", "INFO", "report from alpha") +
                                  Line("nn/receive", "INFO", "report from beta") +
                                  Line("nn/receive", "INFO", "report from gamma"));
  ParsedLog failure = ParseLogFile(Line("nn/receive", "INFO", "report from alpha") +
                                   Line("nn/receive", "INFO", "report from gamma") +
                                   Line("nn/receive", "INFO", "report from beta"));
  EXPECT_TRUE(CompareLogs(normal, failure).target_only_keys.empty());
}

TEST(CompareLogs, ReorderedAndDuplicatedMixReportsOnlyCountIncreases) {
  // Reordering + duplication together (what a delay-then-duplicate window
  // produces): the reordered-but-count-stable templates ("copy block beta",
  // "slow peer #") contribute nothing; the duplicated template and the
  // genuinely new ERROR template are the only observables.
  ParsedLog normal = ParseLogFile(Line("t", "INFO", "copy block alpha") +
                                  Line("t", "INFO", "copy block beta") +
                                  Line("t", "WARN", "slow peer 7"));
  ParsedLog failure = ParseLogFile(Line("t", "INFO", "copy block beta") +
                                   Line("t", "INFO", "copy block alpha") +
                                   Line("t", "INFO", "copy block alpha") +
                                   Line("t", "WARN", "slow peer 9") +
                                   Line("t", "ERROR", "replication stalled, 4 of 5 acked"));
  LogComparison comparison = CompareLogs(normal, failure);
  ASSERT_EQ(comparison.target_only_keys.size(), 2u);
  EXPECT_EQ(comparison.target_only_keys[0], "INFO|test|copy block alpha");
  EXPECT_EQ(comparison.target_only_keys[1], "ERROR|test|replication stalled, # of # acked");
}

TEST(CompareLogs, MatchesAreGloballyMonotone) {
  ParsedLog normal = ParseLogFile(Line("a", "INFO", "a1") + Line("b", "INFO", "b1") +
                                  Line("a", "INFO", "a2") + Line("b", "INFO", "b2"));
  ParsedLog failure = ParseLogFile(Line("a", "INFO", "a1") + Line("b", "INFO", "b1") +
                                   Line("b", "INFO", "b2") + Line("a", "INFO", "a2"));
  LogComparison comparison = CompareLogs(normal, failure);
  int64_t prev_base = -1;
  int64_t prev_target = -1;
  for (const auto& [base, target] : comparison.matches) {
    EXPECT_GT(base, prev_base);
    EXPECT_GT(target, prev_target);
    prev_base = base;
    prev_target = target;
  }
  EXPECT_GE(comparison.matches.size(), 3u);
}

// --- timeline alignment ----------------------------------------------------------------

TEST(TimelineAlignment, IdentityWhenFullyMatched) {
  std::vector<std::pair<int64_t, int64_t>> matches{{0, 0}, {1, 1}, {2, 2}};
  TimelineAlignment alignment(matches, 3, 3);
  for (int64_t pos = 0; pos < 3; ++pos) {
    EXPECT_EQ(alignment.MapPosition(pos), pos);
  }
}

TEST(TimelineAlignment, ScalesWithinIntervals) {
  // Base positions 0 and 10 map to target 0 and 20: interior doubles.
  std::vector<std::pair<int64_t, int64_t>> matches{{0, 0}, {10, 20}};
  TimelineAlignment alignment(matches, 11, 21);
  EXPECT_EQ(alignment.MapPosition(0), 0);
  EXPECT_EQ(alignment.MapPosition(5), 10);
  EXPECT_EQ(alignment.MapPosition(10), 20);
}

TEST(TimelineAlignment, ExtrapolatesPastLastAnchor) {
  std::vector<std::pair<int64_t, int64_t>> matches{{2, 5}};
  TimelineAlignment alignment(matches, 10, 30);
  EXPECT_EQ(alignment.MapPosition(2), 5);
  int64_t late = alignment.MapPosition(9);
  EXPECT_GT(late, 5);
  EXPECT_LE(late, 30);
}

TEST(TimelineAlignment, NoMatchesScalesLinearly) {
  TimelineAlignment alignment({}, 10, 100);
  EXPECT_EQ(alignment.MapPosition(0), 8);  // -1 + (0 - -1) * 101 / 11
  EXPECT_LE(alignment.MapPosition(9), 100);
  EXPECT_GT(alignment.MapPosition(9), alignment.MapPosition(1));
}

TEST(TimelineAlignment, MonotoneMapping) {
  std::vector<std::pair<int64_t, int64_t>> matches{{3, 1}, {6, 14}, {9, 17}};
  TimelineAlignment alignment(matches, 20, 40);
  int64_t prev = -10;
  for (int64_t pos = 0; pos < 20; ++pos) {
    int64_t mapped = alignment.MapPosition(pos);
    EXPECT_GE(mapped, prev);
    prev = mapped;
  }
}

}  // namespace
}  // namespace anduril::logdiff
