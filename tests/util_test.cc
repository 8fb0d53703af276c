#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/backoff.h"
#include "src/util/check.h"
#include "src/util/file.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/stopwatch.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace anduril {
namespace {

// --- strings -----------------------------------------------------------------

TEST(Strings, SplitBasic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Strings, SplitNLimitsPieces) {
  EXPECT_EQ(SplitN("a|b|c|d", '|', 2), (std::vector<std::string>{"a", "b|c|d"}));
  EXPECT_EQ(SplitN("a|b", '|', 5), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitN("abc", '|', 3), (std::vector<std::string>{"abc"}));
}

TEST(Strings, StartsEndsContains) {
  EXPECT_TRUE(StartsWith("abcdef", "abc"));
  EXPECT_FALSE(StartsWith("ab", "abc"));
  EXPECT_TRUE(EndsWith("abcdef", "def"));
  EXPECT_FALSE(EndsWith("ef", "def"));
  EXPECT_TRUE(Contains("abcdef", "cde"));
  EXPECT_FALSE(Contains("abcdef", "xyz"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_TRUE(EndsWith("abc", ""));
}

TEST(Strings, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("a b"), "a b");
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a{}b{}c", "{}", "#"), "a#b#c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");  // non-overlapping, left to right
  EXPECT_EQ(ReplaceAll("none", "xx", "y"), "none");
}

TEST(Strings, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%05d", 7), "00007");
  // Long outputs are not truncated.
  std::string long_arg(500, 'a');
  EXPECT_EQ(StrFormat("%s", long_arg.c_str()).size(), 500u);
}

TEST(Strings, ThousandsSeparators) {
  EXPECT_EQ(WithThousandsSeparators(0), "0");
  EXPECT_EQ(WithThousandsSeparators(999), "999");
  EXPECT_EQ(WithThousandsSeparators(1000), "1,000");
  EXPECT_EQ(WithThousandsSeparators(1234567), "1,234,567");
  EXPECT_EQ(WithThousandsSeparators(-1234567), "-1,234,567");
}

// --- rng ------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(rng.NextBelow(7));
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t value = rng.NextInRange(-3, 3);
    EXPECT_GE(value, -3);
    EXPECT_LE(value, 3);
    saw_lo |= value == -3;
    saw_hi |= value == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextBoolEdges) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double value = rng.NextDouble();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(Rng, RoughlyUniform) {
  Rng rng(17);
  int buckets[10] = {};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    ++buckets[rng.NextBelow(10)];
  }
  for (int count : buckets) {
    EXPECT_NEAR(count, kDraws / 10, kDraws / 100);
  }
}

// --- check ------------------------------------------------------------------------

TEST(CheckDeathTest, FailedCheckAborts) {
  EXPECT_DEATH({ ANDURIL_CHECK(1 == 2) << "boom"; }, "boom");
}

TEST(CheckDeathTest, ComparisonMacros) {
  EXPECT_DEATH({ ANDURIL_CHECK_EQ(1, 2); }, "ANDURIL_CHECK failed");
  EXPECT_DEATH({ ANDURIL_CHECK_LT(3, 2); }, "ANDURIL_CHECK failed");
}

TEST(Check, PassingCheckIsSilent) {
  ANDURIL_CHECK(true);
  ANDURIL_CHECK_EQ(2, 2);
  ANDURIL_CHECK_GE(3, 2);
}

// --- stopwatch ------------------------------------------------------------------------

// A failed rename (the destination is a directory) reports false and leaves
// no "<path>.tmp" behind.
TEST(File, WriteFileAtomicOntoADirectoryLeavesNoTempFile) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "write_file_atomic_onto_dir";
  fs::remove_all(dir);
  fs::create_directories(dir);
  EXPECT_FALSE(WriteFileAtomic(dir.string(), "bytes"));
  EXPECT_FALSE(fs::exists(dir.string() + ".tmp"));
  EXPECT_TRUE(fs::is_directory(dir));
  fs::remove_all(dir);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch stopwatch;
  int64_t sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink += i;
  }
  ASSERT_NE(sink, 0);
  EXPECT_GT(stopwatch.ElapsedNanos(), 0);
  EXPECT_GE(stopwatch.ElapsedSeconds(), 0.0);
}

TEST(Stopwatch, ResetRestartsClock) {
  Stopwatch stopwatch;
  int64_t sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink += i;
  }
  ASSERT_NE(sink, 0);
  int64_t before = stopwatch.ElapsedNanos();
  stopwatch.Reset();
  EXPECT_LT(stopwatch.ElapsedNanos(), before + 1000000000);
}

// --- thread pool -------------------------------------------------------------

TEST(ThreadPool, SubmitAndWaitReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
  pool.Wait();
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPool, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  std::future<int> future =
      pool.Submit([]() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The worker survives a throwing task.
  EXPECT_EQ(pool.Submit([] { return 41 + 1; }).get(), 42);
}

TEST(ThreadPool, DestructionDrainsPendingTasks) {
  std::atomic<int> completed{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      futures.push_back(pool.Submit([&completed] {
        ++completed;
      }));
    }
    // Destruction must run every accepted task so no future is abandoned.
  }
  EXPECT_EQ(completed.load(), 32);
  for (auto& future : futures) {
    future.get();  // would throw broken_promise if a task were dropped
  }
}

TEST(ThreadPool, WaitBlocksUntilIdle) {
  ThreadPool pool(3);
  std::atomic<int> completed{0};
  for (int i = 0; i < 24; ++i) {
    pool.Submit([&completed] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++completed;
    });
  }
  pool.Wait();
  EXPECT_EQ(completed.load(), 24);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPool, BoundedQueueAppliesBackpressure) {
  ThreadPool pool(1, /*queue_bound=*/2);
  std::atomic<int> completed{0};
  // More tasks than the bound: Submit blocks instead of rejecting, and every
  // task still completes exactly once.
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&completed] { ++completed; });
  }
  pool.Wait();
  EXPECT_EQ(completed.load(), 16);
}

// --- exponential backoff -----------------------------------------------------

// Every delay lies within kJitter of its base.
void ExpectWithinJitter(int64_t delay, int64_t base) {
  const double spread = ExponentialBackoff::kJitter * static_cast<double>(base);
  EXPECT_GE(static_cast<double>(delay), static_cast<double>(base) - spread) << "base " << base;
  EXPECT_LE(static_cast<double>(delay), static_cast<double>(base) + spread) << "base " << base;
}

TEST(ExponentialBackoff, DelaysGrowExponentiallyWithinJitterBounds) {
  ExponentialBackoff backoff(7);
  // The base doubles from kInitialDelayMs until it reaches kMaxDelayMs (the
  // seventh delay).
  int64_t base = ExponentialBackoff::kInitialDelayMs;
  for (int attempt = 0; attempt < 10; ++attempt) {
    ExpectWithinJitter(backoff.NextDelayMs(), base);
    base = std::min<int64_t>(base * 2, ExponentialBackoff::kMaxDelayMs);
  }
}

TEST(ExponentialBackoff, ResetRestartsTheDelaySequence) {
  ExponentialBackoff backoff(1);
  for (int attempt = 0; attempt < 6; ++attempt) {
    backoff.NextDelayMs();
  }
  // Without the Reset the seventh base would be kMaxDelayMs.
  backoff.Reset();
  ExpectWithinJitter(backoff.NextDelayMs(), ExponentialBackoff::kInitialDelayMs);
  ExpectWithinJitter(backoff.NextDelayMs(), 2 * ExponentialBackoff::kInitialDelayMs);
}

// --- json ---------------------------------------------------------------------

std::string Nested(const std::string& open, const std::string& leaf, const std::string& close,
                   int depth) {
  std::string text;
  for (int i = 0; i < depth; ++i) {
    text += open;
  }
  text += leaf;
  for (int i = 0; i < depth; ++i) {
    text += close;
  }
  return text;
}

TEST(Json, RoundTripsEveryType) {
  JsonValue root = JsonValue::Object();
  root.Set("null", JsonValue::Null());
  root.Set("bool", JsonValue::Bool(true));
  root.Set("int", JsonValue::Int(-42));
  root.Set("double", JsonValue::Double(0.5));
  root.Set("string", JsonValue::Str("a \"quoted\"\n\\line"));
  JsonValue array = JsonValue::Array();
  array.Append(JsonValue::Int(1));
  array.Append(JsonValue::Object());
  root.Set("array", std::move(array));
  std::string error;
  JsonValue parsed = JsonValue::Parse(root.Dump(), &error);
  ASSERT_TRUE(error.empty()) << error;
  EXPECT_EQ(parsed.Dump(), root.Dump());
  EXPECT_EQ(parsed.Find("int")->as_int(), -42);
  EXPECT_EQ(parsed.Find("string")->as_string(), "a \"quoted\"\n\\line");
}

TEST(Json, AcceptsNestingUpToTheBound) {
  std::string error;
  JsonValue arrays =
      JsonValue::Parse(Nested("[", "1", "]", JsonValue::kMaxDepth), &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(arrays.type(), JsonValue::Type::kArray);
  JsonValue objects =
      JsonValue::Parse(Nested("{\"a\":", "1", "}", JsonValue::kMaxDepth), &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(objects.type(), JsonValue::Type::kObject);
}

TEST(Json, RejectsNestingPastTheBoundWithItsOffset) {
  std::string error;
  JsonValue value =
      JsonValue::Parse(Nested("[", "1", "]", JsonValue::kMaxDepth + 1), &error);
  EXPECT_TRUE(value.is_null());
  // The first bracket past the bound sits at offset kMaxDepth.
  EXPECT_EQ(error, "nesting deeper than 64 levels at offset 64");
}

TEST(Json, NestingBombsFailWithAnErrorInsteadOfOverflowingTheStack) {
  // The shapes that used to crash the CLI: a signature of 200k '[' and a
  // checkpoint of 100k nested objects, both unterminated and terminated.
  const std::string arrays(200000, '[');
  const std::string objects = Nested("{\"a\":", "1", "}", 100000);
  for (const std::string* bomb : {&arrays, &objects}) {
    std::string error;
    JsonValue value = JsonValue::Parse(*bomb, &error);
    EXPECT_TRUE(value.is_null());
    EXPECT_NE(error.find("nesting deeper than"), std::string::npos) << error;
    EXPECT_NE(error.find("at offset"), std::string::npos) << error;
  }
  // A bomb nested inside an otherwise well-formed document fails the same way:
  // the object is level 1, so the 64th '[' (offset 10 + 63) is one too many.
  std::string error;
  JsonValue::Parse("{\"steps\": " + arrays + "}", &error);
  EXPECT_EQ(error, "nesting deeper than 64 levels at offset 73");
}

TEST(Json, ParsesWellFormedNumbersWhole) {
  const std::pair<const char*, int64_t> ints[] = {{"0", 0},
                                                  {"-0", 0},
                                                  {"-42", -42},
                                                  {"9223372036854775807", INT64_MAX},
                                                  {"-9223372036854775808", INT64_MIN}};
  for (const auto& [token, expected] : ints) {
    std::string error;
    const JsonValue value = JsonValue::Parse(token, &error);
    ASSERT_EQ(value.type(), JsonValue::Type::kInt) << token << ": " << error;
    EXPECT_EQ(value.as_int(), expected) << token;
  }
  const std::pair<const char*, double> doubles[] = {
      {"0.5", 0.5}, {"-1.5e-3", -1.5e-3}, {"1E5", 1e5}, {"1e300", 1e300}};
  for (const auto& [token, expected] : doubles) {
    std::string error;
    const JsonValue value = JsonValue::Parse(token, &error);
    ASSERT_EQ(value.type(), JsonValue::Type::kDouble) << token << ": " << error;
    EXPECT_EQ(value.as_double(), expected) << token;
  }
  // A double is not an integer: no conversion, however it would round.
  std::string error;
  EXPECT_EQ(JsonValue::Parse("1e300", &error).as_int(7), 7);
  EXPECT_EQ(JsonValue::Parse("2.0", &error).as_int(7), 7);
}

TEST(Json, RejectsMalformedAndOutOfRangeNumbersAtTheirOffset) {
  for (const char* token : {"-", "--5", "1-2", "1.2.3", "1e", "+1", "1e999",
                            "99999999999999999999", "-9223372036854775809"}) {
    std::string error;
    const JsonValue value = JsonValue::Parse(std::string("{\"n\": ") + token + "}", &error);
    EXPECT_TRUE(value.is_null()) << token;
    EXPECT_NE(error.find(std::string("number ") + token), std::string::npos) << error;
    EXPECT_NE(error.find("at offset 6"), std::string::npos) << error;
  }
}

TEST(Json, ReadIntMemberChecksTypeAndRange) {
  std::string error;
  const JsonValue object = JsonValue::Parse(
      R"({"rounds": 2, "negative": -7, "text": "2", "real": 2.5, "wide": 4294967298})",
      &error);
  ASSERT_TRUE(error.empty()) << error;
  int rounds = -1;
  EXPECT_TRUE(ReadIntMember(object, "rounds", 0, INT32_MAX, &rounds, &error));
  EXPECT_EQ(rounds, 2);
  int absent = 11;  // an absent member keeps the caller's default
  EXPECT_TRUE(ReadIntMember(object, "absent", 0, INT32_MAX, &absent, &error));
  EXPECT_EQ(absent, 11);
  int64_t wide = 0;
  EXPECT_TRUE(ReadIntMember(object, "wide", 0, INT64_MAX, &wide, &error));
  EXPECT_EQ(wide, int64_t{4294967298});

  const std::pair<const char*, const char*> bad[] = {
      {"negative", "\"negative\" is -7, outside [0, 2147483647]"},
      {"text", "\"text\" is not an integer"},
      {"real", "\"real\" is not an integer"},
      {"wide", "\"wide\" is 4294967298, outside [0, 2147483647]"}};
  for (const auto& [key, message] : bad) {
    int out = 5;
    EXPECT_FALSE(ReadIntMember(object, key, 0, INT32_MAX, &out, &error)) << key;
    EXPECT_EQ(error, message);
    EXPECT_EQ(out, 5) << key;
  }
}

TEST(Json, U64RoundTripsAsADecimalStringAndDecodesStrictly) {
  for (uint64_t value : {uint64_t{0}, uint64_t{42}, ~uint64_t{0}}) {
    const JsonValue encoded = JsonValue::U64(value);
    EXPECT_EQ(encoded.as_string(), std::to_string(value));
    uint64_t decoded = 1;
    EXPECT_TRUE(encoded.AsU64(&decoded));
    EXPECT_EQ(decoded, value);
  }
  uint64_t out = 0;
  for (const char* bad : {"12abc", "-1", "", " 1", "+1", "1.5", "18446744073709551616"}) {
    EXPECT_FALSE(JsonValue::Str(bad).AsU64(&out)) << '"' << bad << '"';
  }
  EXPECT_FALSE(JsonValue::Int(12).AsU64(&out));  // a JSON number, not a string

  JsonValue object = JsonValue::Object();
  object.Set("seed", JsonValue::Str("x"));
  std::string error;
  EXPECT_FALSE(ReadU64Member(object, "seed", &out, &error));
  EXPECT_NE(error.find("\"seed\" is not an unsigned 64-bit decimal string"), std::string::npos)
      << error;
  EXPECT_FALSE(ReadU64Member(object, "hash", &out, &error));
  EXPECT_NE(error.find("\"hash\" is missing"), std::string::npos) << error;
}

}  // namespace
}  // namespace anduril
