// Property tests for the observability layer (src/obs): randomized
// concurrent updates never lose events or produce malformed JSON, histogram
// merging is order-independent, snapshots round-trip through their JSON
// encodings, and truncated or version-skewed files are rejected with
// actionable errors instead of being half-parsed.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/json.h"
#include "src/util/rng.h"

namespace anduril::obs {
namespace {

// --- concurrent tracer updates --------------------------------------------------

TEST(ObsPropertyTest, ConcurrentSpanEmissionLosesNoEvents) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  Tracer tracer;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&tracer, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < kPerThread; ++i) {
        const int64_t ts = static_cast<int64_t>(rng.NextBelow(1'000'000));
        if (rng.NextBool(0.5)) {
          tracer.Span("explore", "run", ts, 1 + static_cast<int64_t>(rng.NextBelow(999)),
                      t, {ArgInt("thread", t), ArgInt("i", i)});
        } else {
          tracer.Instant("explore", "reproduced", ts, t,
                         {ArgStr("tag", "t" + std::to_string(t))});
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(tracer.event_count(), static_cast<size_t>(kThreads) * kPerThread);

  // Both dump formats stay well-formed under the full concurrent load.
  std::string error;
  JsonValue chrome = JsonValue::Parse(tracer.DumpChromeTrace(), &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_NE(chrome.Find("traceEvents"), nullptr);
  EXPECT_EQ(chrome.Find("traceEvents")->items().size(),
            static_cast<size_t>(kThreads) * kPerThread);

  std::vector<TraceEvent> parsed;
  ASSERT_TRUE(Tracer::ParseJsonl(tracer.DumpJsonl(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.size(), static_cast<size_t>(kThreads) * kPerThread);
}

TEST(ObsPropertyTest, DumpIsIndependentOfInsertionOrder) {
  // The same set of events emitted in two different interleavings dumps
  // byte-identically — the property the golden-trace test builds on.
  struct Item {
    int64_t ts;
    int64_t dur;
    int track;
  };
  std::vector<Item> items;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    items.push_back(Item{static_cast<int64_t>(rng.NextBelow(1000)),
                         1 + static_cast<int64_t>(rng.NextBelow(50)),
                         static_cast<int>(rng.NextBelow(4))});
  }
  Tracer forward;
  for (const Item& item : items) {
    forward.Span("explore", "candidate", item.ts, item.dur, item.track);
  }
  Tracer backward;
  for (auto it = items.rbegin(); it != items.rend(); ++it) {
    backward.Span("explore", "candidate", it->ts, it->dur, it->track);
  }
  EXPECT_EQ(forward.DumpJsonl(), backward.DumpJsonl());
  EXPECT_EQ(forward.DumpChromeTrace(), backward.DumpChromeTrace());
}

TEST(ObsPropertyTest, JsonlRoundTripPreservesEvents) {
  Tracer tracer;
  tracer.Span("explore", "round", 1'000'000, 1'000'000, 0,
              {ArgInt("round", 1), ArgBool("success", false), ArgStr("outcome", "completed")},
              /*wall_nanos=*/123'456'789);
  // Numeric args round-trip through int64 (JSON has no uint64), so the
  // largest reparseable seed is int64 max; real seeds are base_seed + round.
  tracer.Instant("explore", "reproduced", 1'999'999, 0,
                 {ArgUint("seed", uint64_t{1} << 62)});
  const std::string text = tracer.DumpJsonl(/*include_wall=*/true);

  std::vector<TraceEvent> parsed;
  std::string error;
  ASSERT_TRUE(Tracer::ParseJsonl(text, &parsed, &error)) << error;
  Tracer reloaded;
  for (const TraceEvent& event : parsed) {
    if (event.kind == TraceEvent::Kind::kSpan) {
      reloaded.Span(event.category, event.name, event.ts, event.dur, event.track,
                    event.args, event.wall_nanos);
    } else {
      reloaded.Instant(event.category, event.name, event.ts, event.track, event.args);
    }
  }
  EXPECT_EQ(reloaded.DumpJsonl(/*include_wall=*/true), text);
}

// --- concurrent metrics updates -------------------------------------------------

TEST(ObsPropertyTest, ConcurrentCounterAndHistogramUpdatesAreExact) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  MetricsRegistry metrics;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&metrics, t] {
      Rng rng(static_cast<uint64_t>(t) + 100);
      for (int i = 0; i < kPerThread; ++i) {
        metrics.Add("shared.counter");
        metrics.Add("per_thread.counter." + std::to_string(t), 2);
        metrics.Observe("shared.hist", static_cast<int64_t>(rng.NextBelow(1 << 20)));
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(metrics.counter("shared.counter"),
            static_cast<int64_t>(kThreads) * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(metrics.counter("per_thread.counter." + std::to_string(t)),
              2 * static_cast<int64_t>(kPerThread));
  }
  EXPECT_EQ(metrics.histogram("shared.hist").count,
            static_cast<int64_t>(kThreads) * kPerThread);

  std::string error;
  JsonValue::Parse(metrics.DumpJson(), &error);
  EXPECT_TRUE(error.empty()) << error;
}

TEST(ObsPropertyTest, MergeIsOrderIndependent) {
  // Counters and histogram buckets add, gauges take max — all commutative,
  // so merging the same parts in any order yields the same snapshot.
  auto make_part = [](uint64_t seed) {
    MetricsRegistry part;
    Rng rng(seed);
    for (int i = 0; i < 300; ++i) {
      part.Add("c." + std::to_string(rng.NextBelow(5)), 1 + static_cast<int64_t>(rng.NextBelow(9)));
      part.Observe("h." + std::to_string(rng.NextBelow(3)),
                   static_cast<int64_t>(rng.NextBelow(1 << 16)));
      part.Set("g." + std::to_string(rng.NextBelow(2)),
               static_cast<int64_t>(rng.NextBelow(1000)));
    }
    return part.Snapshot();
  };
  MetricsSnapshot a = make_part(1);
  MetricsSnapshot b = make_part(2);
  MetricsSnapshot c = make_part(3);

  MetricsRegistry forward;
  forward.Merge(a);
  forward.Merge(b);
  forward.Merge(c);
  MetricsRegistry backward;
  backward.Merge(c);
  backward.Merge(a);
  backward.Merge(b);
  EXPECT_EQ(forward.Snapshot(), backward.Snapshot());
  EXPECT_EQ(forward.DumpJson(), backward.DumpJson());
}

TEST(ObsPropertyTest, SnapshotRoundTripsThroughJson) {
  MetricsRegistry metrics;
  Rng rng(42);
  for (int i = 0; i < 500; ++i) {
    metrics.Add("counter." + std::to_string(rng.NextBelow(7)));
    metrics.Observe("hist." + std::to_string(rng.NextBelow(4)),
                    rng.NextInRange(-5, 1 << 18));
    metrics.Set("gauge." + std::to_string(rng.NextBelow(3)),
                rng.NextInRange(-100, 100));
  }
  MetricsSnapshot original = metrics.Snapshot();
  std::string text = metrics.DumpJson();

  MetricsSnapshot reloaded;
  std::string error;
  ASSERT_TRUE(ParseMetricsJson(text, &reloaded, &error)) << error;
  EXPECT_EQ(reloaded, original);

  // Restore() overwrites: a dirty registry restored from the snapshot dumps
  // the identical JSON.
  MetricsRegistry dirty;
  dirty.Add("stale.counter", 99);
  dirty.Restore(reloaded);
  EXPECT_EQ(dirty.DumpJson(), text);
}

// --- negative parsing: truncated and version-skewed files -----------------------

TEST(ObsPropertyTest, TraceParseRejectsTruncatedFile) {
  Tracer tracer;
  tracer.Span("explore", "round", 1'000'000, 1'000'000, 0, {ArgInt("round", 1)});
  tracer.Span("explore", "round", 2'000'000, 1'000'000, 0, {ArgInt("round", 2)});
  std::string text = tracer.DumpJsonl();
  // Chop mid-way through the final line, as a crashed writer would leave it.
  std::string truncated = text.substr(0, text.size() - 20);

  std::vector<TraceEvent> out;
  std::string error;
  EXPECT_FALSE(Tracer::ParseJsonl(truncated, &out, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST(ObsPropertyTest, TraceParseRejectsMissingAndUnknownVersion) {
  std::vector<TraceEvent> out;
  std::string error;
  // No header at all.
  EXPECT_FALSE(Tracer::ParseJsonl("{\"ph\":\"i\"}\n", &out, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
  // A version this build does not read.
  error.clear();
  EXPECT_FALSE(Tracer::ParseJsonl(
      "{\"anduril_trace\": 999, \"time_unit\": \"logical\"}\n", &out, &error));
  EXPECT_NE(error.find("999"), std::string::npos) << error;
  // Well-formed header, garbage body.
  error.clear();
  EXPECT_FALSE(Tracer::ParseJsonl(
      "{\"anduril_trace\": 1, \"time_unit\": \"logical\"}\n{\"no_ph\": true}\n", &out,
      &error));
  EXPECT_NE(error.find("ph"), std::string::npos) << error;
}

TEST(ObsPropertyTest, MetricsParseRejectsTruncatedAndUnknownVersion) {
  MetricsRegistry metrics;
  metrics.Add("a.counter", 3);
  metrics.Observe("a.hist", 17);
  std::string text = metrics.DumpJson();

  MetricsSnapshot out;
  std::string error;
  EXPECT_FALSE(ParseMetricsJson(text.substr(0, text.size() / 2), &out, &error));
  EXPECT_FALSE(error.empty());

  error.clear();
  EXPECT_FALSE(ParseMetricsJson("{\"counters\": {}}", &out, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;

  error.clear();
  EXPECT_FALSE(ParseMetricsJson("{\"anduril_metrics\": 999}", &out, &error));
  EXPECT_NE(error.find("999"), std::string::npos) << error;
}

// One tampered value of a dumped file: the first `from` becomes `to`, and the
// parse error must name `named`.
struct Tamper {
  std::string from;
  std::string to;
  std::string named;
};

std::string Tampered(std::string text, const Tamper& tamper) {
  size_t pos = text.find(tamper.from);
  EXPECT_NE(pos, std::string::npos) << tamper.from;
  return pos == std::string::npos ? text : text.replace(pos, tamper.from.size(), tamper.to);
}

// Every integer of a metrics snapshot (also the one a checkpoint embeds) is
// read strictly: a string, a double, a negative count or a bad bucket index
// is an error naming the metric, never a 0 or a dropped bucket that a
// resumed search would carry on with.
TEST(ObsPropertyTest, MetricsParseRejectsMalformedIntegers) {
  MetricsRegistry metrics;
  metrics.Add("a.counter", 3);
  metrics.Set("a.gauge", -2);
  metrics.Observe("a.hist", 1);
  metrics.Observe("a.hist", 16);
  const std::string text = metrics.DumpJson();
  MetricsSnapshot out;
  std::string error;
  ASSERT_TRUE(ParseMetricsJson(text, &out, &error)) << error;

  const std::string hist = "histogram \"a.hist\" ";
  for (const Tamper& tamper : std::vector<Tamper>{
           {"\"anduril_metrics\": 1", "\"anduril_metrics\": \"1\"", "\"anduril_metrics\""},
           {"\"a.counter\": 3", "\"a.counter\": \"3\"", "counter \"a.counter\""},
           {"\"a.counter\": 3", "\"a.counter\": 1.5", "counter \"a.counter\""},
           {"\"a.counter\": 3", "\"a.counter\": -1", "counter \"a.counter\""},
           {"\"a.gauge\": -2", "\"a.gauge\": \"-2\"", "gauge \"a.gauge\""},
           {"\"a.gauge\": -2", "\"a.gauge\": null", "gauge \"a.gauge\""},
           {"\"count\": 2", "\"count\": \"2\"", hist + "\"count\""},
           {"\"count\": 2", "\"count\": -2", hist + "\"count\""},
           {"\"sum\": 17", "\"sum\": 17.0", hist + "\"sum\""},
           {"\"buckets\": {", "\"buckets\": [], \"x\": {", hist + "\"buckets\""},
           {"\"1\": 1", "\"1\": \"1\"", hist + "bucket \"1\""},
           {"\"1\": 1", "\"1\": -1", hist + "bucket \"1\""},
           {"\"1\": 1", "\"x\": 1", hist + "bucket \"x\""},
           {"\"1\": 1", "\"\": 1", hist + "bucket \"\""},
           {"\"1\": 1", "\"1a\": 1", hist + "bucket \"1a\""},
           {"\"1\": 1", "\"-1\": 1", hist + "bucket \"-1\""},
           {"\"1\": 1", "\"65\": 1", hist + "bucket \"65\""},
       }) {
    SCOPED_TRACE(tamper.to);
    error.clear();
    EXPECT_FALSE(ParseMetricsJson(Tampered(text, tamper), &out, &error));
    EXPECT_NE(error.find(tamper.named), std::string::npos) << error;
  }
}

// The trace reader is as strict: times, lanes and wall durations are
// integers >= 0, names are strings, and an arg is a string, bool or integer.
TEST(ObsPropertyTest, TraceParseRejectsMalformedFields) {
  Tracer tracer;
  tracer.Span("explore", "round", 5, 7, 1, {ArgInt("round", 1), ArgStr("outcome", "completed")},
              /*wall_nanos=*/9);
  const std::string text = tracer.DumpJsonl(/*include_wall=*/true);
  std::vector<TraceEvent> out;
  std::string error;
  ASSERT_TRUE(Tracer::ParseJsonl(text, &out, &error)) << error;

  for (const Tamper& tamper : std::vector<Tamper>{
           {"\"anduril_trace\":1", "\"anduril_trace\":\"1\"", "\"anduril_trace\""},
           {"\"ts\":5", "\"ts\":\"5\"", "\"ts\""},
           {"\"ts\":5", "\"ts\":-5", "\"ts\""},
           {"\"dur\":7", "\"dur\":7.5", "\"dur\""},
           {"\"track\":1", "\"track\":\"1\"", "\"track\""},
           {"\"wall_nanos\":9", "\"wall_nanos\":-9", "\"wall_nanos\""},
           {"\"cat\":\"explore\"", "\"cat\":7", "\"cat\""},
           {"\"name\":\"round\"", "\"name\":null", "\"name\""},
           {"\"args\":{", "\"args\":[],\"x\":{", "\"args\""},
           {"\"round\":1", "\"round\":1.5", "arg \"round\""},
           {"\"round\":1", "\"round\":null", "arg \"round\""},
           {"\"round\":1", "\"round\":[1]", "arg \"round\""},
       }) {
    SCOPED_TRACE(tamper.to);
    error.clear();
    EXPECT_FALSE(Tracer::ParseJsonl(Tampered(text, tamper), &out, &error));
    EXPECT_NE(error.find(tamper.named), std::string::npos) << error;
  }
}

TEST(ObsPropertyTest, HistogramBucketsAreBitWidths) {
  EXPECT_EQ(HistogramBucketOf(-5), 0);
  EXPECT_EQ(HistogramBucketOf(0), 0);
  EXPECT_EQ(HistogramBucketOf(1), 1);
  EXPECT_EQ(HistogramBucketOf(2), 2);
  EXPECT_EQ(HistogramBucketOf(3), 2);
  EXPECT_EQ(HistogramBucketOf(4), 3);
  EXPECT_EQ(HistogramBucketOf((1ll << 40) + 1), 41);
  EXPECT_EQ(HistogramBucketOf(std::numeric_limits<int64_t>::max()), 63);
}

}  // namespace
}  // namespace anduril::obs
