// Metrics registry for the exploration pipeline: counters, gauges, and
// power-of-two-bucket histograms, keyed by dotted names ("explore.rounds",
// "fault.injected.crash", "net.dropped_by_fault", ...).
//
// Determinism contract: every value recorded through this registry is a
// *logical* quantity (round counts, injection tallies, simulated-time
// histograms) — never a wall-clock reading. Counter addition and histogram
// accumulation are commutative, so a fixed-seed exploration produces the
// byte-identical DumpJson() at any thread count regardless of the order in
// which worker threads land their updates. The per-outcome round tally lives
// here ("explore.outcome.<name>", one per round); each round's own outcome
// and its wall-clock times are in the explorer's RoundRecord.
//
// Thread safety: all mutators and readers take an internal mutex; one
// registry may be shared by every concurrent simulation of a round. The
// explorer holds a registry pointer that is null when no sink is attached,
// so the disabled path costs a single pointer test per hook.

#ifndef ANDURIL_SRC_OBS_METRICS_H_
#define ANDURIL_SRC_OBS_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/json.h"

namespace anduril::obs {

// Histograms bucket by bit width: bucket b counts values v with
// 2^(b-1) <= v < 2^b (bucket 0 counts v <= 0). 64 buckets cover int64.
inline constexpr int kHistogramBuckets = 65;

int HistogramBucketOf(int64_t value);

// A point-in-time copy of a registry, ordered by name (maps iterate
// sorted), suitable for equality comparison and (de)serialization.
struct MetricsSnapshot {
  struct Histogram {
    int64_t count = 0;
    int64_t sum = 0;
    // (bucket index, count) pairs for the non-empty buckets, ascending.
    std::vector<std::pair<int, int64_t>> buckets;

    friend bool operator==(const Histogram&, const Histogram&) = default;
  };

  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, Histogram>> histograms;

  bool empty() const { return counters.empty() && gauges.empty() && histograms.empty(); }
  friend bool operator==(const MetricsSnapshot&, const MetricsSnapshot&) = default;
};

// Snapshot <-> JSON object (the "counters"/"gauges"/"histograms" body shared
// by DumpJson and the checkpoint's embedded snapshot).
JsonValue MetricsSnapshotToJson(const MetricsSnapshot& snapshot);
bool MetricsSnapshotFromJson(const JsonValue& value, MetricsSnapshot* out, std::string* error);

class MetricsRegistry {
 public:
  // Counter: monotone accumulation. Creates the key on first use.
  void Add(const std::string& name, int64_t delta = 1);
  // Gauge: last write wins. Gauges must only be set from deterministic
  // single-threaded code (the explorer round loop), never from workers.
  void Set(const std::string& name, int64_t value);
  // Histogram observation.
  void Observe(const std::string& name, int64_t value);

  int64_t counter(const std::string& name) const;
  int64_t gauge(const std::string& name) const;
  MetricsSnapshot::Histogram histogram(const std::string& name) const;

  MetricsSnapshot Snapshot() const;
  // Replaces the registry's entire state with `snapshot` (checkpoint
  // resume: the snapshot already accounts for everything this process
  // re-recorded while rebuilding its context).
  void Restore(const MetricsSnapshot& snapshot);
  // Folds `other` in: counters and histograms add elementwise (order
  // independent), gauges take the elementwise max (also order independent).
  void Merge(const MetricsSnapshot& other);
  void Clear();

  // Versioned dump: {"anduril_metrics": 1, "counters": {...}, ...}.
  std::string DumpJson() const;

 private:
  struct Histogram {
    int64_t count = 0;
    int64_t sum = 0;
    std::array<int64_t, kHistogramBuckets> buckets{};
  };

  mutable std::mutex mu_;
  std::map<std::string, int64_t> counters_;
  std::map<std::string, int64_t> gauges_;
  std::map<std::string, Histogram> histograms_;
};

inline constexpr int kMetricsFormatVersion = 1;

// Parses a DumpJson() document. Returns false (and fills *error) on
// malformed JSON, a missing "anduril_metrics" field, or an unsupported
// version.
bool ParseMetricsJson(const std::string& text, MetricsSnapshot* out, std::string* error);

}  // namespace anduril::obs

#endif  // ANDURIL_SRC_OBS_METRICS_H_
