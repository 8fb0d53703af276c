#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <limits>

#include "src/util/strings.h"

namespace anduril::obs {

int HistogramBucketOf(int64_t value) {
  if (value <= 0) {
    return 0;
  }
  return std::bit_width(static_cast<uint64_t>(value));
}

void MetricsRegistry::Add(const std::string& name, int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

void MetricsRegistry::Set(const std::string& name, int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

void MetricsRegistry::Observe(const std::string& name, int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  Histogram& histogram = histograms_[name];
  ++histogram.count;
  histogram.sum += value;
  ++histogram.buckets[static_cast<size_t>(HistogramBucketOf(value))];
}

int64_t MetricsRegistry::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

int64_t MetricsRegistry::gauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

MetricsSnapshot::Histogram MetricsRegistry::histogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot::Histogram out;
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    return out;
  }
  out.count = it->second.count;
  out.sum = it->second.sum;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    if (it->second.buckets[static_cast<size_t>(b)] != 0) {
      out.buckets.emplace_back(b, it->second.buckets[static_cast<size_t>(b)]);
    }
  }
  return out;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, value] : counters_) {
    snapshot.counters.emplace_back(name, value);
  }
  for (const auto& [name, value] : gauges_) {
    snapshot.gauges.emplace_back(name, value);
  }
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::Histogram out;
    out.count = histogram.count;
    out.sum = histogram.sum;
    for (int b = 0; b < kHistogramBuckets; ++b) {
      if (histogram.buckets[static_cast<size_t>(b)] != 0) {
        out.buckets.emplace_back(b, histogram.buckets[static_cast<size_t>(b)]);
      }
    }
    snapshot.histograms.emplace_back(name, std::move(out));
  }
  return snapshot;
}

void MetricsRegistry::Restore(const MetricsSnapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  for (const auto& [name, value] : snapshot.counters) {
    counters_[name] = value;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    gauges_[name] = value;
  }
  for (const auto& [name, in] : snapshot.histograms) {
    Histogram histogram;
    histogram.count = in.count;
    histogram.sum = in.sum;
    for (const auto& [bucket, count] : in.buckets) {
      if (bucket >= 0 && bucket < kHistogramBuckets) {
        histogram.buckets[static_cast<size_t>(bucket)] = count;
      }
    }
    histograms_[name] = histogram;
  }
}

void MetricsRegistry::Merge(const MetricsSnapshot& other) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, value] : other.counters) {
    counters_[name] += value;
  }
  for (const auto& [name, value] : other.gauges) {
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
      gauges_[name] = value;
    } else {
      it->second = std::max(it->second, value);
    }
  }
  for (const auto& [name, in] : other.histograms) {
    Histogram& histogram = histograms_[name];
    histogram.count += in.count;
    histogram.sum += in.sum;
    for (const auto& [bucket, count] : in.buckets) {
      if (bucket >= 0 && bucket < kHistogramBuckets) {
        histogram.buckets[static_cast<size_t>(bucket)] += count;
      }
    }
  }
}

void MetricsRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

JsonValue MetricsSnapshotToJson(const MetricsSnapshot& snapshot) {
  JsonValue root = JsonValue::Object();
  JsonValue counters = JsonValue::Object();
  for (const auto& [name, value] : snapshot.counters) {
    counters.Set(name, JsonValue::Int(value));
  }
  root.Set("counters", std::move(counters));
  JsonValue gauges = JsonValue::Object();
  for (const auto& [name, value] : snapshot.gauges) {
    gauges.Set(name, JsonValue::Int(value));
  }
  root.Set("gauges", std::move(gauges));
  JsonValue histograms = JsonValue::Object();
  for (const auto& [name, histogram] : snapshot.histograms) {
    JsonValue entry = JsonValue::Object();
    entry.Set("count", JsonValue::Int(histogram.count));
    entry.Set("sum", JsonValue::Int(histogram.sum));
    JsonValue buckets = JsonValue::Object();
    for (const auto& [bucket, count] : histogram.buckets) {
      buckets.Set(std::to_string(bucket), JsonValue::Int(count));
    }
    entry.Set("buckets", std::move(buckets));
    histograms.Set(name, std::move(entry));
  }
  root.Set("histograms", std::move(histograms));
  return root;
}

bool MetricsSnapshotFromJson(const JsonValue& value, MetricsSnapshot* out, std::string* error) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // Object member `key` of `parent` (an absent one reads as empty), or null
  // with *error set when it is not an object. `owner` names its metric.
  auto section = [error](const JsonValue& parent, const std::string& key,
                         const std::string& owner) -> const JsonValue* {
    static const JsonValue kEmpty = JsonValue::Object();
    const JsonValue* found = parent.Find(key);
    if (found != nullptr && found->type() != JsonValue::Type::kObject) {
      *error = "metrics " + owner + "\"" + key + "\" is not an object";
      return nullptr;
    }
    return found != nullptr ? found : &kEmpty;
  };
  if (value.type() != JsonValue::Type::kObject) {
    *error = "metrics snapshot is not a JSON object";
    return false;
  }
  *out = MetricsSnapshot{};
  const JsonValue* counters = section(value, "counters", "");
  const JsonValue* gauges = section(value, "gauges", "");
  const JsonValue* histograms = section(value, "histograms", "");
  if (counters == nullptr || gauges == nullptr || histograms == nullptr) {
    return false;
  }
  // Every value is a JSON integer, and every count is >= 0.
  for (const auto& [name, entry] : counters->members()) {
    if (!ReadInt(entry, name, 0, kMax, &out->counters.emplace_back(name, 0).second, error)) {
      *error = "metrics counter " + *error;
      return false;
    }
  }
  for (const auto& [name, entry] : gauges->members()) {
    if (!ReadInt(entry, name, kMin, kMax, &out->gauges.emplace_back(name, 0).second, error)) {
      *error = "metrics gauge " + *error;
      return false;
    }
  }
  for (const auto& [name, entry] : histograms->members()) {
    const std::string owner = "histogram \"" + name + "\" ";
    if (entry.type() != JsonValue::Type::kObject) {
      *error = "metrics " + owner + "is not an object";
      return false;
    }
    MetricsSnapshot::Histogram& histogram =
        out->histograms.emplace_back(name, MetricsSnapshot::Histogram{}).second;
    if (!ReadIntMember(entry, "count", 0, kMax, &histogram.count, error) ||
        !ReadIntMember(entry, "sum", kMin, kMax, &histogram.sum, error)) {
      *error = "metrics " + owner + *error;
      return false;
    }
    const JsonValue* buckets = section(entry, "buckets", owner);
    if (buckets == nullptr) {
      return false;
    }
    for (const auto& [key, count] : buckets->members()) {
      // The key is a bucket index: a whole decimal in [0, kHistogramBuckets).
      unsigned bucket = 0;
      const char* end = key.data() + key.size();
      if (auto [ptr, ec] = std::from_chars(key.data(), end, bucket);
          ec != std::errc() || ptr != end || bucket >= kHistogramBuckets) {
        *error = StrFormat("metrics %sbucket \"%s\" is not a whole number in [0, %d)",
                           owner.c_str(), key.c_str(), kHistogramBuckets);
        return false;
      }
      int64_t& in_bucket = histogram.buckets.emplace_back(static_cast<int>(bucket), 0).second;
      if (!ReadInt(count, key, 0, kMax, &in_bucket, error)) {
        *error = "metrics " + owner + "bucket " + *error;
        return false;
      }
    }
  }
  error->clear();
  return true;
}

std::string MetricsRegistry::DumpJson() const {
  MetricsSnapshot snapshot = Snapshot();
  JsonValue body = MetricsSnapshotToJson(snapshot);
  JsonValue root = JsonValue::Object();
  root.Set("anduril_metrics", JsonValue::Int(kMetricsFormatVersion));
  for (auto& [key, value] : body.members()) {
    root.Set(key, value);
  }
  return root.Dump();
}

bool ParseMetricsJson(const std::string& text, MetricsSnapshot* out, std::string* error) {
  std::string parse_error;
  JsonValue root = JsonValue::Parse(text, &parse_error);
  if (!parse_error.empty()) {
    *error = "metrics parse error: " + parse_error;
    return false;
  }
  if (root.type() != JsonValue::Type::kObject) {
    *error = "metrics file is not a JSON object";
    return false;
  }
  const JsonValue* version_field = root.Find("anduril_metrics");
  if (version_field == nullptr) {
    *error = "metrics file has no anduril_metrics version field";
    return false;
  }
  int64_t version = 0;
  if (!ReadInt(*version_field, "anduril_metrics", 0, std::numeric_limits<int64_t>::max(),
               &version, error)) {
    *error = "metrics file " + *error;
    return false;
  }
  if (version != kMetricsFormatVersion) {
    *error = StrFormat("unsupported metrics version %lld (this build reads only version %d)",
                       static_cast<long long>(version), kMetricsFormatVersion);
    return false;
  }
  return MetricsSnapshotFromJson(root, out, error);
}

}  // namespace anduril::obs
