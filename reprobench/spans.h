// In-memory spans for the benchmark's traced pass.
//
// The traced pass wraps a span around every call it makes into one of the
// program's modules. A span is named "<layer>.<what>"; the layer is the text
// before the first '.', and a name without a '.' marks a root span (one
// reproduction, or one service drain). Spans stay in memory until the run
// ends; self times and per-layer totals are derived from them afterwards.

#ifndef REPROBENCH_SPANS_H_
#define REPROBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace reprobench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // -1 for a root span
  int32_t search = -1;  // shared by every span of one reproduction
  // Ran on a pool thread next to its siblings. The parent's wall time already
  // covers it, so it does not count against the parent's self time.
  bool concurrent = false;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

// Thread-safe. Begin/End nest spans on the driving thread; Add records a span
// from any thread under an explicit parent.
class SpanRecorder {
 public:
  int32_t Begin(const std::string& name);
  void End(int32_t id);
  int32_t Add(const std::string& name, int64_t start_ns, int64_t end_ns, int32_t parent,
              bool concurrent);
  void SetEnd(int32_t id, int64_t end_ns);
  void set_search(int32_t search);

  // Call only once every thread has stopped recording.
  const std::vector<Span>& spans() const { return spans_; }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  int32_t search_ = -1;
};

// Keeps a span open for its own lifetime; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), id_(recorder != nullptr ? recorder->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int32_t id_;
};

struct SpanTotals {
  int64_t count = 0;
  int64_t total_ns = 0;  // summed durations
  int64_t self_ns = 0;   // summed self times
};

struct SpanReport {
  std::map<std::string, SpanTotals> by_name;
  // Self time on the driving thread's timeline, by layer. These and the roots'
  // own self time add up to root_ns exactly.
  std::map<std::string, int64_t> layer_self_ns;
  int64_t root_ns = 0;       // summed root durations: the traced end-to-end time
  int64_t root_self_ns = 0;  // the part of it no named layer covers
  // The largest stretch of root time no child covers, summed over roots and
  // named by the spans on either side of it.
  std::string largest_gap;
  int64_t largest_gap_ns = 0;
};

// Self time of a span: its duration minus the durations of its children that
// are not concurrent (those run one after another on the parent's thread).
SpanReport Summarize(const std::vector<Span>& spans);

}  // namespace reprobench

#endif  // REPROBENCH_SPANS_H_
