#include "reprobench/spans.h"

#include <algorithm>
#include <utility>

namespace reprobench {

int32_t SpanRecorder::Begin(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.search = search_;
  spans_.push_back(std::move(span));
  const int32_t id = static_cast<int32_t>(spans_.size()) - 1;
  open_.push_back(id);
  spans_.back().start_ns = NowNs();
  return id;
}

void SpanRecorder::End(int32_t id) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
  if (!open_.empty() && open_.back() == id) {
    open_.pop_back();
  }
}

int32_t SpanRecorder::Add(const std::string& name, int64_t start_ns, int64_t end_ns,
                          int32_t parent, bool concurrent) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = parent;
  span.search = search_;
  span.concurrent = concurrent;
  spans_.push_back(std::move(span));
  return static_cast<int32_t>(spans_.size()) - 1;
}

void SpanRecorder::SetEnd(int32_t id, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = end_ns;
}

void SpanRecorder::set_search(int32_t search) {
  std::lock_guard<std::mutex> lock(mu_);
  search_ = search;
}

SpanReport Summarize(const std::vector<Span>& spans) {
  SpanReport report;
  const size_t n = spans.size();
  std::vector<int64_t> child_ns(n, 0);
  std::vector<std::vector<size_t>> children(n);
  // A parent is always recorded before its children, so one forward pass
  // settles which spans lie on the driving thread's timeline.
  std::vector<bool> on_timeline(n, false);
  for (size_t i = 0; i < n; ++i) {
    const Span& span = spans[i];
    if (span.parent < 0) {
      on_timeline[i] = true;
      continue;
    }
    const size_t parent = static_cast<size_t>(span.parent);
    if (!span.concurrent) {
      child_ns[parent] += span.duration_ns();
      children[parent].push_back(i);
    }
    on_timeline[i] = !span.concurrent && on_timeline[parent];
  }

  std::map<std::string, int64_t> gaps;
  for (size_t i = 0; i < n; ++i) {
    const Span& span = spans[i];
    const int64_t self = span.duration_ns() - child_ns[i];
    SpanTotals& totals = report.by_name[span.name];
    ++totals.count;
    totals.total_ns += span.duration_ns();
    totals.self_ns += self;
    if (!on_timeline[i]) {
      continue;
    }
    const size_t dot = span.name.find('.');
    if (dot != std::string::npos) {
      report.layer_self_ns[span.name.substr(0, dot)] += self;
      continue;
    }
    report.root_ns += span.duration_ns();
    report.root_self_ns += self;
    std::vector<size_t> ordered = children[i];
    std::sort(ordered.begin(), ordered.end(),
              [&](size_t a, size_t b) { return spans[a].start_ns < spans[b].start_ns; });
    int64_t cursor = span.start_ns;
    std::string before = "start";
    for (size_t child : ordered) {
      gaps[before + " .. " + spans[child].name] += spans[child].start_ns - cursor;
      cursor = spans[child].end_ns;
      before = spans[child].name;
    }
    gaps[before + " .. end"] += span.end_ns - cursor;
  }
  for (const auto& [name, ns] : gaps) {
    if (ns > report.largest_gap_ns) {
      report.largest_gap_ns = ns;
      report.largest_gap = name;
    }
  }
  return report;
}

}  // namespace reprobench
