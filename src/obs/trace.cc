#include "src/obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <tuple>
#include <utility>

#include "src/util/json.h"
#include "src/util/strings.h"

namespace anduril::obs {
namespace {

void AppendArgs(std::string* out, const std::vector<TraceArg>& args) {
  out->append(",\"args\":{");
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) {
      out->push_back(',');
    }
    AppendJsonString(args[i].key, out);
    out->push_back(':');
    out->append(args[i].value);
  }
  out->push_back('}');
}

std::string RenderedArgs(const TraceEvent& event) {
  std::string out;
  AppendArgs(&out, event.args);
  return out;
}

// Total deterministic order: start time, then lane, then enclosing spans
// before enclosed ones (longer duration first), then names.
bool EventOrder(const TraceEvent& a, const TraceEvent& b) {
  return std::make_tuple(a.ts, a.track, -a.dur, a.kind, a.category, a.name, RenderedArgs(a)) <
         std::make_tuple(b.ts, b.track, -b.dur, b.kind, b.category, b.name, RenderedArgs(b));
}

void AppendEventBody(std::string* out, const TraceEvent& event, bool include_wall) {
  out->append("\"ph\":");
  out->append(event.kind == TraceEvent::Kind::kSpan ? "\"X\"" : "\"i\"");
  out->append(",\"cat\":");
  AppendJsonString(event.category, out);
  out->append(",\"name\":");
  AppendJsonString(event.name, out);
  out->append(",\"ts\":");
  out->append(std::to_string(event.ts));
  if (event.kind == TraceEvent::Kind::kSpan) {
    out->append(",\"dur\":");
    out->append(std::to_string(event.dur));
  }
  if (include_wall && event.wall_nanos > 0) {
    out->append(",\"wall_nanos\":");
    out->append(std::to_string(event.wall_nanos));
  }
}

}  // namespace

TraceArg ArgStr(std::string key, const std::string& value) {
  std::string rendered;
  AppendJsonString(value, &rendered);
  return TraceArg{std::move(key), std::move(rendered)};
}

TraceArg ArgInt(std::string key, int64_t value) {
  return TraceArg{std::move(key), std::to_string(value)};
}

TraceArg ArgUint(std::string key, uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  return TraceArg{std::move(key), buf};
}

TraceArg ArgBool(std::string key, bool value) {
  return TraceArg{std::move(key), value ? "true" : "false"};
}

void Tracer::Span(std::string category, std::string name, int64_t ts, int64_t dur,
                  int64_t track, std::vector<TraceArg> args, int64_t wall_nanos) {
  TraceEvent event;
  event.kind = TraceEvent::Kind::kSpan;
  event.category = std::move(category);
  event.name = std::move(name);
  event.ts = ts;
  event.dur = dur;
  event.track = track;
  event.wall_nanos = wall_nanos;
  event.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

void Tracer::Instant(std::string category, std::string name, int64_t ts, int64_t track,
                     std::vector<TraceArg> args) {
  TraceEvent event;
  event.kind = TraceEvent::Kind::kInstant;
  event.category = std::move(category);
  event.name = std::move(name);
  event.ts = ts;
  event.track = track;
  event.args = std::move(args);
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> Tracer::Events() const {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events = events_;
  }
  std::stable_sort(events.begin(), events.end(), EventOrder);
  return events;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

std::string Tracer::DumpChromeTrace(bool include_wall) const {
  std::vector<TraceEvent> events = Events();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    out.push_back('{');
    AppendEventBody(&out, event, include_wall);
    if (event.kind == TraceEvent::Kind::kInstant) {
      out.append(",\"s\":\"t\"");
    }
    out.append(",\"pid\":0,\"tid\":");
    out.append(std::to_string(event.track));
    AppendArgs(&out, event.args);
    out.push_back('}');
    if (i + 1 < events.size()) {
      out.push_back(',');
    }
    out.push_back('\n');
  }
  out.append("]}\n");
  return out;
}

std::string Tracer::DumpJsonl(bool include_wall) const {
  std::vector<TraceEvent> events = Events();
  std::string out = StrFormat("{\"anduril_trace\":%d,\"time_unit\":\"logical\"}\n",
                              kTraceFormatVersion);
  for (const TraceEvent& event : events) {
    out.push_back('{');
    AppendEventBody(&out, event, include_wall);
    out.append(",\"track\":");
    out.append(std::to_string(event.track));
    AppendArgs(&out, event.args);
    out.append("}\n");
  }
  return out;
}

bool Tracer::ParseJsonl(const std::string& text, std::vector<TraceEvent>* out,
                        std::string* error) {
  constexpr int64_t kMaxInt64 = std::numeric_limits<int64_t>::max();
  out->clear();
  size_t pos = 0;
  size_t line_number = 0;
  bool saw_header = false;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    bool truncated = end == std::string::npos;
    std::string line = text.substr(pos, truncated ? std::string::npos : end - pos);
    pos = truncated ? text.size() : end + 1;
    ++line_number;
    if (line.empty()) {
      continue;
    }
    std::string parse_error;
    JsonValue value = JsonValue::Parse(line, &parse_error);
    if (!parse_error.empty() || value.type() != JsonValue::Type::kObject) {
      *error = StrFormat("trace line %zu is not a JSON object%s%s", line_number,
                         truncated ? " (file truncated mid-line?)" : "",
                         parse_error.empty() ? "" : (": " + parse_error).c_str());
      return false;
    }
    // Every later failure names the line; ReadInt's message names the field.
    auto fail = [&](const std::string& what) {
      *error = StrFormat("trace line %zu: %s", line_number, what.c_str());
      return false;
    };
    if (!saw_header) {
      const JsonValue* version_field = value.Find("anduril_trace");
      if (version_field == nullptr) {
        *error = "trace file has no anduril_trace version header";
        return false;
      }
      int64_t version = 0;
      if (!ReadInt(*version_field, "anduril_trace", 0, kMaxInt64, &version, error)) {
        return fail(*error);
      }
      if (version != kTraceFormatVersion) {
        *error = StrFormat("unsupported trace version %lld (this build reads only version %d)",
                           static_cast<long long>(version), kTraceFormatVersion);
        return false;
      }
      saw_header = true;
      continue;
    }
    const JsonValue* ph = value.Find("ph");
    if (ph == nullptr || ph->type() != JsonValue::Type::kString) {
      *error = StrFormat("trace line %zu has no \"ph\" field", line_number);
      return false;
    }
    TraceEvent event;
    if (ph->as_string() == "X") {
      event.kind = TraceEvent::Kind::kSpan;
    } else if (ph->as_string() == "i") {
      event.kind = TraceEvent::Kind::kInstant;
    } else {
      *error = StrFormat("trace line %zu has unknown phase \"%s\"", line_number,
                         ph->as_string().c_str());
      return false;
    }
    for (auto [key, into] : {std::pair{"cat", &event.category}, std::pair{"name", &event.name}}) {
      if (const JsonValue* field = value.Find(key); field != nullptr) {
        if (field->type() != JsonValue::Type::kString) {
          return fail(StrFormat("\"%s\" is not a string", key));
        }
        *into = field->as_string();
      }
    }
    // Logical times, lanes and wall durations are integers >= 0.
    for (auto [key, into] : {std::pair{"ts", &event.ts}, std::pair{"dur", &event.dur},
                             std::pair{"track", &event.track},
                             std::pair{"wall_nanos", &event.wall_nanos}}) {
      if (!ReadIntMember(value, key, 0, kMaxInt64, into, error)) {
        return fail(*error);
      }
    }
    if (const JsonValue* args = value.Find("args"); args != nullptr) {
      if (args->type() != JsonValue::Type::kObject) {
        return fail("\"args\" is not an object");
      }
      for (const auto& [key, arg] : args->members()) {
        std::string rendered;
        switch (arg.type()) {
          case JsonValue::Type::kString:
            AppendJsonString(arg.as_string(), &rendered);
            break;
          case JsonValue::Type::kBool:
            rendered = arg.as_bool() ? "true" : "false";
            break;
          case JsonValue::Type::kInt:
            rendered = std::to_string(arg.as_int());
            break;
          default:
            return fail("arg \"" + key + "\" is not a string, bool or integer");
        }
        event.args.push_back(TraceArg{key, std::move(rendered)});
      }
    }
    out->push_back(std::move(event));
  }
  if (!saw_header) {
    *error = "trace file is empty (no version header)";
    return false;
  }
  error->clear();
  return true;
}

}  // namespace anduril::obs
