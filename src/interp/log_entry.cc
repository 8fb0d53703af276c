#include "src/interp/log_entry.h"

#include "src/util/strings.h"

namespace anduril::interp {

std::string FormatLogLine(const LogEntry& entry) {
  // Simulated wall clock starts at 10:00:00.000.
  int64_t total_ms = entry.time_ms;
  int64_t ms = total_ms % 1000;
  int64_t secs = total_ms / 1000;
  int64_t hours = 10 + secs / 3600;
  int64_t mins = (secs / 60) % 60;
  secs %= 60;
  return StrFormat("%02lld:%02lld:%02lld,%03lld [%s] %s %s - %s",
                   static_cast<long long>(hours), static_cast<long long>(mins),
                   static_cast<long long>(secs), static_cast<long long>(ms),
                   entry.FullThreadName().c_str(), ir::LogLevelName(entry.level),
                   entry.logger.c_str(), entry.message.c_str());
}

std::string FormatLogFile(const std::vector<LogEntry>& entries) {
  std::string out;
  for (const LogEntry& entry : entries) {
    out += FormatLogLine(entry);
    out.push_back('\n');
  }
  return out;
}

namespace {

// The characters ParseLogFile trims off a line and off the logger.
bool IsTrimmed(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }

// True when ParseLogFile reads FormatLogLine(entry) back as exactly one line
// carrying the entry's own thread label, logger and message. The text ends
// each field at the first ']' (thread label) or " - " (logger), trims the
// logger and the whole line, splits lines at '\n', and StrFormat stops
// every field at a NUL.
bool RoundTrips(const LogEntry& entry) {
  for (const std::string* field : {&entry.node, &entry.thread, &entry.logger, &entry.message}) {
    if (field->find('\n') != std::string::npos || field->find('\0') != std::string::npos) {
      return false;
    }
  }
  if (entry.node.find(']') != std::string::npos || entry.thread.find(']') != std::string::npos) {
    return false;
  }
  const std::string& logger = entry.logger;
  if (logger.find(" - ") != std::string::npos || logger.ends_with(" -") ||
      (!logger.empty() && (IsTrimmed(logger.front()) || IsTrimmed(logger.back())))) {
    return false;
  }
  // A blank message leaves the line ending in " -", with no separator left.
  return !entry.message.empty() && !IsTrimmed(entry.message.back());
}

}  // namespace

void DigestLog(const std::vector<LogEntry>& entries, logdiff::ParsedLog* out) {
  std::vector<logdiff::ParsedLine>& lines = out->lines;
  size_t count = 0;
  auto next_line = [&]() -> logdiff::ParsedLine& {
    if (count == lines.size()) {
      lines.emplace_back();
    }
    return lines[count++];
  };
  for (const LogEntry& entry : entries) {
    if (!RoundTrips(entry)) {
      for (logdiff::ParsedLine& parsed : logdiff::ParseLogFile(FormatLogLine(entry)).lines) {
        logdiff::ParsedLine& line = next_line();
        line = std::move(parsed);
        line.index = static_cast<int64_t>(count - 1);
      }
      continue;
    }
    logdiff::ParsedLine& line = next_line();
    line.index = static_cast<int64_t>(count - 1);
    line.thread.assign(entry.node);
    line.thread.push_back('/');
    line.thread.append(entry.thread);
    line.level.assign(ir::LogLevelName(entry.level));
    line.logger.assign(entry.logger);
    line.message.assign(entry.message);
    logdiff::SetObservableKey(line.level, line.logger, line.message, &line.key);
  }
  lines.resize(count);
}

logdiff::ParsedLog DigestLog(const std::vector<LogEntry>& entries) {
  logdiff::ParsedLog log;
  DigestLog(entries, &log);
  return log;
}

}  // namespace anduril::interp
