#include "src/logdiff/parser.h"

#include "src/util/strings.h"

namespace anduril::logdiff {

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// Appends `message` with every digit run replaced by '#', copying the text
// between digit runs in bulk.
void AppendSanitized(std::string_view message, std::string* out) {
  size_t pos = 0;
  while (pos < message.size()) {
    size_t digits = pos;
    while (digits < message.size() && !IsDigit(message[digits])) {
      ++digits;
    }
    out->append(message.substr(pos, digits - pos));
    if (digits == message.size()) {
      return;
    }
    out->push_back('#');
    pos = digits;
    while (pos < message.size() && IsDigit(message[pos])) {
      ++pos;
    }
  }
}

}  // namespace

std::string Sanitize(const std::string& message) {
  std::string out;
  out.reserve(message.size());
  AppendSanitized(message, &out);
  return out;
}

void SetObservableKey(std::string_view level, std::string_view logger, std::string_view message,
                      std::string* key) {
  key->clear();
  key->reserve(level.size() + logger.size() + message.size() + 2);
  key->append(level);
  key->push_back('|');
  key->append(logger);
  key->push_back('|');
  AppendSanitized(message, key);
}

ParsedLog ParseLogFile(const std::string& text) {
  constexpr std::string_view kMessageSeparator = " - ";
  ParsedLog log;
  for (std::string_view raw : Split(text, '\n')) {
    std::string_view line = Trim(raw);
    if (line.empty()) {
      continue;
    }
    // Skip the timestamp token.
    size_t pos = line.find(' ');
    if (pos == std::string_view::npos || ++pos >= line.size() || line[pos] != '[') {
      continue;
    }
    size_t thread_end = line.find(']', pos);
    if (thread_end == std::string_view::npos) {
      continue;
    }
    std::string thread(line.substr(pos + 1, thread_end - pos - 1));
    pos = thread_end + 1;
    while (pos < line.size() && line[pos] == ' ') {
      ++pos;
    }
    size_t level_end = line.find(' ', pos);
    if (level_end == std::string_view::npos) {
      continue;
    }
    std::string level(line.substr(pos, level_end - pos));
    pos = level_end + 1;
    size_t sep = line.find(kMessageSeparator, pos);
    if (sep == std::string_view::npos) {
      continue;
    }
    std::string logger(Trim(line.substr(pos, sep - pos)));
    std::string message(line.substr(sep + kMessageSeparator.size()));

    ParsedLine parsed;
    parsed.index = static_cast<int64_t>(log.lines.size());
    parsed.thread = std::move(thread);
    parsed.level = std::move(level);
    parsed.logger = std::move(logger);
    SetObservableKey(parsed.level, parsed.logger, message, &parsed.key);
    parsed.message = std::move(message);
    log.lines.push_back(std::move(parsed));
  }
  return log;
}

}  // namespace anduril::logdiff
