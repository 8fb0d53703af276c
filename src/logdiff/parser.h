// Production-log parsing.
//
// The failure log from "production" reaches the explorer as a log *file*
// (text), mirroring the paper's toolchain (its parser is a separate Scala
// component with per-system format configs, §7). Lines are parsed into
// structured entries and sanitized so that timestamps and other volatile
// values do not make every line unique. Simulated run logs skip the text:
// interp::DigestLog builds the same ParsedLines from their entries.

#ifndef ANDURIL_SRC_LOGDIFF_PARSER_H_
#define ANDURIL_SRC_LOGDIFF_PARSER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace anduril::logdiff {

struct ParsedLine {
  int64_t index = 0;  // global position in the file (log clock)
  std::string thread;
  std::string level;
  std::string logger;
  std::string message;
  // "LEVEL|logger|sanitized(message)" — the observable identity key.
  std::string key;
};

struct ParsedLog {
  std::vector<ParsedLine> lines;
};

// Replaces every digit run with '#'. Timestamps are already stripped by the
// parser; this removes counters, sizes, ports, ids.
std::string Sanitize(const std::string& message);

// Overwrites *key with the observable identity key
// "LEVEL|logger|Sanitize(message)", reusing its capacity. The one definition
// shared by ParseLogFile, the structured run-log digest (interp::DigestLog)
// and the static template mapper (analysis::ObservableMapper), so the three
// can never disagree on what a key looks like.
void SetObservableKey(std::string_view level, std::string_view logger, std::string_view message,
                      std::string* key);

// Parses a log file body in the one format interp::FormatLogLine writes:
// "<timestamp> [thread] LEVEL logger - message". Unparseable lines are
// skipped (production logs contain stack-trace continuation lines etc.).
ParsedLog ParseLogFile(const std::string& text);

}  // namespace anduril::logdiff

#endif  // ANDURIL_SRC_LOGDIFF_PARSER_H_
