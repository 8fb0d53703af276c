// Log entries produced by simulated systems.
//
// These are the paper's "observables": the only runtime information the
// explorer may use as feedback is what a production log file would contain.
// Only the production failure log arrives as text and goes through
// logdiff::ParseLogFile. Simulated run logs are digested straight from their
// entries by DigestLog, which reads exactly the fields a production line
// carries (thread label, level, logger, message) and yields the same
// ParsedLines that rendering the log with FormatLogFile and parsing it back
// would. tests/log_digest_test.cc holds the two paths equal on every
// registered scenario.

#ifndef ANDURIL_SRC_INTERP_LOG_ENTRY_H_
#define ANDURIL_SRC_INTERP_LOG_ENTRY_H_

#include <string>
#include <vector>

#include "src/ir/program.h"
#include "src/ir/types.h"
#include "src/logdiff/parser.h"

namespace anduril::interp {

struct LogEntry {
  int64_t time_ms = 0;     // simulated time
  int64_t log_clock = 0;   // index in the run's combined log stream
  std::string node;
  std::string thread;      // thread name without node prefix
  ir::LogLevel level = ir::LogLevel::kInfo;
  std::string logger;
  std::string message;     // fully rendered
  ir::LogTemplateId tmpl = ir::kInvalidId;   // kInvalidId for builtin messages
  ir::GlobalStmt source;                     // log stmt; invalid for builtins
  ir::MethodId uncaught_method = ir::kInvalidId;  // set for uncaught-exception entries

  // "node/thread" — globally unique thread label used for per-thread diffing.
  std::string FullThreadName() const { return node + "/" + thread; }
};

// Renders an entry as one production-style log line:
//   "10:00:01,234 [node/thread] LEVEL logger - message"
std::string FormatLogLine(const LogEntry& entry);

// Renders a whole run log as a log file body.
std::string FormatLogFile(const std::vector<LogEntry>& entries);

// The lines logdiff::ParseLogFile(FormatLogFile(entries)) would return, field
// for field (index, thread, level, logger, message, key), built from the
// entries without rendering or parsing text. Never reads `tmpl` or `source`.
// An entry whose rendered line would not parse back into its own fields (a
// newline or NUL anywhere, ']' in the thread label, " - " inside the logger
// or " -" at its end, whitespace the parser trims off the logger or the
// message, a blank message) is rendered and parsed on its own instead.
// Overwrites *out; reusing one ParsedLog across calls reuses its strings.
void DigestLog(const std::vector<LogEntry>& entries, logdiff::ParsedLog* out);
logdiff::ParsedLog DigestLog(const std::vector<LogEntry>& entries);

}  // namespace anduril::interp

#endif  // ANDURIL_SRC_INTERP_LOG_ENTRY_H_
