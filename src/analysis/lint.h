// Lint pass suite over the IR: structural checks that catch malformed
// scenarios before they reach the simulator or skew the causal graph. Built
// on the per-method CFGs (cfg.h, reachability only), the exception-flow
// summaries, and the program indexes.
//
// Pass catalogue (pass name → what it flags):
//   unreachable-stmt        statements no CFG path from the method entry
//                           reaches (code after Return/Throw, after a
//                           while-true with no break, ...)        [error]
//   shadowed-catch          a catch clause fully covered by an earlier
//                           clause of the same TryCatch            [error]
//   impossible-catch        a clause no exception raised in its try block
//                           can reach (per ExceptionFlow)          [warning]
//   write-only-var          variables assigned or signalled but never read
//                           by any expression or condition         [warning]
//   dead-fault-site         fault sites in methods unreachable from any
//                           cluster entry (cold-module dead weight) [info]
//   inert-log               log statements with no causally-prior fault
//                           site: observables no injection can flip [info]
//   unregistered-send-target a Send whose target node matches nothing in
//                           the cluster (would CHECK-fail at runtime) [error]
//   future-get-unsubmitted  FutureGet on a future variable no Submit in the
//                           whole program ever writes              [error]
//
// Severities are calibrated so shipped scenarios are error-clean: cold
// modules and fault-independent boot logs are deliberate scenario features
// (info), defensive catches are style (warning), while unreachable code,
// shadowed handlers, unknown send targets, and never-completed futures are
// genuine scenario bugs (error).

#ifndef ANDURIL_SRC_ANALYSIS_LINT_H_
#define ANDURIL_SRC_ANALYSIS_LINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/ir/program.h"

namespace anduril::analysis {

enum class LintSeverity : uint8_t { kError, kWarning, kInfo };

const char* LintSeverityName(LintSeverity severity);

struct LintDiagnostic {
  LintSeverity severity = LintSeverity::kInfo;
  std::string pass;       // pass name from the catalogue above
  ir::GlobalStmt location;
  std::string message;
};

// Cluster facts the analysis layer cannot derive from the program alone
// (interp::ClusterSpec lives a layer above): registered node names and the
// methods started as boot/workload tasks. The cluster-dependent passes
// (dead-fault-site, unregistered-send-target) only run when `provided`.
struct LintEnvironment {
  bool provided = false;
  std::vector<std::string> node_names;
  std::vector<ir::MethodId> entry_methods;
};

struct LintReport {
  std::vector<LintDiagnostic> diagnostics;
  double seconds = 0;  // lint wall time (reported by the bench)

  size_t CountOf(LintSeverity severity) const;
  size_t error_count() const { return CountOf(LintSeverity::kError); }

  // One line per diagnostic ("error [pass] @method#stmt: message") followed
  // by a summary line.
  std::string ToText(const ir::Program& program) const;
  // Stable JSON: {"errors": N, "warnings": N, "infos": N, "seconds": S,
  // "diagnostics": [{severity, pass, method, stmt, message}, ...]}.
  std::string ToJson(const ir::Program& program) const;
};

// Runs every pass. Diagnostics are ordered by pass, then method, then
// statement — deterministic for golden output.
LintReport RunLints(const ir::Program& program, const LintEnvironment& env = {});

}  // namespace anduril::analysis

#endif  // ANDURIL_SRC_ANALYSIS_LINT_H_
