// Outcome taxonomy of the hardened exploration runtime: per-case round
// outcome counts (completed / crashed / hung / budget-exceeded) and round
// wall-clock extremes.
//
// The exception-rooted cases run over the stock candidate space (their
// rounds all complete); the crash/stall-rooted cases run with
// crash_stall_candidates enabled, so their searches visit node-crash and
// stall candidates and the crashed/hung columns fill in.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/util/strings.h"

namespace anduril::bench {
namespace {

void PrintCaseRow(const systems::FailureCase& failure_case) {
  CaseRun run = RunCase(failure_case, "full");
  auto rounds_ending = [&run](interp::RunOutcome outcome) {
    return static_cast<int>(
        std::count(run.round_outcomes.begin(), run.round_outcomes.end(), outcome));
  };
  const int crashed = rounds_ending(interp::RunOutcome::kCrashed);
  const int hung = rounds_ending(interp::RunOutcome::kHung);
  const int total = static_cast<int>(run.round_outcomes.size());
  PrintRow({failure_case.id, RoundsCell(run),
            std::to_string(rounds_ending(interp::RunOutcome::kCompleted)),
            std::to_string(crashed), std::to_string(hung),
            std::to_string(rounds_ending(interp::RunOutcome::kBudgetExceeded)),
            total > 0 ? StrFormat("%.1f%%", 100.0 * (crashed + hung) / total) : "-",
            StrFormat("%.2fms", run.max_round_seconds * 1e3)},
           {12, 8, 10, 8, 6, 8, 10, 10});
}

int Main() {
  std::printf("Round outcome taxonomy (strategy: full feedback)\n\n");
  PrintRow({"case", "rounds", "completed", "crashed", "hung", "budget", "fault-rate",
            "max-round"},
           {12, 8, 10, 8, 6, 8, 10, 10});
  for (const systems::FailureCase& failure_case : systems::AllCases()) {
    if (failure_case.id == "zk-2247" || failure_case.id == "hd-4233" ||
        failure_case.id == "hb-18137" || failure_case.id == "ka-12508") {
      PrintCaseRow(failure_case);
    }
  }
  for (const systems::FailureCase& failure_case : systems::CrashStallCases()) {
    PrintCaseRow(failure_case);
  }
  return 0;
}

}  // namespace
}  // namespace anduril::bench

int main() { return anduril::bench::Main(); }
