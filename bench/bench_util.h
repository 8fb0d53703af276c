// Shared harness for the paper-table benches: builds failure cases, runs the
// explorer with a named strategy, and formats fixed-width tables.

#ifndef ANDURIL_BENCH_BENCH_UTIL_H_
#define ANDURIL_BENCH_BENCH_UTIL_H_

#include <optional>
#include <string>
#include <vector>

#include "src/explorer/explorer.h"
#include "src/systems/common.h"

namespace anduril::bench {

struct CaseRun {
  bool reproduced = false;
  int rounds = 0;
  double seconds = 0;                // wall time incl. initialization
  double init_seconds = 0;           // context setup
  int64_t median_injection_requests = 0;
  double mean_decision_nanos = 0;
  double median_round_init_seconds = 0;
  double median_workload_seconds = 0;
  std::vector<int> rank_trajectory;  // rank of the ground-truth site per round
  std::optional<explorer::ReproductionScript> script;
  // How each round's selected run ended, and the longest round's run time.
  std::vector<interp::RunOutcome> round_outcomes;
  double max_round_seconds = 0;
  // Context statistics.
  size_t observables = 0;
  size_t candidates = 0;
  analysis::CausalGraphStats graph_stats;
  size_t total_stmts = 0;
  size_t total_sites = 0;
  int64_t dynamic_instances = 0;  // fault-site occurrences in the normal run
  // Ground truth, for new-root-cause comparison.
  ir::FaultSiteId ground_truth_site = ir::kInvalidId;
  std::string found_site_name;
  std::string ground_truth_site_name;
};

// Runs one failure case with the given strategy name (see MakeStrategy).
CaseRun RunCase(const systems::FailureCase& failure_case, const std::string& strategy,
                int max_rounds = 1500, int initial_window = 10, int adjustment = 1);

// "8" / "-" formatting for Table 2-style cells.
std::string RoundsCell(const CaseRun& run);
std::string TimeCell(const CaseRun& run);

// Prints a row of fixed-width columns.
void PrintRow(const std::vector<std::string>& cells, const std::vector<int>& widths);

}  // namespace anduril::bench

#endif  // ANDURIL_BENCH_BENCH_UTIL_H_
