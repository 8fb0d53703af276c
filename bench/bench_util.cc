#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>

#include "src/systems/harness.h"
#include "src/util/check.h"
#include "src/util/strings.h"

namespace anduril::bench {

CaseRun RunCase(const systems::FailureCase& failure_case, const std::string& strategy,
                int max_rounds, int initial_window, int adjustment) {
  systems::BuiltCase built = systems::BuildCase(failure_case);
  explorer::ExplorerOptions options = systems::OptionsForCase(failure_case);
  options.max_rounds = max_rounds;
  options.initial_window = initial_window;
  options.feedback_adjustment = adjustment;
  options.track_site = built.ground_truth.site;

  explorer::Explorer ex(built.spec, options);
  auto strat = explorer::MakeStrategy(strategy);
  ANDURIL_CHECK(strat != nullptr) << "unknown strategy " << strategy;
  explorer::ExploreResult result = ex.Explore(strat.get());

  CaseRun run;
  run.reproduced = result.reproduced;
  run.rounds = result.rounds;
  run.seconds = result.total_seconds;
  run.init_seconds = result.init_seconds;
  run.median_injection_requests = result.median_injection_requests;
  run.mean_decision_nanos = result.mean_decision_nanos;
  run.median_round_init_seconds = result.median_round_init_seconds;
  run.median_workload_seconds = result.median_workload_seconds;
  run.script = result.script;
  for (const explorer::RoundRecord& record : result.records) {
    run.rank_trajectory.push_back(record.tracked_rank);
    run.round_outcomes.push_back(record.outcome);
    run.max_round_seconds = std::max(run.max_round_seconds, record.run_seconds);
  }
  run.observables = ex.context().observables().size();
  run.candidates = ex.context().candidates().size();
  run.graph_stats = ex.context().graph().stats();
  run.total_stmts = built.program->TotalStmtCount();
  run.total_sites = built.program->fault_sites().size();
  run.dynamic_instances = static_cast<int64_t>(ex.context().normal_trace().size());
  run.ground_truth_site = built.ground_truth.site;
  run.ground_truth_site_name = built.program->fault_site(built.ground_truth.site).name;
  if (result.script.has_value()) {
    run.found_site_name = built.program->fault_site(result.script->site).name;
  }
  return run;
}

std::string RoundsCell(const CaseRun& run) {
  return run.reproduced ? std::to_string(run.rounds) : "-";
}

std::string TimeCell(const CaseRun& run) {
  if (!run.reproduced) {
    return "-";
  }
  if (run.seconds < 10) {
    return StrFormat("%.2fs", run.seconds);
  }
  return StrFormat("%.0fs", run.seconds);
}

void PrintRow(const std::vector<std::string>& cells, const std::vector<int>& widths) {
  std::string line;
  for (size_t i = 0; i < cells.size(); ++i) {
    int width = i < widths.size() ? widths[i] : 12;
    line += StrFormat("%-*s", width, cells[i].c_str());
  }
  std::printf("%s\n", line.c_str());
}

}  // namespace anduril::bench
