// Runs every injection strategy on one failure case and contrasts their
// efficiency — a small-scale version of the paper's Table 2 that makes the
// value of each feedback ingredient tangible on a single bug.
//
// Usage: compare_strategies [case-id]   (default: zk-2247)

#include <cstdio>
#include <string>

#include "src/explorer/explorer.h"
#include "src/systems/common.h"

using namespace anduril;

int main(int argc, char** argv) {
  std::string case_id = argc > 1 ? argv[1] : "zk-2247";
  const systems::FailureCase* failure_case = systems::FindCase(case_id);
  if (failure_case == nullptr) {
    std::printf("unknown case '%s'; known cases:\n", case_id.c_str());
    for (const auto& known : systems::AllCases()) {
      std::printf("  %s (%s): %s\n", known.id.c_str(), known.paper_id.c_str(),
                  known.title.c_str());
    }
    return 1;
  }

  std::printf("Case %s: %s\n\n", failure_case->id.c_str(), failure_case->title.c_str());
  systems::BuiltCase built = systems::BuildCase(*failure_case);

  const char* strategies[] = {"full",          "multiply",   "site-feedback",
                              "site-distance", "exhaustive", "stacktrace",
                              "fate",          "crashtuner"};
  std::printf("%-22s %8s %10s\n", "strategy", "rounds", "time");
  bool full_reproduced = false;
  for (const char* name : strategies) {
    explorer::ExplorerOptions options;
    options.max_rounds = 1500;
    explorer::Explorer anduril_explorer(built.spec, options);
    auto strategy = explorer::MakeStrategy(name);
    explorer::ExploreResult result = anduril_explorer.Explore(strategy.get());
    if (result.reproduced) {
      full_reproduced |= std::string(name) == "full";
      std::printf("%-22s %8d %9.2fs\n", name, result.rounds, result.total_seconds);
    } else {
      std::printf("%-22s %8s %10s\n", name, "-", "-");
    }
  }
  // The baselines may cap out; ANDURIL's full feedback must not.
  return full_reproduced ? 0 : 1;
}
