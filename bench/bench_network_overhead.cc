// Network candidate-space overhead: what does enabling
// ExplorerOptions::network_candidates cost an exception-rooted search that
// does not need it, and what does it buy the network-rooted scenarios that
// do? Emits BENCH_network.json.
//
// Part 1 runs zk-2247 (exception root cause) with the flag off and on: the
// widened space adds four network candidates (drop / delay / duplicate /
// partition) per kSend occurrence, and the table reports the extra rounds
// and wall clock the search pays to rank those candidates out.
//
// Part 2 runs every NetworkCases() scenario both ways: with the flag off the
// exception-only space cannot express the root cause and the search must
// fail; with it on, each scenario reproduces. A scenario that reproduces
// with the flag off (or fails with it on) fails the bench loudly.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/util/check.h"
#include "src/util/stopwatch.h"
#include "src/util/strings.h"

namespace anduril::bench {
namespace {

// "... at occurrence 5 with seed 6" -> "... at occurrence 5": the seed
// records the round that reproduced, which legitimately shifts when the
// candidate space grows.
std::string StripSeedSuffix(const std::string& script) {
  size_t pos = script.rfind(" with seed ");
  return pos == std::string::npos ? script : script.substr(0, pos);
}

struct Measurement {
  std::string case_id;
  bool network = false;      // network_candidates flag for this run
  size_t candidates = 0;     // candidate-space size seen by the strategy
  int rounds = 0;
  bool reproduced = false;
  double seconds = 0;
  std::string script;
};

Measurement RunOnce(const systems::BuiltCase& built, const std::string& case_id,
                    bool network, int max_rounds) {
  explorer::ExplorerOptions options;
  options.max_rounds = max_rounds;
  options.network_candidates = network;
  // Network scenarios with crash/stall root causes do not exist; the flag
  // under test is the only knob that differs between the two runs.
  Stopwatch timer;
  explorer::Explorer ex(built.spec, options);
  auto strategy = explorer::MakeFullFeedbackStrategy();
  explorer::ExploreResult result = ex.Explore(strategy.get());

  Measurement m;
  m.case_id = case_id;
  m.network = network;
  m.candidates = ex.context().candidates().size();
  m.rounds = result.rounds;
  m.reproduced = result.reproduced;
  m.seconds = timer.ElapsedSeconds();
  if (result.script.has_value()) {
    m.script = result.script->ToText(*built.spec.program);
  }
  return m;
}

void PrintMeasurementRow(const Measurement& m, double baseline_seconds) {
  std::string overhead = "-";
  if (m.network && baseline_seconds > 0) {
    overhead = StrFormat("%.2fx", m.seconds / baseline_seconds);
  }
  PrintRow({m.case_id, m.network ? "on" : "off", std::to_string(m.candidates),
            m.reproduced ? std::to_string(m.rounds) : "-",
            m.reproduced ? "yes" : "no", StrFormat("%.3fs", m.seconds), overhead},
           {12, 9, 12, 8, 12, 10, 10});
}

int Main() {
  std::vector<Measurement> measurements;

  std::printf("Network candidate space: overhead on exception-rooted searches\n\n");
  PrintRow({"case", "network", "candidates", "rounds", "reproduced", "seconds",
            "overhead"},
           {12, 9, 12, 8, 12, 10, 10});

  // Part 1: zk-2247 pays for the widened space without needing it.
  const systems::FailureCase* zk = systems::FindCase("zk-2247");
  ANDURIL_CHECK(zk != nullptr);
  systems::BuiltCase zk_built = systems::BuildCase(*zk);
  Measurement off = RunOnce(zk_built, zk->id, /*network=*/false, /*max_rounds=*/1500);
  Measurement on = RunOnce(zk_built, zk->id, /*network=*/true, /*max_rounds=*/1500);
  ANDURIL_CHECK(off.reproduced);
  ANDURIL_CHECK(on.reproduced);
  // The widened space must not change what the search finds — only how many
  // rounds it takes, which also shifts the reproducing round's seed suffix.
  ANDURIL_CHECK(StripSeedSuffix(off.script) == StripSeedSuffix(on.script));
  PrintMeasurementRow(off, 0);
  PrintMeasurementRow(on, off.seconds);
  measurements.push_back(off);
  measurements.push_back(on);

  // Part 2: the network scenarios require the flag.
  std::printf("\nNetwork-rooted scenarios: exception-only space vs widened space\n\n");
  PrintRow({"case", "network", "candidates", "rounds", "reproduced", "seconds",
            "overhead"},
           {12, 9, 12, 8, 12, 10, 10});
  for (const systems::FailureCase& failure_case : systems::NetworkCases()) {
    systems::BuiltCase built = systems::BuildCase(failure_case);
    // Cap the doomed exception-only search; it would otherwise drain the
    // full default budget per scenario.
    Measurement blind = RunOnce(built, failure_case.id, /*network=*/false,
                                /*max_rounds=*/150);
    Measurement sighted = RunOnce(built, failure_case.id, /*network=*/true,
                                  /*max_rounds=*/1500);
    ANDURIL_CHECK(!blind.reproduced);
    ANDURIL_CHECK(sighted.reproduced);
    // No overhead ratio here: the blind run is a capped failed search, not a
    // baseline.
    PrintMeasurementRow(blind, 0);
    PrintMeasurementRow(sighted, 0);
    measurements.push_back(blind);
    measurements.push_back(sighted);
  }

  std::printf("\nzk-2247 search overhead with network candidates: "
              "%.2fx candidates, %.2fx wall clock, %+d rounds\n",
              off.candidates > 0 ? static_cast<double>(on.candidates) / off.candidates : 0,
              off.seconds > 0 ? on.seconds / off.seconds : 0, on.rounds - off.rounds);

  FILE* json = std::fopen("BENCH_network.json", "w");
  ANDURIL_CHECK(json != nullptr);
  std::fprintf(json, "{\n  \"runs\": [\n");
  for (size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    std::fprintf(json,
                 "    {\"case\": \"%s\", \"network_candidates\": %s, "
                 "\"candidates\": %zu, \"rounds\": %d, \"reproduced\": %s, "
                 "\"seconds\": %.6f}%s\n",
                 m.case_id.c_str(), m.network ? "true" : "false", m.candidates,
                 m.rounds, m.reproduced ? "true" : "false", m.seconds,
                 i + 1 < measurements.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nWrote BENCH_network.json\n");
  return 0;
}

}  // namespace
}  // namespace anduril::bench

int main() { return anduril::bench::Main(); }
