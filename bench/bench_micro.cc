// Micro-benchmarks (google-benchmark) for the building blocks whose costs
// the paper discusses in §7: the per-thread Myers diff (reimplemented in C
// there for speed), log parsing, the per-run feedback digest, causal-graph
// construction, the simulated workload run, and the injection-hook decision
// latency (Table 4).

#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "src/explorer/context.h"
#include "src/interp/log_entry.h"
#include "src/interp/simulator.h"
#include "src/logdiff/compare.h"
#include "src/logdiff/myers.h"
#include "src/logdiff/parser.h"
#include "src/systems/common.h"
#include "src/util/rng.h"

namespace anduril {
namespace {

std::vector<int32_t> RandomSequence(size_t n, int alphabet, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> seq(n);
  for (auto& value : seq) {
    value = static_cast<int32_t>(rng.NextBelow(static_cast<uint64_t>(alphabet)));
  }
  return seq;
}

void BM_MyersDiff(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto a = RandomSequence(n, 40, 1);
  auto b = a;
  // Perturb ~10% of b, the typical similarity of run logs.
  Rng rng(2);
  for (size_t i = 0; i < n / 10; ++i) {
    b[rng.NextBelow(n)] = static_cast<int32_t>(rng.NextBelow(40));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(logdiff::MyersDiff(a, b));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_MyersDiff)->Arg(100)->Arg(1000)->Arg(5000);

const systems::BuiltCase& MotivatingCase() {
  static const systems::BuiltCase* built = [] {
    const systems::FailureCase* failure_case = systems::FindCase("hb-25905");
    return new systems::BuiltCase(systems::BuildCase(*failure_case));
  }();
  return *built;
}

void BM_SimulatedWorkloadRun(benchmark::State& state) {
  const systems::BuiltCase& built = MotivatingCase();
  uint64_t seed = 1;
  for (auto _ : state) {
    interp::FaultRuntime runtime(built.program.get());
    interp::Simulator simulator(built.program.get(), &built.cluster, seed++, &runtime);
    benchmark::DoNotOptimize(simulator.Run());
  }
}
BENCHMARK(BM_SimulatedWorkloadRun);

void BM_LogParse(benchmark::State& state) {
  const systems::BuiltCase& built = MotivatingCase();
  for (auto _ : state) {
    benchmark::DoNotOptimize(logdiff::ParseLogFile(built.failure_log_text));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(built.failure_log_text.size()));
}
BENCHMARK(BM_LogParse);

// A search run's log: the case's exploration workload at its exploration
// seed with the ground-truth fault armed.
const interp::RunResult& SearchRunOf(const std::string& id) {
  static std::map<std::string, interp::RunResult> runs;
  auto it = runs.find(id);
  if (it == runs.end()) {
    const systems::FailureCase* failure_case = systems::FindCase(id);
    for (const systems::FailureCase& storm : systems::StormCases()) {
      if (storm.id == id) {
        failure_case = &storm;
      }
    }
    systems::BuiltCase built = systems::BuildCase(*failure_case, /*verify=*/false);
    it = runs.emplace(id, systems::RunOnce(*built.program, built.cluster,
                                           failure_case->explore_seed, {built.ground_truth}))
             .first;
  }
  return it->second;
}

// The feedback digest of one search run: the text round trip the round loop
// used to pay (FormatLogFile, then ParseLogFile) against DigestLog into a
// reused buffer, which is what Explorer's ExecuteOne runs now.
void BM_RunLogDigest(benchmark::State& state, const std::string& id, bool structured) {
  const interp::RunResult& run = SearchRunOf(id);
  logdiff::ParsedLog reused;
  for (auto _ : state) {
    if (structured) {
      interp::DigestLog(run.log, &reused);
      benchmark::DoNotOptimize(reused.lines.data());
      benchmark::ClobberMemory();
    } else {
      benchmark::DoNotOptimize(logdiff::ParseLogFile(interp::FormatLogFile(run.log)));
    }
  }
  state.counters["lines"] = static_cast<double>(run.log.size());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(run.log.size()));
}
BENCHMARK_CAPTURE(BM_RunLogDigest, zk2247_text, std::string("zk-2247"), false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_RunLogDigest, zk2247_structured, std::string("zk-2247"), true)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_RunLogDigest, castorm1_text, std::string("ca-storm-1"), false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_RunLogDigest, castorm1_structured, std::string("ca-storm-1"), true)
    ->Unit(benchmark::kMicrosecond);

void BM_PerThreadLogCompare(benchmark::State& state) {
  const systems::BuiltCase& built = MotivatingCase();
  interp::FaultRuntime runtime(built.program.get());
  interp::Simulator simulator(built.program.get(), &built.cluster, 1, &runtime);
  interp::RunResult normal = simulator.Run();
  logdiff::ParsedLog normal_log = logdiff::ParseLogFile(interp::FormatLogFile(normal.log));
  logdiff::ParsedLog failure_log = logdiff::ParseLogFile(built.failure_log_text);
  for (auto _ : state) {
    benchmark::DoNotOptimize(logdiff::CompareLogs(normal_log, failure_log));
  }
}
BENCHMARK(BM_PerThreadLogCompare);

void BM_ExplorerContextBuild(benchmark::State& state) {
  const systems::BuiltCase& built = MotivatingCase();
  explorer::ExplorerOptions options;
  for (auto _ : state) {
    explorer::ExplorerContext context(built.spec, options);
    benchmark::DoNotOptimize(context.candidates().size());
  }
}
BENCHMARK(BM_ExplorerContextBuild);

void BM_InjectionDecision(benchmark::State& state) {
  const systems::BuiltCase& built = MotivatingCase();
  interp::FaultRuntime runtime(built.program.get());
  runtime.SetWindow({built.ground_truth});
  // As in search runs: no instance trace (it would grow by one entry per
  // iteration here).
  runtime.set_tracing(false);
  runtime.BeginRun();
  const ir::FaultSite& site = built.program->fault_site(built.ground_truth.site);
  const ir::Stmt& stmt =
      built.program->method(site.location.method).stmt(site.location.stmt);
  // The hook the interpreter's dispatch loop calls, with the transient
  // parameters pre-decoded the way ir::FlatProgram lowers them.
  const ir::ExceptionTypeId transient_type =
      stmt.throwable_types.empty() ? ir::kInvalidId : stmt.throwable_types.front();
  int64_t clock = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime.OnExternalCallFast(
        built.ground_truth.site, transient_type, stmt.transient_every_n, clock++, 0, 0));
  }
}
BENCHMARK(BM_InjectionDecision);

}  // namespace
}  // namespace anduril

BENCHMARK_MAIN();
