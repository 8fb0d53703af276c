#include "reprobench/workloads.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <thread>

#include "reprobench/replica.h"
#include "reprobench/spans.h"
#include "src/explorer/checkpoint.h"
#include "src/explorer/explorer.h"
#include "src/explorer/iterative.h"
#include "src/explorer/strategy.h"
#include "src/service/context_cache.h"
#include "src/service/daemon.h"
#include "src/service/manifest.h"
#include "src/service/runner.h"
#include "src/service/scheduler.h"
#include "src/service/work.h"
#include "src/systems/common.h"
#include "src/systems/harness.h"
#include "src/util/stopwatch.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace reprobench {
namespace {

namespace ex = anduril::explorer;
namespace fs = std::filesystem;
namespace interp = anduril::interp;
namespace service = anduril::service;
namespace sys = anduril::systems;
using anduril::StrFormat;
using anduril::Stopwatch;

// Set-up runs this many times per run and its median is reported, so work
// moved into set-up shows.
constexpr int kSetupRepetitions = 5;
// In-process chain searches use the service's chain length, so their scripts
// compare with the service's.
constexpr int kMaxChainLength = service::kServiceMaxChainLength;
constexpr int kSliceRounds = 4;     // serve-sliced: the user's --slice-rounds
constexpr int kRoundBudget = 2000;  // anduril_serve's default per-case budget
constexpr int kStormRunsPerRound = 4;
// registry-serial searches every case at this many base seeds, this far apart.
// A case's round count, and so its time, depends on the seed; over many seeds
// the run's percentiles depend little on which seeds --seed picks.
constexpr int kRegistrySeeds = 24;
constexpr uint64_t kSeedSpacing = 1000;
// Batched hook timing replays at least this many decisions per case.
constexpr int64_t kHookBatchRequests = 200000;

int Parallelism() {
  const unsigned cores = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(cores), 1, 4);
}

bool IsCascade(const sys::FailureCase& failure_case) {
  for (const sys::FailureCase& cascade : sys::CascadeCases()) {
    if (cascade.id == failure_case.id) {
      return true;
    }
  }
  return false;
}

// One search of the workload: a built case at one exploration base seed.
struct Case {
  const sys::FailureCase* failure_case = nullptr;
  std::shared_ptr<const sys::BuiltCase> built;  // shared by a case's seeds
  ex::ExperimentSpec experiment;                // built->spec at this case's seed
  std::string label;                            // id, plus the seed offset if any
  bool chain = false;
  ex::ExplorerOptions options;

  const std::string& id() const { return failure_case->id; }
  const ex::ExperimentSpec& spec() const { return experiment; }
};

// What a user gets back from one reproduction. The determinism contract
// makes it identical across passes, in the traced replica, and however the
// service slices the search.
struct Outcome {
  bool reproduced = false;
  int rounds = 0;
  std::string script;
  uint64_t seed = 0;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

std::string Describe(const Outcome& outcome) {
  if (!outcome.reproduced) {
    return StrFormat("not reproduced after %d rounds", outcome.rounds);
  }
  return StrFormat("%d rounds, seed %llu, \"%s\"", outcome.rounds,
                   static_cast<unsigned long long>(outcome.seed), outcome.script.c_str());
}

// The service's rendering of a chain (service/runner.cc).
std::string ChainText(const anduril::ir::Program& program, const ex::FaultChain& chain) {
  std::string text;
  for (size_t i = 0; i < chain.steps.size(); ++i) {
    const ex::FaultChainStep& step = chain.steps[i];
    const char* what = step.candidate.kind == interp::FaultKind::kException
                           ? program.exception_type(step.candidate.type).name.c_str()
                           : interp::FaultKindName(step.candidate.kind);
    char line[256];
    std::snprintf(line, sizeof(line), "step %zu: %s, %s at occurrence %lld (seed %llu)\n",
                  i + 1, program.fault_site(step.candidate.site).name.c_str(), what,
                  static_cast<long long>(step.candidate.occurrence),
                  static_cast<unsigned long long>(step.seed));
    text += line;
  }
  return text;
}

Outcome OfChain(const anduril::ir::Program& program, const ex::ChainResult& result) {
  Outcome outcome;
  outcome.reproduced = result.reproduced;
  outcome.rounds = result.total_rounds;
  if (result.reproduced) {
    outcome.script = ChainText(program, result.chain);
    outcome.seed = result.chain.steps.back().seed;
  }
  return outcome;
}

Outcome OfScript(const anduril::ir::Program& program, bool reproduced, int rounds,
                 const std::optional<ex::ReproductionScript>& script) {
  Outcome outcome;
  outcome.reproduced = reproduced && script.has_value();
  outcome.rounds = rounds;
  if (outcome.reproduced) {
    outcome.script = script->ToText(program);
    outcome.seed = script->seed;
  }
  return outcome;
}

Outcome OfQueueCase(const service::QueueCase& entry) {
  Outcome outcome;
  outcome.reproduced = entry.state == service::CaseState::kReproduced;
  outcome.rounds = entry.rounds_done;
  if (outcome.reproduced) {
    outcome.script = entry.script;
    outcome.seed = entry.script_seed;
  }
  return outcome;
}

// Searches that failed on both sides may stop at different round counts (a
// starved service case stops at its budget); everything else must match.
void Expect(Report* report, const std::string& what, const Outcome& got,
            const Outcome& want) {
  if (got == want || (!got.reproduced && !want.reproduced)) {
    return;
  }
  report->Fail(what + ": got " + Describe(got) + ", expected " + Describe(want));
}

double Sum(const std::vector<double>& values) {
  double sum = 0;
  for (double value : values) {
    sum += value;
  }
  return sum;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0 : Sum(values) / static_cast<double>(values.size());
}

// Linear interpolation between closest ranks.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t low = static_cast<size_t>(std::floor(rank));
  const size_t high = std::min(low + 1, values.size() - 1);
  return values[low] + (values[high] - values[low]) * (rank - static_cast<double>(low));
}

double PeakRssMb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

// Repeats `pass` until `seconds` have gone by, and at least `min_passes` times.
template <typename Fn>
int RepeatFor(double seconds, int min_passes, Fn&& pass) {
  const Stopwatch timer;
  int passes = 0;
  while (passes < min_passes || timer.ElapsedSeconds() < seconds) {
    pass();
    ++passes;
  }
  return passes;
}

// A single-threaded client left to the scheduler stays on one CPU, and on a
// shared host one CPU's speed drifts by tens of percent over a minute. Moving
// the client to the next allowed CPU every pass makes each run sample all of
// them. Restores the original affinity when destroyed.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) {
        cpus_.push_back(cpu);
      }
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) {
      sched_setaffinity(0, sizeof(original_), &original_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

void ResetDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
}

// The workload's cases, in an order set by the seed.
std::vector<const sys::FailureCase*> CaseSet(bool storm, uint64_t seed) {
  std::vector<const sys::FailureCase*> set;
  if (storm) {
    for (const sys::FailureCase& failure_case : sys::StormCases()) {
      set.push_back(&failure_case);
    }
  } else {
    for (const std::vector<sys::FailureCase>* registry :
         {&sys::AllCases(), &sys::CrashStallCases(), &sys::NetworkCases(),
          &sys::CascadeCases()}) {
      for (const sys::FailureCase& failure_case : *registry) {
        set.push_back(&failure_case);
      }
    }
  }
  std::mt19937_64 rng(seed);
  std::shuffle(set.begin(), set.end(), rng);
  return set;
}

// Builds every case once and adds one search per seed offset, the whole case
// set at the first offset, then at the next, and so on.
std::vector<Case> BuildCases(const std::vector<const sys::FailureCase*>& set, bool storm,
                             const std::vector<uint64_t>& seed_offsets,
                             std::vector<double>* build_ms) {
  std::vector<std::shared_ptr<sys::BuiltCase>> builds;
  for (const sys::FailureCase* failure_case : set) {
    const Stopwatch timer;
    // verify=false, as the service builds cases: set-up is failure-log generation.
    auto built = std::make_shared<sys::BuiltCase>(sys::BuildCase(*failure_case, /*verify=*/false));
    build_ms->push_back(timer.ElapsedMillis());
    // BuiltCase points into itself; re-point after the move, as ContextCache does.
    built->spec.program = built->program.get();
    built->spec.cluster = &built->cluster;
    builds.push_back(std::move(built));
  }
  std::vector<Case> cases;
  for (uint64_t offset : seed_offsets) {
    for (size_t k = 0; k < set.size(); ++k) {
      const sys::FailureCase* failure_case = set[k];
      Case c;
      c.failure_case = failure_case;
      c.built = builds[k];
      c.experiment = builds[k]->spec;
      c.experiment.base_seed += offset;
      c.label = offset == 0 ? failure_case->id : StrFormat("%s@+%llu", failure_case->id.c_str(),
                                                            static_cast<unsigned long long>(offset));
      c.chain = IsCascade(*failure_case);
      c.options = sys::OptionsForCase(*failure_case, storm ? Parallelism() : 1);
      if (storm) {
        c.options.runs_per_round = kStormRunsPerRound;
      }
      cases.push_back(std::move(c));
    }
  }
  return cases;
}

struct Reproduction {
  Outcome outcome;
  double ms = 0;
  double decision_ns = -1;  // the program's sampled hook latency (plain searches)
  std::optional<ex::ReproductionScript> script;
  std::optional<ex::ChainResult> chain;
};

// One cold reproduction: its own ExplorerContext, then every round. Timed
// from the built spec to the result, explorer teardown included.
Reproduction Reproduce(const Case& c) {
  Reproduction r;
  const Stopwatch timer;
  if (c.chain) {
    {
      ex::ChainExplorer explorer(c.spec(), c.options);
      r.chain = explorer.Explore(kMaxChainLength);
    }
    r.ms = timer.ElapsedMillis();
    r.outcome = OfChain(*c.spec().program, *r.chain);
    return r;
  }
  std::optional<ex::ExploreResult> result;
  {
    ex::Explorer explorer(c.spec(), c.options);
    std::unique_ptr<ex::InjectionStrategy> strategy = ex::MakeFullFeedbackStrategy();
    result = explorer.Explore(strategy.get());
  }
  r.ms = timer.ElapsedMillis();
  r.outcome = OfScript(*c.spec().program, result->reproduced, result->rounds, result->script);
  r.decision_ns = result->mean_decision_nanos;
  r.script = result->script;
  return r;
}

bool Replays(const Case& c, const Reproduction& r) {
  if (!r.outcome.reproduced) {
    return true;
  }
  return c.chain ? ex::ChainExplorer::Replay(c.spec(), *r.chain)
                 : ex::Explorer::Replay(c.spec(), *r.script);
}

// The first outcome of a search is the reference every later one must match.
const Outcome& Reference(std::optional<Outcome>* slot, const Outcome& first) {
  if (!*slot) {
    *slot = first;
  }
  return **slot;
}

// Counts one search and checks it against the reference.
void Record(Report* report, const std::string& what, const Outcome& got, const Outcome& want) {
  ++report->attempted;
  if (!got.reproduced) {
    ++report->failed;
  }
  Expect(report, what, got, want);
}

// Everything the traced pass measures besides its spans.
struct LayerInputs {
  std::vector<double> build_case_ms;
  ContextParts parts;  // summed over one decomposition per case
  int64_t contexts = 0;
  HookBatch hooks;
  std::vector<double> sampled_decision_ns;
  ReplicaCounters counters;
  int traced_passes = 0;  // traced passes over the case set at one seed
  int pool_threads = 1;
  double pool_speedup = 0;
  double slices_per_case = 0;
  double service_busy_frac = 0;
  double respawns = 0;
  double vs_serial_ratio = 0;
  double checkpoint_load_us = 0;
  double checkpoint_save_us = 0;
  double trace_overhead_frac = 0;
};

// Decomposes every case's (first-phase) context and times its hook decisions.
void MeasureContexts(std::span<const Case> cases, LayerInputs* layer) {
  for (const Case& c : cases) {
    const Decomposition decomposition = DecomposeContext(c.spec(), c.options);
    layer->parts += decomposition.parts;
    ++layer->contexts;
    const HookBatch batch = TimeHookBatch(*decomposition.context, kHookBatchRequests);
    layer->hooks.nanos += batch.nanos;
    layer->hooks.requests += batch.requests;
  }
}

void AddLayerMetrics(Report* report, const SpanReport& spans, const LayerInputs& in) {
  auto totals = [&](const char* name) {
    const auto it = spans.by_name.find(name);
    return it == spans.by_name.end() ? SpanTotals{} : it->second;
  };
  auto mean_ns = [&](const char* name) {
    const SpanTotals t = totals(name);
    return t.count == 0 ? 0.0 : static_cast<double>(t.total_ns) / static_cast<double>(t.count);
  };
  auto ratio = [](double part, double whole) { return whole > 0 ? part / whole : 0.0; };
  const double contexts = static_cast<double>(std::max<int64_t>(in.contexts, 1));
  const ContextParts& parts = in.parts;

  report->Add("systems.build_case_ms", Mean(in.build_case_ms), "ms");
  // serve-sliced builds its contexts inside RunSlice, out of the spans' sight.
  const double context_ms = totals("explorer.context").count > 0
                                ? mean_ns("explorer.context") / 1e6
                                : parts.constructor_ms / contexts;
  report->Add("explorer.context_ms", context_ms, "ms");
  report->Add("logdiff.parse_failure_log_ms", parts.parse_failure_log_ms / contexts, "ms");
  report->Add("ir.flatten_ms", parts.flatten_ms / contexts, "ms");
  report->Add("interp.baseline_run_ms", parts.baseline_run_ms / contexts, "ms");
  report->Add("logdiff.parse_normal_log_ms", parts.parse_normal_log_ms / contexts, "ms");
  report->Add("logdiff.compare_ms", parts.compare_ms / contexts, "ms");
  report->Add("analysis.observable_map_ms", parts.observable_map_ms / contexts, "ms");
  report->Add("analysis.causal_graph_ms", parts.causal_graph_ms / contexts, "ms");
  report->Add("analysis.exception_ms", parts.exception_ms / contexts, "ms");
  report->Add("analysis.slicing_ms", parts.slicing_ms / contexts, "ms");
  report->Add("analysis.chaining_ms", parts.chaining_ms / contexts, "ms");
  report->Add("analysis.distances_ms", parts.distances_ms / contexts, "ms");
  report->Add("logdiff.align_ms", parts.align_ms / contexts, "ms");
  report->Add("explorer.context_unattributed_frac",
              1.0 - ratio(parts.PartsMs(), parts.constructor_ms), "ratio");
  report->Add("explorer.candidates", static_cast<double>(parts.candidates) / contexts, "count");
  report->Add("explorer.observables", static_cast<double>(parts.observables) / contexts,
              "count");
  report->Add("interp.dynamic_instances", static_cast<double>(parts.dynamic_instances) / contexts,
              "count");

  const double passes = std::max(in.traced_passes, 1);
  const double rounds = static_cast<double>(in.counters.rounds);
  const SpanTotals round = totals("explorer.round");
  report->Add("explorer.next_window_us", mean_ns("explorer.next_window") / 1e3, "us");
  report->Add("explorer.on_round_us", mean_ns("explorer.on_round") / 1e3, "us");
  report->Add("explorer.oracle_us", mean_ns("explorer.oracle") / 1e3, "us");
  report->Add("explorer.present_keys_us", mean_ns("explorer.present_keys") / 1e3, "us");
  report->Add("explorer.stitch_run_ms", mean_ns("explorer.stitch_run") / 1e6, "ms");
  report->Add("explorer.checkpoint_save_us", in.checkpoint_save_us, "us");
  report->Add("explorer.round_unattributed_frac",
              ratio(static_cast<double>(round.self_ns), static_cast<double>(round.total_ns)),
              "ratio");
  report->Add("explorer.rounds", rounds / passes, "rounds");
  report->Add("explorer.inject_rate",
              ratio(static_cast<double>(in.counters.injected_rounds), rounds), "ratio");
  report->Add("explorer.wedged_frac", ratio(static_cast<double>(in.counters.wedged_rounds), rounds),
              "ratio");

  const double runs = static_cast<double>(in.counters.runs);
  report->Add("interp.simulate_us", mean_ns("interp.simulate") / 1e3, "us");
  report->Add("interp.format_log_us", mean_ns("interp.format_log") / 1e3, "us");
  report->Add("logdiff.parse_run_log_us", mean_ns("logdiff.parse_run_log") / 1e3, "us");
  report->Add("interp.hook_ns",
              ratio(static_cast<double>(in.hooks.nanos), static_cast<double>(in.hooks.requests)),
              "ns");
  report->Add("interp.sampled_decision_ns", Mean(in.sampled_decision_ns), "ns");
  report->Add("interp.runs", runs / passes, "count");
  report->Add("interp.log_lines_per_run", ratio(static_cast<double>(in.counters.log_lines), runs),
              "count");
  report->Add("interp.injection_requests_per_run",
              ratio(static_cast<double>(in.counters.injection_requests), runs), "count");

  const double pool_wall =
      static_cast<double>(totals("pool.round").total_ns + totals("pool.digest").total_ns);
  report->Add("pool.round_wall_us", mean_ns("pool.round") / 1e3, "us");
  report->Add("pool.busy_frac",
              ratio(static_cast<double>(totals("pool.item").total_ns), in.pool_threads * pool_wall),
              "ratio");
  report->Add("pool.speedup", in.pool_speedup, "x");

  const SpanTotals slice = totals("service.slice");
  report->Add("service.slice_ms", mean_ns("service.slice") / 1e6, "ms");
  report->Add("service.slices_per_case", in.slices_per_case, "count");
  report->Add("service.case_rebuild_ms", mean_ns("service.case_rebuild") / 1e6, "ms");
  report->Add("service.checkpoint_load_us", in.checkpoint_load_us, "us");
  report->Add("service.manifest_save_us", mean_ns("service.manifest_save") / 1e3, "us");
  report->Add("service.ipc_us",
              ratio(static_cast<double>(totals("service.ipc").total_ns) / 1e3,
                    static_cast<double>(slice.count)),
              "us");
  report->Add("service.busy_frac", in.service_busy_frac, "ratio");
  report->Add("service.respawns", in.respawns, "count");
  report->Add("service.vs_serial_ratio", in.vs_serial_ratio, "x");

  const double attributed =
      1.0 - ratio(static_cast<double>(spans.root_self_ns), static_cast<double>(spans.root_ns));
  report->Add("obs.trace_overhead_frac", in.trace_overhead_frac, "ratio");
  report->Add("obs.attributed_frac", attributed, "ratio");
  report->Add("failed_frac",
              ratio(static_cast<double>(report->failed), static_cast<double>(report->attempted)),
              "ratio");

  for (const auto& [layer, ns] : spans.layer_self_ns) {
    std::fprintf(stderr, "layer %-9s %6.2f%% of traced time\n", layer.c_str(),
                 100.0 * ratio(static_cast<double>(ns), static_cast<double>(spans.root_ns)));
  }
  std::fprintf(stderr, "unattributed %6.2f%% (largest gap: %s)\n", 100.0 * (1.0 - attributed),
               spans.largest_gap.c_str());
  if (attributed < 0.95) {
    report->Fail(StrFormat("layer accounting: named layers cover %.1f%% of the traced time; "
                           "largest untimed gap: %s (%.3f ms)",
                           100.0 * attributed, spans.largest_gap.c_str(),
                           static_cast<double>(spans.largest_gap_ns) / 1e6));
  }
}

// Per-search numbers for the cases the ROADMAP's scratch probes measured.
void PrintProbes(const std::vector<Span>& spans, const std::map<int32_t, std::string>& cases) {
  struct Probe {
    int searches = 0;
    double search_ms = 0;
    double context_ms = 0;
    SpanTotals simulate, format, parse;
  };
  std::map<std::string, Probe> probes;
  for (const Span& span : spans) {
    const auto it = cases.find(span.search);
    if (it == cases.end() || (it->second != "zk-2247" && it->second != "ca-storm-1")) {
      continue;
    }
    Probe& probe = probes[it->second];
    const double ms = static_cast<double>(span.duration_ns()) / 1e6;
    SpanTotals* per_run = span.name == "interp.simulate"        ? &probe.simulate
                          : span.name == "interp.format_log"    ? &probe.format
                          : span.name == "logdiff.parse_run_log" ? &probe.parse
                                                                 : nullptr;
    if (span.parent < 0) {
      ++probe.searches;
      probe.search_ms += ms;
    } else if (span.name == "explorer.context") {
      probe.context_ms += ms;
    } else if (per_run != nullptr) {
      ++per_run->count;
      per_run->total_ns += span.duration_ns();
    }
  }
  auto per_call_ms = [](const SpanTotals& t) {
    return t.count == 0 ? 0.0 : static_cast<double>(t.total_ns) / 1e6 / static_cast<double>(t.count);
  };
  for (const auto& [id, probe] : probes) {
    const double n = std::max(probe.searches, 1);
    std::fprintf(stderr,
                 "probe %s: %d searches; per search %.3f ms (context %.3f ms); per run: "
                 "simulate %.3f ms, format %.3f ms, parse %.3f ms\n",
                 id.c_str(), probe.searches, probe.search_ms / n, probe.context_ms / n,
                 per_call_ms(probe.simulate), per_call_ms(probe.format), per_call_ms(probe.parse));
  }
}

// repro_ms.p50/.p90 are percentiles across the workload's cases of each
// case's typical time over the run: the host's second-to-second speed swings
// then move a case's typical time, not which samples land in the tail.
void AddEndToEnd(Report* report, const std::vector<double>& case_ms, double repro_per_s,
                 double rounds_per_repro, const std::vector<double>& setup_s) {
  report->Add("repro_ms.p50", Percentile(case_ms, 0.5), "ms");
  report->Add("repro_ms.p90", Percentile(case_ms, 0.9), "ms");
  report->Add("repro_per_s", repro_per_s, "1/s");
  report->Add("rounds_per_repro", rounds_per_repro, "rounds");
  report->Add("setup_s", Percentile(setup_s, 0.5), "s");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
}

// registry-serial and storm-rep4: a closed loop with one client, each
// reproduction cold.
Report RunInProcess(const Args& args) {
  Report report;
  LayerInputs layer;
  const bool storm = args.workload == "storm-rep4";
  const std::vector<const sys::FailureCase*> set = CaseSet(storm, args.seed);
  std::vector<uint64_t> seed_offsets = {0};
  for (int k = 1; !storm && k < kRegistrySeeds; ++k) {
    seed_offsets.push_back(k * kSeedSpacing);
  }
  // storm-rep4's pool threads inherit the client's affinity, so only the
  // single-threaded workload rotates.
  std::optional<CpuRotation> rotation;
  if (!storm) {
    rotation.emplace();
  }
  // A block is the case set at one seed; a pass is every seed's block. The
  // client moves to the next CPU at every block.
  const size_t n = set.size();
  const int blocks_per_pass = static_cast<int>(seed_offsets.size());
  auto run_block = [&](int block, auto&& each) {
    if (rotation) {
      rotation->Next();
    }
    const size_t first = static_cast<size_t>(block % blocks_per_pass) * n;
    for (size_t i = first; i < first + n; ++i) {
      each(i);
    }
  };

  // Set-up warms up on the first seed's block; a search's first outcome, in
  // set-up or in the first timed pass, is its reference.
  std::vector<Case> cases;
  std::vector<std::optional<Outcome>> reference;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    if (rotation) {
      rotation->Next();
    }
    const Stopwatch setup;
    cases = BuildCases(set, storm, seed_offsets, &layer.build_case_ms);
    ResetDir(args.workdir);
    std::vector<Outcome> warm;
    for (size_t i = 0; i < n; ++i) {
      warm.push_back(Reproduce(cases[i]).outcome);
    }
    setup_s.push_back(setup.ElapsedSeconds());
    reference.resize(cases.size());
    for (size_t i = 0; i < n; ++i) {
      Expect(&report, cases[i].label + " (set-up pass)", warm[i],
             Reference(&reference[i], warm[i]));
    }
  }

  std::vector<std::vector<double>> repro_ms(cases.size());
  std::vector<double> block_ms;
  int64_t rounds = 0;
  int block = 0;
  RepeatFor(args.trace ? args.seconds / 2 : args.seconds, blocks_per_pass, [&] {
    double ms = 0;
    run_block(block++, [&](size_t i) {
      const Reproduction r = Reproduce(cases[i]);
      Record(&report, cases[i].label, r.outcome, Reference(&reference[i], r.outcome));
      if (!Replays(cases[i], r)) {
        report.Fail(cases[i].label + ": the script does not replay");
      }
      repro_ms[i].push_back(r.ms);
      ms += r.ms;
      rounds += r.outcome.rounds;
      if (r.decision_ns >= 0) {
        layer.sampled_decision_ns.push_back(r.decision_ns);
      }
    });
    block_ms.push_back(ms);
  });
  if (!args.trace) {
    // A case's typical time: its median at each seed, averaged over the seeds.
    std::vector<double> case_ms(n, 0.0);
    for (size_t i = 0; i < cases.size(); ++i) {
      case_ms[i % n] += Percentile(repro_ms[i], 0.5) / blocks_per_pass;
    }
    const double searches = static_cast<double>(n * block_ms.size());
    AddEndToEnd(&report, case_ms, searches / (Sum(block_ms) / 1e3),
                static_cast<double>(rounds) / searches, setup_s);
    return report;
  }

  SpanRecorder spans;
  std::map<int32_t, std::string> search_case;
  std::vector<std::vector<std::vector<interp::InjectionCandidate>>> windows(cases.size());
  const ReplicaEnv env{&spans, &layer.counters};
  int32_t search = 0;
  int traced_block = 0;
  layer.traced_passes = RepeatFor(args.seconds / 2, blocks_per_pass, [&] {
    const bool first = traced_block < blocks_per_pass;
    run_block(traced_block++, [&](size_t i) {
      const Case& c = cases[i];
      spans.set_search(search);
      search_case[search++] = c.id();
      const int32_t root = spans.Begin("search");
      Outcome outcome;
      if (c.chain) {
        outcome = OfChain(*c.spec().program,
                          TracedChainExplore(c.spec(), c.options, kMaxChainLength, env));
      } else {
        ReplicaSearch replica = TracedExplore(c.spec(), c.options, {}, env);
        outcome = OfScript(*c.spec().program, replica.reproduced, replica.rounds, replica.script);
        if (first) {
          windows[i] = std::move(replica.windows);
        }
      }
      spans.End(root);
      Record(&report, c.label + " (traced replica)", outcome, *reference[i]);
    });
  });

  MeasureContexts(std::span<const Case>(cases).first(n), &layer);
  layer.pool_threads = storm ? Parallelism() : 1;
  if (storm) {
    anduril::ThreadPool pool(Parallelism());
    int64_t serial_ns = 0;
    int64_t pooled_ns = 0;
    for (size_t i = 0; i < cases.size(); ++i) {
      const auto [serial, pooled] = TimePlans(cases[i].spec(), cases[i].options, windows[i], &pool);
      serial_ns += serial;
      pooled_ns += pooled;
    }
    layer.pool_speedup =
        pooled_ns > 0 ? static_cast<double>(serial_ns) / static_cast<double>(pooled_ns) : 0;
  }
  const SpanReport summary = Summarize(spans.spans());
  const double traced_block_ms =
      static_cast<double>(summary.root_ns) / 1e6 / layer.traced_passes;
  layer.trace_overhead_frac = traced_block_ms / Mean(block_ms) - 1.0;
  AddLayerMetrics(&report, summary, layer);
  PrintProbes(spans.spans(), search_case);
  return report;
}

struct Drain {
  double wall_ms = 0;
  // Per case, from queue submission to its last slice (-1 if it never ran one).
  std::vector<double> latency_ms;
  service::ServeReport report;
};

std::vector<service::QueueCase> Queue(const std::vector<Case>& cases) {
  std::vector<service::QueueCase> queue;
  for (const Case& c : cases) {
    service::QueueCase entry;
    entry.id = c.id();
    entry.chain = c.chain;
    entry.round_budget = kRoundBudget;
    queue.push_back(std::move(entry));
  }
  return queue;
}

// One queue drained by service::RunService. Workers are this binary's
// `worker` mode (RunService execs /proc/self/exe).
Drain RunDrain(const std::vector<Case>& cases, const std::string& state_dir, int workers) {
  ResetDir(state_dir);
  service::ServeOptions options;
  options.state_dir = state_dir;
  options.seed_cases = Queue(cases);
  options.slice_rounds = kSliceRounds;
  options.workers = workers;
  options.verbose = false;
  Drain drain;
  const fs::file_time_type submitted = fs::file_time_type::clock::now();
  const Stopwatch timer;
  drain.report = service::RunService(options);
  drain.wall_ms = timer.ElapsedMillis();
  // Every slice rewrites its case's metrics file as it ends, so the file's
  // modification time is when the case's last slice finished.
  for (const Case& c : cases) {
    std::error_code ec;
    const fs::file_time_type done =
        fs::last_write_time(service::CaseMetricsPath(state_dir, c.id()), ec);
    drain.latency_ms.push_back(
        ec ? -1.0 : std::chrono::duration<double, std::milli>(done - submitted).count());
  }
  std::error_code ec;
  fs::remove_all(state_dir, ec);
  return drain;
}

void CheckDrain(Report* report, const Drain& drain, const std::vector<Case>& cases,
                const std::vector<Outcome>& reference, const std::string& label) {
  if (drain.report.error || drain.report.interrupted) {
    report->Fail(label + ": the service stopped early: " + drain.report.error_text);
  }
  const std::vector<service::QueueCase>& queue = drain.report.manifest.cases;
  if (queue.size() != cases.size()) {
    report->Fail(label + ": the manifest lost cases");
    return;
  }
  for (size_t i = 0; i < cases.size(); ++i) {
    Record(report, cases[i].label + " (" + label + ")", OfQueueCase(queue[i]), reference[i]);
  }
}

// The in-process daemon loop (Daemon::RunInProcess), slice by slice, with a
// span around each call into the service.
std::vector<Outcome> TracedDrain(const std::vector<Case>& cases, const std::string& state_dir,
                                 SpanRecorder* spans, LayerInputs* layer, Report* report) {
  ResetDir(state_dir);
  service::QueueManifest manifest;
  manifest.slice_rounds = kSliceRounds;
  manifest.cases = Queue(cases);
  const std::string manifest_path = service::ManifestPath(state_dir);
  auto journal = [&] {
    ScopedSpan span(spans, "service.manifest_save");
    if (!service::SaveManifestFile(manifest_path, manifest)) {
      report->Fail("cannot journal " + manifest_path);
    }
  };
  service::ContextCache cache;
  std::set<std::string> cached;
  const int32_t root = spans->Begin("drain");
  journal();
  while (!manifest.AllTerminal()) {
    {
      ScopedSpan span(spans, "service.schedule");
      service::ApplyStarveOut(&manifest);
    }
    journal();
    int index = -1;
    {
      ScopedSpan span(spans, "service.schedule");
      index = service::PickNextCase(manifest, {});
    }
    if (index < 0) {
      break;
    }
    service::QueueCase& entry = manifest.cases[static_cast<size_t>(index)];
    service::WorkUnit unit;
    unit.case_id = entry.id;
    unit.chain = entry.chain;
    unit.slice_rounds = manifest.slice_rounds;
    unit.round_budget = entry.round_budget;
    unit.checkpoint_path = service::CaseCheckpointPath(state_dir, entry.id);
    unit.metrics_path = service::CaseMetricsPath(state_dir, entry.id);
    unit.daemon_pid = getpid();
    service::WorkUnit received;
    std::string error;
    bool parsed = false;
    {
      ScopedSpan span(spans, "service.ipc");
      parsed = service::ParseWorkUnit(service::SerializeWorkUnit(unit), &received, &error);
    }
    if (!parsed) {
      report->Fail("work unit round trip: " + error);
      break;
    }
    if (cached.insert(entry.id).second) {
      ScopedSpan span(spans, "service.case_rebuild");
      cache.Get(*sys::FindCase(entry.id));
    }
    service::WorkResult result;
    {
      ScopedSpan span(spans, "service.slice");
      result = service::RunSlice(&cache, received, nullptr);
    }
    result.daemon_pid = unit.daemon_pid;
    service::WorkResult applied;
    {
      ScopedSpan span(spans, "service.ipc");
      parsed = service::ParseWorkResult(service::SerializeWorkResult(result), &applied, &error);
    }
    if (!parsed) {
      report->Fail("work result round trip: " + error);
      break;
    }
    // Daemon::ApplyResult.
    entry.rounds_done = std::max(entry.rounds_done, applied.rounds_done);
    ++entry.slices_done;
    entry.crashes = 0;
    if (applied.status == service::SliceStatus::kReproduced) {
      entry.state = service::CaseState::kReproduced;
      entry.script = applied.script;
      entry.script_seed = applied.script_seed;
    } else if (applied.status == service::SliceStatus::kExhausted) {
      entry.state = service::CaseState::kStarved;
    } else if (applied.status == service::SliceStatus::kError) {
      entry.state = service::CaseState::kFailed;
      report->Fail(entry.id + ": slice error: " + applied.error);
    }
    {
      ScopedSpan span(spans, "service.schedule");
      service::ApplyStarveOut(&manifest);
    }
    journal();
  }
  spans->End(root);

  // Outside the drain's timeline: load and re-save every checkpoint it left.
  double load_us = 0;
  double save_us = 0;
  int files = 0;
  for (const Case& c : cases) {
    const std::string path = service::CaseCheckpointPath(state_dir, c.id());
    if (!fs::exists(path)) {
      continue;
    }
    ex::SearchCheckpoint checkpoint;
    std::string load_error;
    Stopwatch timer;
    if (!ex::LoadCheckpointFile(path, &checkpoint, &load_error)) {
      report->Fail(c.label + ": cannot load its checkpoint: " + load_error);
      continue;
    }
    load_us += timer.ElapsedMicros();
    timer.Reset();
    if (!ex::SaveCheckpointFile(path + ".resaved", checkpoint)) {
      report->Fail(c.label + ": cannot save its checkpoint");
      continue;
    }
    save_us += timer.ElapsedMicros();
    ++files;
  }
  if (files > 0) {
    layer->checkpoint_load_us = load_us / files;
    layer->checkpoint_save_us = save_us / files;
  }
  std::vector<Outcome> outcomes;
  for (const service::QueueCase& entry : manifest.cases) {
    outcomes.push_back(OfQueueCase(entry));
  }
  std::error_code ec;
  fs::remove_all(state_dir, ec);
  return outcomes;
}

// serve-sliced: the registry-serial case set as one queue, drained by the
// service with short slices across worker processes.
Report RunServe(const Args& args) {
  Report report;
  LayerInputs layer;
  const std::vector<const sys::FailureCase*> set = CaseSet(/*storm=*/false, args.seed);
  const int workers = Parallelism();

  std::vector<Case> cases;
  std::vector<Drain> warm;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const Stopwatch setup;
    cases = BuildCases(set, /*storm=*/false, {0}, &layer.build_case_ms);
    ResetDir(args.workdir);
    warm.push_back(RunDrain(cases, args.workdir + "/warm", workers));
    setup_s.push_back(setup.ElapsedSeconds());
  }
  // registry-serial's outcomes at the same seed: what every drain must match.
  std::vector<Outcome> reference;
  double serial_ms = 0;
  for (const Case& c : cases) {
    const Reproduction r = Reproduce(c);
    if (!Replays(c, r)) {
      report.Fail(c.label + ": the script does not replay");
    }
    reference.push_back(r.outcome);
    serial_ms += r.ms;
  }
  for (const Drain& drain : warm) {
    // Set-up drains are checked but not counted as attempted searches.
    Report setup_check;
    CheckDrain(&setup_check, drain, cases, reference, "set-up drain");
    for (const std::string& error : setup_check.errors) {
      report.Fail(error);
    }
  }

  std::vector<std::vector<double>> latency_ms(cases.size());
  std::vector<double> wall_ms;
  int64_t rounds = 0;
  double respawns = 0;
  RepeatFor(args.trace ? args.seconds / 2 : args.seconds, args.trace ? 1 : 2, [&] {
    const Drain drain = RunDrain(cases, args.workdir + "/drain", workers);
    CheckDrain(&report, drain, cases, reference, "serve-sliced");
    for (size_t i = 0; i < cases.size(); ++i) {
      if (drain.latency_ms[i] >= 0) {
        latency_ms[i].push_back(drain.latency_ms[i]);
      }
    }
    wall_ms.push_back(drain.wall_ms);
    respawns += drain.report.worker_respawns;
    for (const service::QueueCase& entry : drain.report.manifest.cases) {
      rounds += entry.rounds_done;
    }
  });
  const double queued = static_cast<double>(cases.size() * wall_ms.size());
  const double repro_per_s = queued / (Sum(wall_ms) / 1e3);
  if (!args.trace) {
    std::vector<double> case_ms;
    for (const std::vector<double>& samples : latency_ms) {
      if (!samples.empty()) {
        case_ms.push_back(Percentile(samples, 0.5));
      }
    }
    AddEndToEnd(&report, case_ms, repro_per_s, static_cast<double>(rounds) / queued, setup_s);
    return report;
  }

  layer.respawns = respawns / static_cast<double>(wall_ms.size());
  layer.vs_serial_ratio = repro_per_s / (static_cast<double>(cases.size()) / (serial_ms / 1e3));
  // The untraced in-process drain the traced one is compared against.
  const Drain in_process = RunDrain(cases, args.workdir + "/in-process", 0);
  CheckDrain(&report, in_process, cases, reference, "in-process drain");

  SpanRecorder spans;
  layer.traced_passes = RepeatFor(args.seconds / 2, 1, [&] {
    const std::vector<Outcome> outcomes =
        TracedDrain(cases, args.workdir + "/traced", &spans, &layer, &report);
    for (size_t i = 0; i < cases.size(); ++i) {
      Record(&report, cases[i].label + " (traced drain)", outcomes[i], reference[i]);
    }
  });
  MeasureContexts(cases, &layer);
  const SpanReport summary = Summarize(spans.spans());
  const auto slices = summary.by_name.find("service.slice");
  if (slices != summary.by_name.end()) {
    const double passes = layer.traced_passes;
    layer.slices_per_case =
        static_cast<double>(slices->second.count) / (passes * static_cast<double>(cases.size()));
    // Slice time measured in-process, spread over the sharded drain's workers.
    const double slice_ms_per_drain = static_cast<double>(slices->second.total_ns) / 1e6 / passes;
    layer.service_busy_frac = slice_ms_per_drain / (workers * Percentile(wall_ms, 0.5));
  }
  layer.trace_overhead_frac =
      static_cast<double>(summary.root_ns) / 1e6 / layer.traced_passes / in_process.wall_ms - 1.0;
  AddLayerMetrics(&report, summary, layer);
  return report;
}

}  // namespace

bool KnownWorkload(const std::string& workload) {
  return workload == "registry-serial" || workload == "storm-rep4" ||
         workload == "serve-sliced";
}

void ShiftRegistrySeeds(uint64_t shift) {
  // The registries are heap-allocated, non-const vectors handed out by const
  // reference, so shifting the seeds in place is well defined.
  for (const std::vector<sys::FailureCase>* registry :
       {&sys::AllCases(), &sys::CrashStallCases(), &sys::NetworkCases(), &sys::CascadeCases(),
        &sys::StormCases()}) {
    for (sys::FailureCase& failure_case : const_cast<std::vector<sys::FailureCase>&>(*registry)) {
      failure_case.explore_seed += shift;
    }
  }
}

Report RunWorkload(const Args& args) {
  return args.workload == "serve-sliced" ? RunServe(args) : RunInProcess(args);
}

}  // namespace reprobench
