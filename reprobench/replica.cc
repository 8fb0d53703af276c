#include "reprobench/replica.h"

#include <algorithm>
#include <future>
#include <string>
#include <unordered_set>

#include "src/analysis/causal_graph.h"
#include "src/analysis/observable_map.h"
#include "src/explorer/strategy.h"
#include "src/interp/log_entry.h"
#include "src/interp/simulator.h"
#include "src/ir/flatten.h"
#include "src/logdiff/compare.h"
#include "src/logdiff/parser.h"
#include "src/util/stopwatch.h"

namespace reprobench {
namespace {

namespace analysis = anduril::analysis;
namespace ex = anduril::explorer;
namespace interp = anduril::interp;
namespace ir = anduril::ir;
namespace logdiff = anduril::logdiff;
using anduril::Stopwatch;
using anduril::ThreadPool;

using Window = std::vector<interp::InjectionCandidate>;

// One plan item's run, as the explorer's RepRun.
struct ItemRun {
  interp::RunResult run;
  uint64_t seed = 0;
  bool success = false;  // oracle holds and the window fired
};

// Per-thread runtime and run buffers, reused across runs the way the
// explorer reuses its own.
struct ThreadState {
  interp::RunScratch scratch;
  std::unique_ptr<interp::FaultRuntime> runtime;
};

ThreadState& Local() {
  thread_local ThreadState state;
  return state;
}

// Records [start, now) under `parent` and returns now.
int64_t Mark(SpanRecorder* spans, const char* name, int64_t start, int32_t parent) {
  const int64_t end = NowNs();
  if (spans != nullptr) {
    spans->Add(name, start, end, parent, /*concurrent=*/false);
  }
  return end;
}

// The explorer's seed for repetition `rep` of `round`.
std::vector<uint64_t> PlanSeeds(const ex::ExperimentSpec& spec, int round, int repetitions) {
  std::vector<uint64_t> seeds;
  for (int rep = 0; rep < repetitions; ++rep) {
    seeds.push_back(spec.base_seed +
                    static_cast<uint64_t>(round) * static_cast<uint64_t>(repetitions) +
                    static_cast<uint64_t>(rep));
  }
  return seeds;
}

ItemRun RunItem(const ex::ExperimentSpec& spec, const ir::FlatProgram* flat,
                const Window& window, uint64_t seed, SpanRecorder* spans, int32_t parent) {
  ItemRun item;
  item.seed = seed;
  ThreadState& local = Local();
  if (local.runtime == nullptr || &local.runtime->program() != spec.program) {
    local.runtime = std::make_unique<interp::FaultRuntime>(spec.program);
  }
  local.runtime->set_tracing(true);
  local.runtime->SetWindow(window);
  local.runtime->SetPinned(spec.pinned_faults);
  int64_t start = NowNs();
  {
    interp::Simulator simulator(spec.program, spec.cluster, seed, local.runtime.get(), flat,
                                &local.scratch);
    item.run = simulator.Run();
  }
  start = Mark(spans, "interp.simulate", start, parent);
  item.success = spec.oracle(*spec.program, item.run) && item.run.injected.has_value();
  Mark(spans, "explorer.oracle", start, parent);
  return item;
}

// Runs an item on a pool thread inside a concurrent "pool.item" span.
ItemRun RunPooledItem(const ex::ExperimentSpec& spec, const ir::FlatProgram* flat,
                      const Window& window, uint64_t seed, SpanRecorder* spans,
                      int32_t pool_span) {
  const int64_t start = NowNs();
  const int32_t id =
      spans != nullptr ? spans->Add("pool.item", start, start, pool_span, true) : -1;
  ItemRun item = RunItem(spec, flat, window, seed, spans, id);
  if (spans != nullptr) {
    spans->SetEnd(id, NowNs());
  }
  return item;
}

// The explorer's ExecutePlan: serially up to the first success, or every
// item on the pool.
std::vector<ItemRun> ExecutePlan(const ex::ExperimentSpec& spec, const ir::FlatProgram* flat,
                                 const Window& window, const std::vector<uint64_t>& seeds,
                                 ThreadPool* pool, SpanRecorder* spans, int32_t parent) {
  std::vector<ItemRun> executed;
  if (pool != nullptr && seeds.size() > 1) {
    ScopedSpan span(spans, "pool.round");
    std::vector<std::future<ItemRun>> futures;
    for (uint64_t seed : seeds) {
      futures.push_back(pool->Submit([&spec, flat, &window, seed, spans, id = span.id()]() {
        return RunPooledItem(spec, flat, window, seed, spans, id);
      }));
    }
    for (std::future<ItemRun>& future : futures) {
      executed.push_back(future.get());
    }
    return executed;
  }
  for (uint64_t seed : seeds) {
    executed.push_back(RunItem(spec, flat, window, seed, spans, parent));
    if (executed.back().success) {
      break;
    }
  }
  return executed;
}

// The explorer's KeysOfRun, one span per step.
std::unordered_set<std::string> RunKeys(const interp::RunResult& run, SpanRecorder* spans,
                                        int32_t parent) {
  int64_t start = NowNs();
  std::string text = interp::FormatLogFile(run.log);
  start = Mark(spans, "interp.format_log", start, parent);
  logdiff::ParsedLog log = logdiff::ParseLogFile(text);
  {
    const std::string consumed = std::move(text);
  }
  start = Mark(spans, "logdiff.parse_run_log", start, parent);
  std::unordered_set<std::string> keys;
  for (const logdiff::ParsedLine& line : log.lines) {
    keys.insert(line.key);
  }
  {
    const logdiff::ParsedLog consumed = std::move(log);
  }
  Mark(spans, "explorer.run_keys", start, parent);
  return keys;
}

std::unordered_set<std::string> CombinedKeys(const std::vector<ItemRun>& executed,
                                             ThreadPool* pool, SpanRecorder* spans,
                                             int32_t parent) {
  std::unordered_set<std::string> combined;
  if (pool != nullptr && executed.size() > 1) {
    ScopedSpan span(spans, "pool.digest");
    std::vector<std::future<std::unordered_set<std::string>>> futures;
    for (const ItemRun& item : executed) {
      futures.push_back(pool->Submit([&item, spans, pool_span = span.id()]() {
        const int64_t start = NowNs();
        const int32_t id =
            spans != nullptr ? spans->Add("pool.item", start, start, pool_span, true) : -1;
        std::unordered_set<std::string> keys = RunKeys(item.run, spans, id);
        if (spans != nullptr) {
          spans->SetEnd(id, NowNs());
        }
        return keys;
      }));
    }
    for (auto& future : futures) {
      combined.merge(future.get());
    }
    return combined;
  }
  for (const ItemRun& item : executed) {
    combined.merge(RunKeys(item.run, spans, parent));
  }
  return combined;
}

std::vector<std::string> PresentKeys(const ex::ExplorerContext& context,
                                     const std::unordered_set<std::string>& run_keys) {
  std::vector<std::string> present;
  for (const ex::ObservableInfo& observable : context.observables()) {
    if (run_keys.contains(observable.key)) {
      present.push_back(observable.key);
    }
  }
  return present;
}

bool Wedged(interp::RunOutcome outcome) {
  return outcome == interp::RunOutcome::kCrashed || outcome == interp::RunOutcome::kHung ||
         outcome == interp::RunOutcome::kPartitionedStuck;
}

}  // namespace

ReplicaSearch TracedExplore(const ex::ExperimentSpec& spec, const ex::ExplorerOptions& options,
                            const std::vector<ir::FaultSiteId>& stitched_sites,
                            const ReplicaEnv& env) {
  SpanRecorder* spans = env.spans;
  ReplicaCounters& counters = *env.counters;
  ReplicaSearch out;
  {
    ScopedSpan span(spans, "explorer.context");
    out.context = std::make_shared<const ex::ExplorerContext>(spec, options);
  }
  const ex::ExplorerContext& context = *out.context;
  std::unique_ptr<ex::InjectionStrategy> strategy = ex::MakeFullFeedbackStrategy();
  {
    ScopedSpan span(spans, "explorer.initialize");
    strategy->SeedStitchedSites(stitched_sites);
    strategy->Initialize(context);
  }
  std::optional<ThreadPool> pool;
  if (options.num_threads > 1) {
    ScopedSpan span(spans, "pool.create");
    pool.emplace(options.num_threads);
  }
  const ir::FlatProgram* flat = context.flat_program();
  if (flat != nullptr && flat->program() != spec.program) {
    flat = nullptr;
  }
  const int repetitions = std::max(1, options.runs_per_round);

  for (int round = 1; round <= options.max_rounds; ++round) {
    ScopedSpan round_span(spans, "explorer.round");
    Window window;
    {
      ScopedSpan span(spans, "explorer.next_window");
      window = strategy->NextWindow();
    }
    if (window.empty() && strategy->Exhausted()) {
      break;
    }
    out.windows.push_back(window);

    std::vector<ItemRun> executed =
        ExecutePlan(spec, flat, window, PlanSeeds(spec, round, repetitions),
                    pool ? &*pool : nullptr, spans, round_span.id());
    const ItemRun* selected = &executed.front();
    for (const ItemRun& item : executed) {
      if (item.success) {
        selected = &item;
        break;
      }
    }
    const interp::RunResult& run = selected->run;
    for (const ItemRun& item : executed) {
      ++counters.runs;
      counters.log_lines += static_cast<int64_t>(item.run.log.size());
      counters.injection_requests += item.run.injection_requests;
    }
    ++counters.rounds;
    counters.injected_rounds += run.injected.has_value() ? 1 : 0;
    counters.wedged_rounds += Wedged(run.outcome) ? 1 : 0;

    bool success = false;
    {
      ScopedSpan span(spans, "explorer.oracle");
      success = spec.oracle(*spec.program, run);
    }
    ReplicaSearch::Round record;
    record.round = round;
    record.injected = run.injected.has_value();
    if (record.injected) {
      record.candidate = *run.injected;
    }

    if (success && run.injected.has_value()) {
      // The explorer counts the successful round's observables too.
      const std::unordered_set<std::string> keys = RunKeys(run, spans, round_span.id());
      {
        ScopedSpan span(spans, "explorer.present_keys");
        record.present_observables = static_cast<int>(PresentKeys(context, keys).size());
      }
      out.records.push_back(record);
      out.reproduced = true;
      out.rounds = round;
      out.script = ex::ReproductionScript{run.injected->site, run.injected->occurrence,
                                          run.injected->type, run.injected->kind,
                                          selected->seed};
      break;
    }

    ex::RoundOutcome outcome;
    outcome.round = round;
    outcome.outcome = run.outcome;
    for (const ItemRun& item : executed) {
      for (const interp::InjectionCandidate& candidate : item.run.preempted_window) {
        if (std::find(outcome.preempted.begin(), outcome.preempted.end(), candidate) ==
            outcome.preempted.end()) {
          outcome.preempted.push_back(candidate);
        }
      }
    }
    outcome.injected = run.injected;
    const std::unordered_set<std::string> keys =
        CombinedKeys(executed, pool ? &*pool : nullptr, spans, round_span.id());
    {
      ScopedSpan span(spans, "explorer.present_keys");
      outcome.present_keys = PresentKeys(context, keys);
    }
    record.present_observables = static_cast<int>(outcome.present_keys.size());
    {
      ScopedSpan span(spans, "explorer.on_round");
      strategy->OnRound(outcome);
    }
    out.records.push_back(record);
    out.rounds = round;
    Local().scratch.Recycle(std::move(executed.back().run));
  }
  if (pool) {
    ScopedSpan span(spans, "pool.join");
    pool.reset();
  }
  return out;
}

ex::ChainResult TracedChainExplore(const ex::ExperimentSpec& base_spec,
                                   const ex::ExplorerOptions& options, int max_chain_length,
                                   const ReplicaEnv& env) {
  ex::ChainResult result;
  ex::ExperimentSpec spec = base_spec;
  std::vector<ir::FaultSiteId> stitched;
  for (int phase = 0; phase < max_chain_length; ++phase) {
    ++result.phases;
    const ReplicaSearch search = TracedExplore(spec, options, stitched, env);
    result.total_rounds += search.rounds;
    if (search.reproduced) {
      const ex::ReproductionScript& script = *search.script;
      result.reproduced = true;
      result.chain.steps.push_back(ex::FaultChainStep{
          interp::InjectionCandidate{script.site, script.occurrence, script.type, script.kind},
          script.seed, search.rounds, {}});
      return result;
    }
    if (phase + 1 == max_chain_length) {
      break;
    }

    // ChainExplorer's stitch-candidate pick: injected rounds deduplicated by
    // candidate, most observables first, then earliest round.
    std::vector<ReplicaSearch::Round> summaries;
    for (const ReplicaSearch::Round& record : search.records) {
      if (!record.injected) {
        continue;
      }
      auto existing = std::find_if(summaries.begin(), summaries.end(), [&](const auto& s) {
        return s.candidate == record.candidate;
      });
      if (existing == summaries.end()) {
        summaries.push_back(record);
      } else if (record.present_observables > existing->present_observables ||
                 (record.present_observables == existing->present_observables &&
                  record.round < existing->round)) {
        *existing = record;
      }
    }
    std::stable_sort(summaries.begin(), summaries.end(), [](const auto& a, const auto& b) {
      if (a.present_observables != b.present_observables) {
        return a.present_observables > b.present_observables;
      }
      return a.round < b.round;
    });

    bool extended = false;
    for (const ReplicaSearch::Round& summary : summaries) {
      ex::StitchRunResult stitch;
      {
        ScopedSpan span(env.spans, "explorer.stitch_run");
        stitch = ex::RunChainStitch(spec, summary.candidate, options);
      }
      if (stitch.demote_chain) {
        ++result.demoted_chain_candidates;
        continue;
      }
      std::vector<std::string> flipped;
      std::vector<ir::FaultSiteId> new_sites;
      {
        ScopedSpan span(env.spans, "explorer.stitch_digest");
        std::unordered_set<std::string> keys;
        for (const logdiff::ParsedLine& line :
             logdiff::ParseLogFile(interp::FormatLogFile(stitch.run.log)).lines) {
          keys.insert(line.key);
        }
        flipped = PresentKeys(*search.context, keys);
        std::unordered_set<ir::FaultSiteId> seen;
        for (const interp::FaultInstanceEvent& event : stitch.run.trace) {
          if (seen.insert(event.site).second && search.context->InstancesOf(event.site).empty()) {
            new_sites.push_back(event.site);
          }
        }
        std::sort(new_sites.begin(), new_sites.end());
      }
      if (flipped.empty() && new_sites.empty()) {
        continue;
      }
      spec.pinned_faults.push_back(summary.candidate);
      result.chain.steps.push_back(
          ex::FaultChainStep{summary.candidate, spec.base_seed, search.rounds, flipped});
      stitched = std::move(new_sites);
      extended = true;
      break;
    }
    if (!extended) {
      break;
    }
  }
  return result;
}

double ContextParts::PartsMs() const {
  return parse_failure_log_ms + flatten_ms + baseline_run_ms + parse_normal_log_ms +
         compare_ms + observable_map_ms + causal_graph_ms + distances_ms + align_ms;
}

ContextParts& ContextParts::operator+=(const ContextParts& other) {
  parse_failure_log_ms += other.parse_failure_log_ms;
  flatten_ms += other.flatten_ms;
  baseline_run_ms += other.baseline_run_ms;
  parse_normal_log_ms += other.parse_normal_log_ms;
  compare_ms += other.compare_ms;
  observable_map_ms += other.observable_map_ms;
  causal_graph_ms += other.causal_graph_ms;
  exception_ms += other.exception_ms;
  slicing_ms += other.slicing_ms;
  chaining_ms += other.chaining_ms;
  distances_ms += other.distances_ms;
  align_ms += other.align_ms;
  constructor_ms += other.constructor_ms;
  candidates += other.candidates;
  observables += other.observables;
  dynamic_instances += other.dynamic_instances;
  return *this;
}

Decomposition DecomposeContext(const ex::ExperimentSpec& spec,
                               const ex::ExplorerOptions& options) {
  Decomposition out;
  ContextParts& parts = out.parts;
  const ir::Program& program = *spec.program;
  Stopwatch timer;
  const logdiff::ParsedLog failure_log = logdiff::ParseLogFile(spec.failure_log_text);
  parts.parse_failure_log_ms = timer.ElapsedMillis();

  timer.Reset();
  const auto flat = std::make_unique<const ir::FlatProgram>(program);
  parts.flatten_ms = timer.ElapsedMillis();

  timer.Reset();
  interp::FaultRuntime runtime(&program);
  runtime.SetPinned(spec.pinned_faults);
  interp::Simulator simulator(&program, spec.cluster, spec.base_seed, &runtime, flat.get());
  const interp::RunResult normal = simulator.Run();
  parts.baseline_run_ms = timer.ElapsedMillis();

  timer.Reset();
  const logdiff::ParsedLog normal_log = logdiff::ParseLogFile(interp::FormatLogFile(normal.log));
  parts.parse_normal_log_ms = timer.ElapsedMillis();

  timer.Reset();
  const logdiff::LogComparison comparison = logdiff::CompareLogs(normal_log, failure_log);
  parts.compare_ms = timer.ElapsedMillis();

  timer.Reset();
  const analysis::ObservableMapper mapper(program);
  const std::vector<analysis::CausalSink> sinks = mapper.Resolve(comparison.target_only_keys);
  parts.observable_map_ms = timer.ElapsedMillis();

  timer.Reset();
  const analysis::CausalGraph graph(program, sinks);
  parts.causal_graph_ms = timer.ElapsedMillis();
  parts.exception_ms = graph.stats().exception_seconds * 1e3;
  parts.slicing_ms = graph.stats().slicing_seconds * 1e3;
  parts.chaining_ms = graph.stats().chaining_seconds * 1e3;

  timer.Reset();
  std::vector<std::vector<int32_t>> distances;
  for (int32_t k = 0; k < graph.num_observables(); ++k) {
    distances.push_back(graph.DistancesToObservable(k));
  }
  parts.distances_ms = timer.ElapsedMillis();

  timer.Reset();
  const logdiff::TimelineAlignment alignment(comparison.matches,
                                             static_cast<int64_t>(normal_log.lines.size()),
                                             static_cast<int64_t>(failure_log.lines.size()));
  std::vector<int64_t> positions;
  positions.reserve(normal.trace.size());
  for (const interp::FaultInstanceEvent& event : normal.trace) {
    positions.push_back(alignment.MapPosition(event.log_clock));
  }
  parts.align_ms = timer.ElapsedMillis();

  timer.Reset();
  out.context = std::make_shared<const ex::ExplorerContext>(spec, options);
  parts.constructor_ms = timer.ElapsedMillis();
  parts.candidates = static_cast<int64_t>(out.context->candidates().size());
  parts.observables = static_cast<int64_t>(out.context->observables().size());
  parts.dynamic_instances = static_cast<int64_t>(out.context->normal_trace().size());
  return out;
}

HookBatch TimeHookBatch(const ex::ExplorerContext& context, int64_t min_requests) {
  const ir::Program& program = context.program();
  // Hook arguments decoded up front, so the timed loop is the decisions alone.
  struct Call {
    ir::FaultSiteId site = ir::kInvalidId;
    ir::ExceptionTypeId transient_type = ir::kInvalidId;
    int32_t transient_every_n = 0;
    bool send = false;
    int64_t log_clock = 0;
    int64_t time_ms = 0;
    int32_t thread = 0;
  };
  std::vector<Call> calls;
  calls.reserve(context.normal_trace().size());
  for (const interp::FaultInstanceEvent& event : context.normal_trace()) {
    const ir::FaultSite& site = program.fault_site(event.site);
    const ir::Stmt& stmt = program.method(site.location.method).stmt(site.location.stmt);
    calls.push_back(Call{event.site, stmt.exception_type, stmt.transient_every_n,
                         site.kind == ir::FaultSiteKind::kSend, event.log_clock, event.time_ms,
                         event.thread_id});
  }
  HookBatch batch;
  if (calls.empty()) {
    return batch;
  }
  std::vector<interp::InjectionCandidate> window;
  for (size_t i = 0; i < std::min<size_t>(10, context.candidates().size()); ++i) {
    window.push_back(ex::Arm(context.candidates()[i], int64_t{1} << 40));
  }
  interp::FaultRuntime runtime(&program);
  runtime.set_tracing(true);
  runtime.SetWindow(window);
  runtime.SetPinned(context.spec().pinned_faults);
  int64_t occurrences = 0;
  while (batch.requests < min_requests) {
    runtime.BeginRun();
    const int64_t start = NowNs();
    for (const Call& call : calls) {
      const interp::FaultAction action =
          call.send ? runtime.OnSendFast(call.site, call.log_clock, call.time_ms, call.thread)
                    : runtime.OnExternalCallFast(call.site, call.transient_type,
                                                 call.transient_every_n, call.log_clock,
                                                 call.time_ms, call.thread);
      occurrences += action.occurrence;
    }
    batch.nanos += NowNs() - start;
    batch.requests += static_cast<int64_t>(calls.size());
  }
  // Every decision numbers its occurrence; a batch that skipped work would not add up.
  if (occurrences <= 0) {
    batch.nanos = 0;
  }
  return batch;
}

std::pair<int64_t, int64_t> TimePlans(const ex::ExperimentSpec& spec,
                                      const ex::ExplorerOptions& options,
                                      const std::vector<Window>& windows, ThreadPool* pool) {
  const ir::FlatProgram flat(*spec.program);
  const int repetitions = std::max(1, options.runs_per_round);
  int64_t serial_ns = 0;
  int64_t pooled_ns = 0;
  for (size_t r = 0; r < windows.size(); ++r) {
    const std::vector<uint64_t> seeds =
        PlanSeeds(spec, static_cast<int>(r) + 1, repetitions);
    int64_t start = NowNs();
    for (uint64_t seed : seeds) {
      RunItem(spec, &flat, windows[r], seed, nullptr, -1);
    }
    serial_ns += NowNs() - start;
    start = NowNs();
    std::vector<std::future<ItemRun>> futures;
    for (uint64_t seed : seeds) {
      futures.push_back(pool->Submit([&spec, &flat, &window = windows[r], seed]() {
        return RunItem(spec, &flat, window, seed, nullptr, -1);
      }));
    }
    for (std::future<ItemRun>& future : futures) {
      future.get();
    }
    pooled_ns += NowNs() - start;
  }
  return {serial_ns, pooled_ns};
}

}  // namespace reprobench
