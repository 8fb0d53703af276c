#include "src/explorer/explorer.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <optional>
#include <utility>

#include "src/interp/simulator.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/stopwatch.h"
#include "src/util/strings.h"
#include "src/util/thread_pool.h"

namespace anduril::explorer {

namespace {

template <typename T>
T Median(std::vector<T> values) {
  if (values.empty()) {
    return T{};
  }
  size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(mid), values.end());
  T upper = values[mid];
  if (values.size() % 2 != 0) {
    return upper;
  }
  T lower = *std::max_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(mid));
  return lower + (upper - lower) / 2;
}

// One simulation of a round: its own runtime + simulator (nothing shared
// mutable), so any number of these execute concurrently over the same const
// Program / ClusterSpec.
struct RepRun {
  interp::RunResult run;
  uint64_t seed = 0;
  bool success = false;  // oracle holds AND the window injection fired
  // Per context observable: 1 when this run's log shows its key. Empty when
  // the strategy takes no log feedback.
  std::vector<uint8_t> present;
};

// Per-worker scratch: the simulator's pooled buffers survive across the
// runs executed on this thread, so back-to-back runs keep their heap
// allocations (environments, event heap, recycled thread objects — and,
// via Recycle, consumed results' log/trace buffers) instead of
// reallocating them every run.
interp::RunScratch& LocalScratch() {
  thread_local interp::RunScratch scratch;
  return scratch;
}

// Simulates one run of a round over the context's spec and lowered program
// and, when `feedback` is set, digests its log into per-observable flags
// right here on the simulating thread. Search runs record no fault-instance
// trace: nothing in the round loop reads it. A run starts from the context's
// latest fault-free snapshot before every instance it arms, when there is
// one, and simulates only the rest of the run.
RepRun ExecuteOne(const ExplorerContext& context,
                  const std::vector<interp::InjectionCandidate>& window, uint64_t seed,
                  bool feedback, obs::MetricsRegistry* metrics) {
  const ExperimentSpec& spec = context.spec();
  RepRun rep;
  rep.seed = seed;
  interp::RunScratch& scratch = LocalScratch();
  thread_local std::unique_ptr<interp::FaultRuntime> runtime;
  if (runtime == nullptr || &runtime->program() != spec.program) {
    runtime = std::make_unique<interp::FaultRuntime>(spec.program);
  }
  runtime->set_tracing(false);
  runtime->SetWindow(window);
  runtime->SetPinned(spec.pinned_faults);
  interp::Simulator simulator(spec.program, spec.cluster, seed, runtime.get(),
                              context.flat_program(), &scratch);
  simulator.set_metrics(metrics);
  simulator.set_start(context.ForkPoint(window), &context.baseline_log());
  rep.run = simulator.Run();
  rep.success = spec.oracle(*spec.program, rep.run) && rep.run.injected.has_value();
  if (feedback) {
    // Reused across this thread's runs: steady-state digests overwrite its
    // strings in place instead of allocating a line's worth per entry.
    thread_local logdiff::ParsedLog digest;
    interp::DigestLog(rep.run.log, &digest);
    rep.present = context.ObservablesIn(digest);
  }
  return rep;
}

// Executes a round: `repetitions` runs of its whole window at seeds
// first_seed, first_seed + 1, ..., in priority order. Serial mode stops at
// the first success (later runs are never needed: a successful round skips
// feedback digestion, and on an unsuccessful round everything ran anyway).
// Parallel mode runs every seed and the caller selects the first success in
// seed order, whichever thread finished first, so it selects what the serial
// loop would.
std::vector<RepRun> ExecuteRound(const ExplorerContext& context,
                                 const std::vector<interp::InjectionCandidate>& window,
                                 uint64_t first_seed, int repetitions, ThreadPool* pool,
                                 bool feedback, obs::MetricsRegistry* metrics) {
  std::vector<RepRun> executed;
  if (pool != nullptr) {
    std::vector<std::future<RepRun>> futures;
    for (uint64_t rep = 0; rep < static_cast<uint64_t>(repetitions); ++rep) {
      futures.push_back(pool->Submit(
          [&context, &window, seed = first_seed + rep, feedback, metrics]() {
            return ExecuteOne(context, window, seed, feedback, metrics);
          }));
    }
    for (std::future<RepRun>& future : futures) {
      executed.push_back(future.get());
    }
  } else {
    for (uint64_t rep = 0; rep < static_cast<uint64_t>(repetitions); ++rep) {
      executed.push_back(ExecuteOne(context, window, first_seed + rep, feedback, metrics));
      if (executed.back().success) {
        break;
      }
    }
  }
  return executed;
}

// Keys of the observables any of `runs` showed, in the context's
// (deterministic) order.
std::vector<std::string> PresentKeys(const ExplorerContext& context,
                                     const std::vector<RepRun>& runs) {
  std::vector<std::string> present;
  for (size_t k = 0; k < context.observables().size(); ++k) {
    for (const RepRun& rep : runs) {
      if (rep.present[k] != 0) {
        present.push_back(context.observables()[k].key);
        break;
      }
    }
  }
  return present;
}

// Why `snap` cannot resume this search, or "" when it can. Every check guards
// the byte-identical-resume invariant: a mismatch means the resumed search
// would silently leave the uninterrupted one's trajectory.
std::string ResumeMismatch(const SearchCheckpoint& snap, const ExperimentSpec& spec,
                           const ExplorerOptions& options, const ExplorerContext& context,
                           const ChainState& expected_chain) {
  if (std::string mismatch = CheckpointProgramMismatch(snap, *spec.program);
      !mismatch.empty()) {
    return mismatch;
  }
  if (snap.base_seed != spec.base_seed) {
    return StrFormat("checkpoint base seed %llu does not match this search's base seed %llu",
                     static_cast<unsigned long long>(snap.base_seed),
                     static_cast<unsigned long long>(spec.base_seed));
  }
  if (snap.pinned != spec.pinned_faults) {
    return StrFormat("checkpoint pins %zu faults that do not match this search's %zu",
                     snap.pinned.size(), spec.pinned_faults.size());
  }
  // A network-config mismatch changes the candidate space or message timing.
  if (snap.network_candidates != options.network_candidates ||
      snap.partition_heal_ms != spec.cluster->partition_heal_ms ||
      snap.network_delay_ms != spec.cluster->network_delay_ms) {
    return StrFormat(
        "checkpoint network configuration (candidates=%d, partition_heal_ms=%lld, "
        "network_delay_ms=%lld) does not match this search's (%d, %lld, %lld)",
        snap.network_candidates ? 1 : 0, static_cast<long long>(snap.partition_heal_ms),
        static_cast<long long>(snap.network_delay_ms), options.network_candidates ? 1 : 0,
        static_cast<long long>(spec.cluster->partition_heal_ms),
        static_cast<long long>(spec.cluster->network_delay_ms));
  }
  // The candidate space the engine ranked. A candidate/observable count
  // drift means the context was built differently (the fingerprint only
  // guards the program shape).
  if (snap.engine_candidates != static_cast<int64_t>(context.candidates().size()) ||
      snap.engine_observables != static_cast<int64_t>(context.observables().size())) {
    return StrFormat(
        "checkpoint ranked %lld candidates over %lld observables, this search has %zu over %zu",
        static_cast<long long>(snap.engine_candidates),
        static_cast<long long>(snap.engine_observables), context.candidates().size(),
        context.observables().size());
  }
  // A chain checkpoint only resumes under the ChainExplorer that supplies the
  // matching chain prefix; a plain search resuming one would silently drop
  // the accepted chain steps.
  if (snap.chain != expected_chain) {
    return "checkpoint chain state does not match this search (chain checkpoints resume "
           "only under ChainExplorer with the same chain prefix)";
  }
  return "";
}

}  // namespace

std::string ReproductionScript::ToText(const ir::Program& program) const {
  if (kind != interp::FaultKind::kException) {
    return StrFormat("inject %s of %s at occurrence %lld with seed %llu",
                     interp::FaultKindName(kind), program.fault_site(site).name.c_str(),
                     static_cast<long long>(occurrence),
                     static_cast<unsigned long long>(seed));
  }
  return StrFormat("inject %s of type %s at occurrence %lld with seed %llu",
                   program.fault_site(site).name.c_str(),
                   program.exception_type(type).name.c_str(),
                   static_cast<long long>(occurrence), static_cast<unsigned long long>(seed));
}

Explorer::Explorer(const ExperimentSpec& spec, const ExplorerOptions& options)
    : options_(options), context_(std::make_shared<const ExplorerContext>(spec, options)) {}

Explorer::Explorer(std::shared_ptr<const ExplorerContext> context,
                   const ExplorerOptions& options)
    : options_(options), context_(std::move(context)) {
  ANDURIL_CHECK(context_ != nullptr);
  // The shared-analysis-cache ctor skips the whole static analysis; its
  // counterpart "explore.context_builds" is recorded by the context ctor.
  if (options_.metrics != nullptr) {
    options_.metrics->Add("explore.context_cache_hits");
  }
}

ExploreResult Explorer::Explore(InjectionStrategy* strategy) {
  return Explore(strategy, CheckpointConfig{});
}

ExploreResult Explorer::Explore(InjectionStrategy* strategy, const CheckpointConfig& checkpoint) {
  Stopwatch total_timer;
  ExploreResult result;
  result.init_seconds = context_->init_seconds();
  const ExperimentSpec& spec = context_->spec();

  obs::Tracer* tracer = options_.tracer;
  obs::MetricsRegistry* metrics = options_.metrics;
  // Logical-timeline base of this search's rounds (see obs/trace.h): round r
  // occupies [phase_base + r*kRoundStride, +kRoundStride), plan item i of a
  // round sits at +i*kItemStride on track i+1. A chain phase's state names
  // the phase it searches, so each phase's rounds occupy a disjoint range.
  const int64_t phase_base =
      static_cast<int64_t>(checkpoint.chain != nullptr ? checkpoint.chain->phase : 0) *
      obs::kPhaseStride;

  strategy->set_metrics(metrics);
  strategy->Initialize(*context_);
  // A strategy without serializable state cannot checkpoint: refuse before
  // round 1 instead of failing after it.
  if (!checkpoint.path.empty()) {
    StrategyCheckpoint probe;
    if (!strategy->SaveState(&probe)) {
      result.error = "the " + strategy->name() +
                     " strategy cannot save its search state, so it cannot checkpoint to " +
                     checkpoint.path;
      return result;
    }
  }

  int first_round = 1;
  if (checkpoint.resume != nullptr) {
    const SearchCheckpoint& snap = *checkpoint.resume;
    const ChainState empty_chain;
    std::string mismatch =
        ResumeMismatch(snap, spec, options_, *context_,
                       checkpoint.chain != nullptr ? *checkpoint.chain : empty_chain);
    if (mismatch.empty() && !strategy->RestoreState(snap.strategy)) {
      mismatch =
          "the " + strategy->name() + " strategy cannot restore the checkpoint's search state";
    }
    if (!mismatch.empty()) {
      result.error = "cannot resume: " + mismatch;
      return result;
    }
    result.rounds = snap.rounds_completed;
    first_round = snap.rounds_completed + 1;
    // Overwrite (not merge): the snapshot was taken by a process that had
    // already built its context, so it subsumes the context-build metrics
    // this process just re-recorded. This is what makes the final metrics of
    // interrupted + resumed byte-identical to the uninterrupted search.
    if (snap.has_metrics && metrics != nullptr) {
      metrics->Restore(snap.metrics);
    }
  }

  // Runs per round. The pool speeds up only a round of several runs.
  const int repetitions = std::max(1, options_.runs_per_round);
  std::optional<ThreadPool> pool_storage;
  if (options_.num_threads > 1 && repetitions > 1) {
    pool_storage.emplace(options_.num_threads);
  }
  ThreadPool* pool = pool_storage ? &*pool_storage : nullptr;

  std::vector<int64_t> injection_requests;
  std::vector<double> decision_latencies;
  std::vector<double> round_inits;
  std::vector<double> workload_times;

  // Emits the round's spans once its record is final: a "round" span on
  // track 0 covering the round's whole grid slot, and per executed run i a
  // "candidate" span (the armed window) nesting a "run" span (the
  // simulation) on track i+1. All timestamps are logical, so the trace is a
  // pure function of the search trajectory — identical at any thread count.
  auto trace_round = [&](const RoundRecord& rec, const std::vector<RepRun>& executed) {
    if (tracer == nullptr) {
      return;
    }
    const int64_t base = phase_base + static_cast<int64_t>(rec.round) * obs::kRoundStride;
    for (size_t i = 0; i < executed.size(); ++i) {
      const RepRun& rep = executed[i];
      const int64_t item_ts = base + static_cast<int64_t>(i) * obs::kItemStride;
      const int64_t track = static_cast<int64_t>(i) + 1;
      std::vector<obs::TraceArg> candidate_args;
      candidate_args.push_back(obs::ArgInt("armed", rec.window_size));
      if (rep.run.injected.has_value()) {
        candidate_args.push_back(obs::ArgStr(
            "site", spec.program->fault_site(rep.run.injected->site).name));
        candidate_args.push_back(
            obs::ArgStr("kind", interp::FaultKindName(rep.run.injected->kind)));
        candidate_args.push_back(obs::ArgInt("occurrence", rep.run.injected->occurrence));
      }
      tracer->Span("explore", "candidate", item_ts, obs::kItemStride, track,
                   std::move(candidate_args));
      std::vector<obs::TraceArg> run_args;
      run_args.push_back(obs::ArgUint("seed", rep.seed));
      run_args.push_back(obs::ArgStr("outcome", interp::RunOutcomeName(rep.run.outcome)));
      run_args.push_back(obs::ArgBool("injected", rep.run.injected.has_value()));
      run_args.push_back(obs::ArgInt("requests", rep.run.injection_requests));
      run_args.push_back(obs::ArgInt("end_time_ms", rep.run.end_time_ms));
      if (rep.run.forked_at_step > 0) {
        run_args.push_back(obs::ArgInt("forked_at_step", rep.run.forked_at_step));
      }
      int64_t run_dur = std::clamp<int64_t>(rep.run.end_time_ms, 1, obs::kItemStride - 1);
      tracer->Span("explore", "run", item_ts, run_dur, track, std::move(run_args));
    }
    std::vector<obs::TraceArg> round_args;
    round_args.push_back(obs::ArgInt("round", rec.round));
    round_args.push_back(obs::ArgInt("window", rec.window_size));
    round_args.push_back(obs::ArgBool("injected", rec.injected));
    round_args.push_back(obs::ArgBool("success", rec.success));
    round_args.push_back(obs::ArgStr("outcome", interp::RunOutcomeName(rec.outcome)));
    round_args.push_back(obs::ArgInt("present", rec.present_observables));
    tracer->Span("explore", "round", base, obs::kRoundStride, 0, std::move(round_args),
                 static_cast<int64_t>(rec.run_seconds * 1e9));
  };

  // The checkpoint cadence (checkpoint.h): after round 1 (only a fresh search
  // runs it), after the call's last permitted round, at a drain, and whenever
  // kCheckpointInterval has passed since the last save. Each save holds the
  // state at the end of the round it names, so it does not matter which
  // rounds get one. `saved_round` is the round the file on disk holds.
  int saved_round = first_round - 1;
  std::optional<uint64_t> fingerprint;  // hashed at the first save
  Stopwatch since_save;
  auto save_checkpoint = [&](int round) {
    if (!fingerprint.has_value()) {
      fingerprint = ProgramFingerprint(*spec.program);
    }
    SearchCheckpoint snap;
    snap.program_fingerprint = *fingerprint;
    snap.base_seed = spec.base_seed;
    snap.rounds_completed = round;
    snap.network_candidates = options_.network_candidates;
    snap.partition_heal_ms = spec.cluster->partition_heal_ms;
    snap.network_delay_ms = spec.cluster->network_delay_ms;
    snap.engine_candidates = static_cast<int64_t>(context_->candidates().size());
    snap.engine_observables = static_cast<int64_t>(context_->observables().size());
    snap.pinned = spec.pinned_faults;
    ANDURIL_CHECK(strategy->SaveState(&snap.strategy));  // probed before round 1
    if (checkpoint.chain != nullptr) {
      snap.chain = *checkpoint.chain;
      // Persist the live phase's injected-round summaries so a mid-chain
      // resume can still merge them into the stitch-candidate pick even
      // though the records themselves die with this process.
      for (const RoundRecord& rec : result.records) {
        if (!rec.injected) {
          continue;
        }
        snap.chain.round_candidates.push_back(
            ChainRoundCandidate{rec.candidate, rec.present_observables, rec.round});
      }
    }
    if (metrics != nullptr) {
      snap.has_metrics = true;
      snap.metrics = metrics->Snapshot();
    }
    if (!SaveCheckpointFile(checkpoint.path, snap)) {
      result.error = StrFormat("cannot write checkpoint file %s after round %d",
                               checkpoint.path.c_str(), round);
      return false;
    }
    saved_round = round;
    since_save.Reset();
    return true;
  };

  for (int round = first_round; round <= options_.max_rounds; ++round) {
    // Cooperative drain: stop between rounds. The state is still exactly the
    // end of the last round, so saving it here (when the file lags behind)
    // lets a resume continue byte-identically from this point.
    if (options_.cancel != nullptr && options_.cancel->load(std::memory_order_relaxed)) {
      result.interrupted = true;
      if (!checkpoint.path.empty() && saved_round < result.rounds) {
        save_checkpoint(result.rounds);
      }
      break;
    }
    Stopwatch decide_timer;
    std::vector<interp::InjectionCandidate> window = strategy->NextWindow();
    double decide_seconds = decide_timer.ElapsedSeconds();
    if (window.empty() && strategy->Exhausted()) {
      break;
    }

    RoundRecord record;
    record.round = round;
    record.window_size = static_cast<int>(window.size());
    record.tracked_rank = options_.track_site != ir::kInvalidId
                              ? strategy->RankOfSite(options_.track_site)
                              : -1;
    for (const interp::InjectionCandidate& candidate : window) {
      if (interp::IsNetworkFaultKind(candidate.kind)) {
        ++record.network_candidates_tried;
      }
    }

    // Execute the round. One run by default; runs_per_round > 1 adds
    // repetitions with distinct seeds whose observable feedback is combined
    // (the paper's §6 remedy for probabilistically-missing log messages).
    // The repetitions land on the thread pool when num_threads > 1, and the
    // selected run is always the first success in seed order, so the
    // outcome matches the serial engine exactly.
    Stopwatch run_timer;
    const uint64_t first_seed =
        spec.base_seed + static_cast<uint64_t>(round) * static_cast<uint64_t>(repetitions);
    const bool feedback = strategy->WantsLogFeedback();
    std::vector<RepRun> executed =
        ExecuteRound(*context_, window, first_seed, repetitions, pool, feedback, metrics);
    record.run_seconds = run_timer.ElapsedSeconds();

    // The selected run is the first success (else the first run). Count the
    // runs through it only: the serial engine stops there.
    const RepRun* selected = &executed.front();
    for (const RepRun& rep : executed) {
      ++record.runs;
      record.forked_runs += rep.run.forked_at_step > 0 ? 1 : 0;
      record.steps += rep.run.steps;
      record.skipped_steps += rep.run.forked_at_step;
      if (rep.success) {
        selected = &rep;
        break;
      }
    }
    const interp::RunResult& run = selected->run;

    record.outcome = run.outcome;
    record.partition_events = run.partition_events;

    if (metrics != nullptr) {
      metrics->Add("explore.rounds");
      metrics->Add(std::string("explore.outcome.") + interp::RunOutcomeName(run.outcome));
      metrics->Observe("explore.window_size", record.window_size);
      if (record.network_candidates_tried > 0) {
        metrics->Add("explore.network_candidates", record.network_candidates_tried);
      }
      metrics->Set("explore.last_round", round);
    }

    record.injected = run.injected.has_value();
    if (run.injected.has_value()) {
      record.candidate = *run.injected;
    }
    record.injection_requests = run.injection_requests;
    record.decision_nanos = run.decision_nanos;
    injection_requests.push_back(run.injection_requests);
    if (run.injection_requests > 0) {
      decision_latencies.push_back(static_cast<double>(run.decision_nanos) /
                                   static_cast<double>(run.injection_requests));
    }
    workload_times.push_back(record.run_seconds);

    bool success = spec.oracle(*spec.program, run);
    record.success = success;

    if (success && run.injected.has_value()) {
      if (strategy->WantsLogFeedback()) {
        record.present_observables = static_cast<int>(
            std::count(selected->present.begin(), selected->present.end(), uint8_t{1}));
      }
      record.decide_seconds = decide_seconds;
      result.records.push_back(record);
      result.reproduced = true;
      result.rounds = round;
      ReproductionScript script;
      script.site = run.injected->site;
      script.occurrence = run.injected->occurrence;
      script.type = run.injected->type;
      script.kind = run.injected->kind;
      script.seed = selected->seed;
      result.script = script;
      if (metrics != nullptr) {
        metrics->Add("explore.reproduced");
        if (record.present_observables >= 0) {
          metrics->Observe("logdiff.present_observables", record.present_observables);
        }
      }
      trace_round(record, executed);
      if (tracer != nullptr) {
        tracer->Instant("explore", "reproduced",
                        phase_base + static_cast<int64_t>(round) * obs::kRoundStride +
                            obs::kRoundStride - 1,
                        0,
                        {obs::ArgStr("site", spec.program->fault_site(script.site).name),
                         obs::ArgStr("kind", interp::FaultKindName(script.kind)),
                         obs::ArgInt("occurrence", script.occurrence),
                         obs::ArgUint("seed", script.seed)});
      }
      break;
    }

    // Feedback digestion: combined observables across every run of the
    // round (§6), each run already digested by ExecuteOne. Partial logs from
    // crashed and budget-exceeded runs participate too — a truncated log
    // still carries every observable emitted before the crash, which is
    // exactly the feedback Algorithm 2 wants.
    Stopwatch feedback_timer;
    RoundOutcome outcome;
    outcome.round = round;
    outcome.outcome = run.outcome;
    // Window candidates whose (site, occurrence) a pinned fault claimed
    // first: report them so the strategy retires them instead of re-arming
    // the same doomed instance forever.
    for (const RepRun& rep : executed) {
      for (const interp::InjectionCandidate& candidate : rep.run.preempted_window) {
        if (std::find(outcome.preempted.begin(), outcome.preempted.end(), candidate) ==
            outcome.preempted.end()) {
          outcome.preempted.push_back(candidate);
        }
      }
    }
    // Only the selected run's injection: the serial engine never sees the
    // other repetitions', and parity with it is the determinism contract.
    outcome.injected = run.injected;
    if (strategy->WantsLogFeedback()) {
      outcome.present_keys = PresentKeys(*context_, executed);
      record.present_observables = static_cast<int>(outcome.present_keys.size());
      if (metrics != nullptr) {
        metrics->Observe("logdiff.present_observables", record.present_observables);
      }
    }
    strategy->OnRound(outcome);
    record.decide_seconds = decide_seconds + feedback_timer.ElapsedSeconds();
    round_inits.push_back(record.decide_seconds);
    trace_round(record, executed);
    result.records.push_back(record);
    result.rounds = round;

    if (!checkpoint.path.empty() &&
        (round == 1 || round == options_.max_rounds ||
         std::chrono::nanoseconds(since_save.ElapsedNanos()) >= kCheckpointInterval) &&
        !save_checkpoint(round)) {
      break;
    }

    // The round's results are consumed; hand one run's log/trace buffers
    // back to this thread's scratch so the next round (serial engine: the
    // same thread executes it) overwrites them in place instead of
    // reallocating every log entry.
    if (!executed.empty()) {
      LocalScratch().Recycle(std::move(executed.back().run));
    }
  }

  // The "explore" envelope span covers the rounds *this process* executed
  // (first_round..result.rounds); a resumed search traces only its own
  // segment, which is why the golden resume test compares round-level lines.
  if (tracer != nullptr && result.rounds >= first_round) {
    std::vector<obs::TraceArg> explore_args;
    explore_args.push_back(obs::ArgStr("strategy", strategy->name()));
    explore_args.push_back(obs::ArgBool("reproduced", result.reproduced));
    explore_args.push_back(obs::ArgInt("rounds", result.rounds));
    explore_args.push_back(obs::ArgInt("first_round", first_round));
    tracer->Span("explore", "explore",
                 phase_base + static_cast<int64_t>(first_round) * obs::kRoundStride,
                 static_cast<int64_t>(result.rounds - first_round + 1) * obs::kRoundStride, 0,
                 std::move(explore_args));
  }
  if (metrics != nullptr) {
    metrics->Set("explore.rounds_total", result.rounds);
    result.metrics = metrics->Snapshot();
  }

  result.total_seconds = total_timer.ElapsedSeconds() + context_->init_seconds();
  result.median_injection_requests = Median(injection_requests);
  if (!decision_latencies.empty()) {
    double sum = 0;
    for (double latency : decision_latencies) {
      sum += latency;
    }
    result.mean_decision_nanos = sum / static_cast<double>(decision_latencies.size());
  }
  result.median_round_init_seconds = Median(round_inits);
  result.median_workload_seconds = Median(workload_times);
  return result;
}

bool Explorer::Replay(const ExperimentSpec& spec, const ReproductionScript& script) {
  interp::FaultRuntime runtime(spec.program);
  runtime.SetPinned(spec.pinned_faults);
  runtime.SetWindow({interp::InjectionCandidate{script.site, script.occurrence, script.type,
                                                script.kind}});
  interp::Simulator simulator(spec.program, spec.cluster, script.seed, &runtime);
  interp::RunResult run = simulator.Run();
  return spec.oracle(*spec.program, run) && run.injected.has_value();
}

}  // namespace anduril::explorer
