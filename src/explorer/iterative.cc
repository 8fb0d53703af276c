#include "src/explorer/iterative.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "src/interp/simulator.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/strings.h"

namespace anduril::explorer {

namespace {

// Relevant observable keys (of the *phase* context, whose baseline already
// includes the chain prefix) present in `run`'s log: the symptoms this run
// newly flipped. Context observable order, so deterministic.
std::vector<std::string> FlippedObservables(const ExplorerContext& context,
                                            const interp::RunResult& run) {
  std::vector<uint8_t> seen = context.ObservablesIn(interp::DigestLog(run.log));
  std::vector<std::string> present;
  for (size_t k = 0; k < seen.size(); ++k) {
    if (seen[k] != 0) {
      present.push_back(context.observables()[k].key);
    }
  }
  return present;
}

// Fault sites `run` executed that the phase baseline never reached (zero
// instance estimates): the causal stitches — the places the cascade can only
// continue from once this fault is in the workload. Sorted by id.
std::vector<ir::FaultSiteId> NewlyExecutedSites(const ExplorerContext& context,
                                                const interp::RunResult& run) {
  std::unordered_set<ir::FaultSiteId> seen;
  std::vector<ir::FaultSiteId> sites;
  for (const interp::FaultInstanceEvent& event : run.trace) {
    if (!seen.insert(event.site).second) {
      continue;
    }
    if (context.InstancesOf(event.site).empty()) {
      sites.push_back(event.site);
    }
  }
  std::sort(sites.begin(), sites.end());
  return sites;
}

}  // namespace

StitchRunResult RunChainStitch(const ExperimentSpec& spec,
                               const interp::InjectionCandidate& candidate,
                               const ExplorerOptions& /*options*/) {
  StitchRunResult result;
  std::vector<interp::InjectionCandidate> pinned = spec.pinned_faults;
  pinned.push_back(candidate);
  interp::FaultRuntime runtime(spec.program);
  runtime.set_tracing(true);
  runtime.SetPinned(pinned);
  interp::Simulator simulator(spec.program, spec.cluster, spec.base_seed, &runtime);
  result.run = simulator.Run();
  // A wedged stitch run condemns the whole chain candidate: pinning this
  // fault makes the degraded system hang (or stay partition-stuck), so no
  // continuation searched on top of it can ever run to an oracle verdict.
  result.demote_chain = result.run.outcome == interp::RunOutcome::kHung ||
                        result.run.outcome == interp::RunOutcome::kPartitionedStuck;
  return result;
}

ChainResult ChainExplorer::Explore(int max_chain_length) {
  return Explore(max_chain_length, CheckpointConfig{});
}

ChainResult ChainExplorer::Explore(int max_chain_length, const CheckpointConfig& checkpoint) {
  ANDURIL_CHECK_GE(max_chain_length, 1);
  ChainResult result;

  // The persisted search state (v3 chain block): accepted prefix, completed
  // phases, the stitched-site seeds for the live phase, and the live phase's
  // injected-round summaries (filled in by the inner Explorer's snapshots).
  // Its steps are the only record of the chain; the result takes them at
  // the end.
  ChainState chain_state;
  const SearchCheckpoint* resume = checkpoint.resume;
  if (resume != nullptr) {
    // Checked before the steps are pinned (they name this program's sites);
    // the inner Explorer validates the rest of the configuration.
    std::string mismatch = CheckpointProgramMismatch(*resume, *spec_.program);
    if (mismatch.empty() && static_cast<int>(resume->chain.steps.size()) > max_chain_length) {
      mismatch = StrFormat("checkpoint chain has %zu steps, more than this search's "
                           "max_chain_length %d",
                           resume->chain.steps.size(), max_chain_length);
    }
    if (!mismatch.empty()) {
      result.error = "cannot resume: " + mismatch;
      return result;
    }
    chain_state = resume->chain;
    for (const FaultChainStep& step : chain_state.steps) {
      spec_.pinned_faults.push_back(step.candidate);
    }
    result.phases = chain_state.phase;
    result.total_rounds = chain_state.rounds_before_phase;
  }

  for (int phase = chain_state.phase; phase < max_chain_length; ++phase) {
    ++result.phases;
    if (options_.metrics != nullptr) {
      options_.metrics->Add("chain.phases");
    }
    const int64_t phase_base = static_cast<int64_t>(phase) * obs::kPhaseStride;
    if (options_.tracer != nullptr) {
      options_.tracer->Instant("explore", "chain_phase", phase_base, 0,
                               {obs::ArgInt("phase", phase),
                                obs::ArgInt("pinned", static_cast<int64_t>(
                                                          spec_.pinned_faults.size()))});
    }
    // Global round budget (kill emulation / hard bound): cut this phase's
    // per-phase cap down to whatever the budget still allows.
    if (options_.max_total_rounds > 0 &&
        result.total_rounds >= options_.max_total_rounds) {
      break;
    }
    ExplorerOptions phase_options = options_;
    if (options_.max_total_rounds > 0) {
      const int remaining = options_.max_total_rounds - result.total_rounds;
      if (remaining < phase_options.max_rounds) {
        phase_options.max_rounds = remaining;
      }
    }
    // Each phase rebuilds the context over the *degraded* baseline (chain
    // prefix pinned): sites the prefix newly exposed gain instance
    // estimates, and observables the prefix already flipped drop out of the
    // relevant set.
    Explorer explorer(spec_, phase_options);
    auto strategy = MakeFullFeedbackStrategy();
    strategy->SeedStitchedSites(chain_state.stitched_sites);

    CheckpointConfig inner;
    inner.path = checkpoint.path;
    inner.chain = &chain_state;
    if (resume != nullptr) {
      inner.resume = resume;  // only the phase the kill interrupted
      resume = nullptr;
    }
    ExploreResult search = explorer.Explore(strategy.get(), inner);
    if (!search.error.empty()) {
      result.error = std::move(search.error);
      break;
    }
    result.total_rounds += search.rounds;

    // Cooperative drain mid-phase: behave exactly like a kill — return with
    // the checkpoint as the inner explorer last flushed it, no stitch pass.
    if (search.interrupted) {
      result.interrupted = true;
      break;
    }
    if (search.reproduced) {
      result.reproduced = true;
      chain_state.steps.push_back(FaultChainStep{
          interp::InjectionCandidate{search.script->site, search.script->occurrence,
                                     search.script->type, search.script->kind},
          search.script->seed, search.rounds, {}});
      if (options_.metrics != nullptr) {
        options_.metrics->Add("chain.reproduced");
      }
      break;
    }
    if (phase + 1 == max_chain_length) {
      break;
    }
    // Budget exhausted mid-phase: behave like a kill — return without a
    // stitch pass, so a resume from the checkpoint continues this phase.
    if (options_.max_total_rounds > 0 &&
        result.total_rounds >= options_.max_total_rounds) {
      break;
    }

    // Stitch-candidate pick. Merge the summaries restored from the
    // checkpoint (rounds that died with the killed process) with this
    // search's records, dedup by candidate keeping the most-promising entry,
    // and order by (observables present desc, round asc) — the fault that
    // moved the system closest to the production failure, earliest, gets the
    // first stitch attempt.
    std::vector<ChainRoundCandidate> merged = chain_state.round_candidates;
    for (const RoundRecord& record : search.records) {
      if (!record.injected) {
        continue;
      }
      merged.push_back(
          ChainRoundCandidate{record.candidate, record.present_observables, record.round});
    }
    std::vector<ChainRoundCandidate> summaries;
    for (const ChainRoundCandidate& entry : merged) {
      ChainRoundCandidate* existing = nullptr;
      for (ChainRoundCandidate& summary : summaries) {
        if (summary.candidate == entry.candidate) {
          existing = &summary;
          break;
        }
      }
      if (existing == nullptr) {
        summaries.push_back(entry);
      } else if (entry.present_observables > existing->present_observables ||
                 (entry.present_observables == existing->present_observables &&
                  entry.round < existing->round)) {
        *existing = entry;
      }
    }
    std::stable_sort(summaries.begin(), summaries.end(),
                     [](const ChainRoundCandidate& a, const ChainRoundCandidate& b) {
                       if (a.present_observables != b.present_observables) {
                         return a.present_observables > b.present_observables;
                       }
                       return a.round < b.round;
                     });

    bool extended = false;
    for (const ChainRoundCandidate& summary : summaries) {
      StitchRunResult stitch = RunChainStitch(spec_, summary.candidate, options_);
      if (options_.metrics != nullptr) {
        options_.metrics->Add("chain.stitch_runs");
      }
      if (stitch.demote_chain) {
        ++result.demoted_chain_candidates;
        if (options_.metrics != nullptr) {
          options_.metrics->Add("chain.demoted");
        }
        continue;
      }
      // Causal stitching: accept the candidate only if pinning it genuinely
      // moved the system — it flipped still-missing observables, or executed
      // fault sites the degraded baseline never reached.
      std::vector<std::string> flipped = FlippedObservables(explorer.context(), stitch.run);
      std::vector<ir::FaultSiteId> new_sites = NewlyExecutedSites(explorer.context(), stitch.run);
      if (flipped.empty() && new_sites.empty()) {
        continue;
      }

      spec_.pinned_faults.push_back(summary.candidate);
      chain_state.steps.push_back(
          FaultChainStep{summary.candidate, spec_.base_seed, search.rounds, flipped});
      chain_state.phase = phase + 1;
      chain_state.rounds_before_phase += search.rounds;
      chain_state.stitched_sites = std::move(new_sites);
      chain_state.round_candidates.clear();

      if (options_.metrics != nullptr) {
        options_.metrics->Add("chain.stitched");
      }
      if (options_.tracer != nullptr) {
        options_.tracer->Instant(
            "explore", "chain.stitch",
            phase_base + static_cast<int64_t>(search.rounds + 1) * obs::kRoundStride, 0,
            {obs::ArgInt("phase", phase), obs::ArgInt("site", summary.candidate.site),
             obs::ArgInt("occurrence", summary.candidate.occurrence),
             obs::ArgInt("flipped", static_cast<int64_t>(
                                        chain_state.steps.back().stitched_observables.size())),
             obs::ArgInt("new_sites",
                         static_cast<int64_t>(chain_state.stitched_sites.size()))});
      }
      extended = true;
      break;
    }
    if (!extended) {
      break;  // no injectable fault moves the degraded system any further
    }
  }
  result.chain.steps = std::move(chain_state.steps);
  return result;
}

bool ChainExplorer::Replay(ExperimentSpec spec, const ChainResult& result) {
  if (!result.reproduced || result.chain.steps.empty()) {
    return false;
  }
  // All but the last step are pinned; the last is the window injection at
  // its recorded seed.
  spec.pinned_faults.clear();
  for (size_t i = 0; i + 1 < result.chain.steps.size(); ++i) {
    spec.pinned_faults.push_back(result.chain.steps[i].candidate);
  }
  const FaultChainStep& last = result.chain.steps.back();
  ReproductionScript script;
  script.site = last.candidate.site;
  script.occurrence = last.candidate.occurrence;
  script.type = last.candidate.type;
  script.kind = last.candidate.kind;
  script.seed = last.seed;
  return Explorer::Replay(spec, script);
}

}  // namespace anduril::explorer
