#include "src/explorer/context.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "src/analysis/observable_map.h"
#include "src/interp/simulator.h"
#include "src/obs/metrics.h"
#include "src/util/check.h"
#include "src/util/stopwatch.h"

namespace anduril::explorer {

ExplorerContext::ExplorerContext(const ExperimentSpec& spec, const ExplorerOptions& options)
    : spec_(&spec), options_(options) {
  Stopwatch init_timer;
  const ir::Program& program = *spec.program;

  failure_log_ = logdiff::ParseLogFile(spec.failure_log_text);

  // Lower the program once for the flattened interpreter (§7-style
  // precomputation); every run of the search shares it read-only.
  flat_program_ = std::make_unique<const ir::FlatProgram>(program);

  // Step 1: run the workload fault-free to obtain the normal log and the
  // fault-instance distribution, capturing the snapshots search runs fork
  // from.
  baseline_pinned_ = spec.pinned_faults;
  interp::FaultRuntime runtime(&program);
  runtime.SetPinned(spec.pinned_faults);  // multi-fault mode: part of the workload
  interp::Simulator simulator(&program, spec.cluster, spec.base_seed, &runtime,
                              flat_program_.get());
  simulator.set_capture(&snapshots_);
  interp::RunResult normal = simulator.Run();
  normal_trace_ = std::move(normal.trace);
  normal_log_ = interp::DigestLog(normal.log);
  if (!snapshots_.empty()) {
    baseline_log_ = std::move(normal.log);
  }

  // Step 2: per-thread diff -> relevant observables (§5.1).
  logdiff::LogComparison comparison = logdiff::CompareLogs(normal_log_, failure_log_);
  std::vector<std::string> keys = comparison.target_only_keys;
  observables_.reserve(keys.size());
  for (const std::string& key : keys) {
    observable_index_.emplace(key, observables_.size());
    ObservableInfo info;
    info.key = key;
    observables_.push_back(std::move(info));
  }
  for (const logdiff::ParsedLine& line : failure_log_.lines) {
    auto it = observable_index_.find(line.key);
    if (it != observable_index_.end()) {
      observables_[it->second].failure_positions.push_back(line.index);
    }
  }

  // Step 3: causal graph from the observables' sinks.
  analysis::ObservableMapper mapper(program);
  std::vector<analysis::CausalSink> sinks = mapper.Resolve(keys);
  graph_ = std::make_unique<analysis::CausalGraph>(program, sinks);

  // Step 4: injectable candidates = external-exception sources.
  for (const analysis::CausalGraph::SourceSite& source : graph_->sources()) {
    if (program.fault_site(source.site).kind != ir::FaultSiteKind::kExternal) {
      continue;
    }
    candidates_.push_back(FaultCandidate{source.site, source.type, source.node});
  }
  // Crash/stall kinds (opt-in): one candidate of each per causal fault site,
  // appended after all exception candidates so that at equal priority the
  // cheaper-to-diagnose exception fault is tried first. They reuse the
  // site's exception node for causal distances — a crash or stall at a call
  // perturbs the same downstream paths the thrown exception would.
  if (options.crash_stall_candidates) {
    std::unordered_set<ir::FaultSiteId> sites_seen;
    size_t exception_candidates = candidates_.size();
    for (size_t c = 0; c < exception_candidates; ++c) {
      // By value: the push_backs below can reallocate candidates_, and a
      // reference would dangle between the crash and the stall append.
      const FaultCandidate base = candidates_[c];
      if (!sites_seen.insert(base.site).second) {
        continue;
      }
      candidates_.push_back(
          FaultCandidate{base.site, base.type, base.node, interp::FaultKind::kCrash});
      candidates_.push_back(
          FaultCandidate{base.site, base.type, base.node, interp::FaultKind::kStall});
    }
  }
  // Network kinds (opt-in): every Send statement inside the causal graph is
  // a message-layer fault site — its kLocation node entered the graph as a
  // call site of a handler on some observable's backward slice, so the
  // precomputed spatial distances L_{i,k} apply to it unchanged. One
  // candidate per kind per send site, appended after the exception (and
  // crash/stall) candidates.
  if (options.network_candidates) {
    for (analysis::CausalNodeId n = 0; n < static_cast<analysis::CausalNodeId>(graph_->node_count());
         ++n) {
      const analysis::CausalNode& node = graph_->node(n);
      if (node.kind != analysis::CausalNodeKind::kLocation) {
        continue;
      }
      const ir::Stmt& stmt = program.method(node.loc.method).stmt(node.loc.stmt);
      if (stmt.kind != ir::StmtKind::kSend) {
        continue;
      }
      ir::FaultSiteId site = program.FaultSiteAt(node.loc);
      ANDURIL_CHECK_NE(site, ir::kInvalidId);
      for (interp::FaultKind kind :
           {interp::FaultKind::kDrop, interp::FaultKind::kDelay,
            interp::FaultKind::kDuplicate, interp::FaultKind::kPartition}) {
        candidates_.push_back(FaultCandidate{site, ir::kInvalidId, n, kind});
      }
    }
  }

  // Step 5: precompute L_{i,k} (the §7 optimization: distances are queried
  // every round but computed once).
  std::vector<std::vector<int32_t>> node_dists;
  node_dists.reserve(static_cast<size_t>(graph_->num_observables()));
  for (int32_t k = 0; k < graph_->num_observables(); ++k) {
    node_dists.push_back(graph_->DistancesToObservable(k));
  }
  distances_.resize(candidates_.size());
  for (size_t c = 0; c < candidates_.size(); ++c) {
    distances_[c].resize(observables_.size(), analysis::CausalGraph::kUnreachable);
    for (size_t k = 0; k < observables_.size(); ++k) {
      if (k < node_dists.size()) {
        distances_[c][k] = node_dists[k][static_cast<size_t>(candidates_[c].node)];
      }
    }
  }

  // Step 5.5 (opt-in): static candidate pruning. Drop candidates whose node
  // reaches no observable. Defensive — every causal-graph node is backwards
  // reachable from a sink by construction, so this is expected to remove
  // nothing; a nonzero count here flags a graph-construction regression.
  if (options.static_prune) {
    size_t kept = 0;
    for (size_t c = 0; c < candidates_.size(); ++c) {
      bool reaches_observable = false;
      for (int32_t distance : distances_[c]) {
        if (distance != analysis::CausalGraph::kUnreachable) {
          reaches_observable = true;
          break;
        }
      }
      if (reaches_observable) {
        if (kept != c) {
          candidates_[kept] = candidates_[c];
          distances_[kept] = std::move(distances_[c]);
        }
        ++kept;
      }
    }
    pruned_candidates_ = candidates_.size() - kept;
    candidates_.resize(kept);
    distances_.resize(kept);
  }

  // Step 6: scale the fault-instance distribution onto the failure-log
  // timeline via the LCS alignment (§5.2.3).
  logdiff::TimelineAlignment alignment(comparison.matches,
                                       static_cast<int64_t>(normal_log_.lines.size()),
                                       static_cast<int64_t>(failure_log_.lines.size()));
  for (const interp::FaultInstanceEvent& event : normal_trace_) {
    instances_[event.site].push_back(
        InstanceEstimate{event.occurrence, alignment.MapPosition(event.log_clock)});
  }

  // The injectable-site universe. With static_prune, only sites with a
  // static causal path to at least one observable survive: the site must
  // appear as a causal-graph source (external-exception node on some
  // observable's backward slice) with a finite distance. Cold-module and
  // otherwise causally-inert sites — which trace-driven baselines would
  // blindly enumerate — are dropped before round 1.
  std::unordered_set<ir::FaultSiteId> causal_sites;
  if (options.static_prune) {
    for (const analysis::CausalGraph::SourceSite& source : graph_->sources()) {
      if (program.fault_site(source.site).kind != ir::FaultSiteKind::kExternal) {
        continue;
      }
      for (const std::vector<int32_t>& to_observable : node_dists) {
        if (to_observable[static_cast<size_t>(source.node)] !=
            analysis::CausalGraph::kUnreachable) {
          causal_sites.insert(source.site);
          break;
        }
      }
    }
  }
  for (const ir::FaultSite& site : program.fault_sites()) {
    if (site.kind != ir::FaultSiteKind::kExternal) {
      continue;
    }
    if (options.static_prune && causal_sites.count(site.id) == 0) {
      ++pruned_sites_;
      continue;
    }
    all_injectable_sites_.push_back(site.id);
    injectable_site_set_.insert(site.id);
  }

  init_seconds_ = init_timer.ElapsedSeconds();
  if (options_.metrics != nullptr) {
    options_.metrics->Add("explore.context_builds");
    options_.metrics->Observe("explore.context_observables",
                              static_cast<int64_t>(observables_.size()));
    options_.metrics->Observe("explore.context_candidates",
                              static_cast<int64_t>(candidates_.size()));
    if (options_.static_prune) {
      options_.metrics->Observe("explore.pruned_sites",
                                static_cast<int64_t>(pruned_sites_));
      options_.metrics->Observe("explore.pruned_candidates",
                                static_cast<int64_t>(pruned_candidates_));
    }
  }
  // The builder's sinks and cancel flag served the build only. A shared
  // context outlives that search, and may outlive the sinks themselves.
  options_.tracer = nullptr;
  options_.metrics = nullptr;
  options_.cancel = nullptr;
}

const interp::RunSnapshot* ExplorerContext::ForkPoint(
    const std::vector<interp::InjectionCandidate>& window) const {
  if (snapshots_.empty() || spec_->pinned_faults != baseline_pinned_) {
    return nullptr;
  }
  auto before_all = [&window](const interp::RunSnapshot& snapshot) {
    const std::vector<int64_t>& counts = snapshot.occurrences();
    for (const interp::InjectionCandidate& candidate : window) {
      const size_t site = static_cast<size_t>(candidate.site);
      if (site < counts.size() && counts[site] >= candidate.occurrence) {
        return false;
      }
    }
    return true;
  };
  // Counts only grow, so the qualifying snapshots form a prefix of the list.
  auto first_late = std::partition_point(snapshots_.begin(), snapshots_.end(), before_all);
  return first_late == snapshots_.begin() ? nullptr : &*(first_late - 1);
}

std::optional<size_t> ExplorerContext::ObservableIndex(const std::string& key) const {
  auto it = observable_index_.find(key);
  if (it == observable_index_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::vector<uint8_t> ExplorerContext::ObservablesIn(const logdiff::ParsedLog& log) const {
  std::vector<uint8_t> present(observables_.size(), 0);
  for (const logdiff::ParsedLine& line : log.lines) {
    if (std::optional<size_t> k = ObservableIndex(line.key)) {
      present[*k] = 1;
    }
  }
  return present;
}

const std::vector<InstanceEstimate>& ExplorerContext::InstancesOf(ir::FaultSiteId site) const {
  auto it = instances_.find(site);
  return it == instances_.end() ? empty_ : it->second;
}

}  // namespace anduril::explorer
