// Precomputed-list strategies: the exhaustive / distance-only ablations
// (§8.3) and the comparison baselines (§8.4):
//
//   exhaustive     — every instance of every causal-graph fault site, in
//                    site order (no feedback, no priorities)
//   site-distance  — sites ordered by the static distance L_i = min_k L_{i,k}
//                    only; all (or first-3) instances per site
//   stacktrace     — only sites whose names appear in printed stack traces
//                    in the failure log (the paper's stacktrace-injector)
//   fate           — FATE-style coverage: every injectable site of the whole
//                    program (no causal pruning), one occurrence level at a
//                    time, deduplicated by failure ID = (site, occurrence)
//   crashtuner     — CrashTuner-style timing: inject at the first fault-site
//                    execution after each system state change (log message)

#include <algorithm>
#include <limits>

#include "src/explorer/strategies/strategy_util.h"
#include "src/util/check.h"
#include "src/util/strings.h"

namespace anduril::explorer {
namespace {

ir::ExceptionTypeId PrimaryType(const ir::Program& program, ir::FaultSiteId site) {
  const ir::FaultSite& fault_site = program.fault_site(site);
  const ir::Stmt& stmt =
      program.method(fault_site.location.method).stmt(fault_site.location.stmt);
  ANDURIL_CHECK_EQ(stmt.kind, ir::StmtKind::kExternalCall);
  return stmt.throwable_types.front();
}

class ExhaustiveStrategy : public ListStrategy {
 public:
  ExhaustiveStrategy() : ListStrategy(/*sequential=*/true) {}
  std::string name() const override { return "exhaustive"; }

 protected:
  void BuildList(const ExplorerContext& context) override {
    // Enumerate the causal graph's dynamic fault instances in execution
    // order: how a tool without priorities walks the space front to back.
    // Each instance is armed once per fault kind its site has a candidate
    // of: first the site's first candidate (the exception candidate where
    // there is one, else a send site's first network kind), then the first
    // candidate of every other kind, in candidate order.
    std::unordered_map<ir::FaultSiteId, std::vector<const FaultCandidate*>> kinds_of;
    for (const FaultCandidate& candidate : context.candidates()) {
      std::vector<const FaultCandidate*>& kinds = kinds_of[candidate.site];
      if (std::none_of(kinds.begin(), kinds.end(), [&](const FaultCandidate* armed) {
            return armed->kind == candidate.kind;
          })) {
        kinds.push_back(&candidate);
      }
    }
    for (const interp::FaultInstanceEvent& event : context.normal_trace()) {
      auto it = kinds_of.find(event.site);
      if (it == kinds_of.end()) {
        continue;
      }
      for (const FaultCandidate* candidate : it->second) {
        list_.push_back(Arm(*candidate, event.occurrence));
      }
    }
  }
};

class SiteDistanceStrategy : public ListStrategy {
 public:
  explicit SiteDistanceStrategy(int instance_limit)
      : ListStrategy(/*sequential=*/false), instance_limit_(instance_limit) {}
  std::string name() const override {
    return instance_limit_ > 0 ? "site-distance-limit" : "site-distance";
  }

  int RankOfSite(ir::FaultSiteId site) const override {
    for (size_t rank = 0; rank < site_order_.size(); ++rank) {
      if (site_order_[rank] == site) {
        return static_cast<int>(rank) + 1;
      }
    }
    return -1;
  }

 protected:
  void BuildList(const ExplorerContext& context) override {
    const auto& candidates = context.candidates();
    std::vector<std::pair<int64_t, size_t>> ranked;
    for (size_t i = 0; i < candidates.size(); ++i) {
      int64_t best = std::numeric_limits<int64_t>::max();
      for (size_t k = 0; k < context.observables().size(); ++k) {
        int32_t distance = context.Distance(i, k);
        if (distance != analysis::CausalGraph::kUnreachable) {
          best = std::min<int64_t>(best, distance);
        }
      }
      if (best != std::numeric_limits<int64_t>::max()) {
        ranked.emplace_back(best, i);
      }
    }
    std::stable_sort(ranked.begin(), ranked.end());
    for (const auto& [distance, index] : ranked) {
      const FaultCandidate& candidate = candidates[index];
      site_order_.push_back(candidate.site);
      const auto& instances = context.InstancesOf(candidate.site);
      size_t limit = instance_limit_ > 0
                         ? std::min<size_t>(instances.size(), static_cast<size_t>(instance_limit_))
                         : instances.size();
      for (size_t j = 0; j < limit; ++j) {
        list_.push_back(Arm(candidate, instances[j].occurrence));
      }
    }
  }

 private:
  int instance_limit_;
  std::vector<ir::FaultSiteId> site_order_;
};

class StacktraceStrategy : public ListStrategy {
 public:
  StacktraceStrategy() : ListStrategy(/*sequential=*/true) {}
  std::string name() const override { return "stacktrace"; }

 protected:
  void BuildList(const ExplorerContext& context) override {
    const ir::Program& program = context.program();
    // Index fault sites by their exact (unsanitized) names.
    std::unordered_map<std::string, ir::FaultSiteId> by_name;
    for (const ir::FaultSite& site : program.fault_sites()) {
      by_name[site.name] = site.id;
    }
    // Scan raw failure-log messages for printed exceptions.
    std::vector<std::pair<ir::FaultSiteId, ir::ExceptionTypeId>> logged_sites;
    std::unordered_set<ir::FaultSiteId> seen;
    for (const logdiff::ParsedLine& line : context.failure_log().lines) {
      size_t pos = 0;
      while ((pos = line.message.find("exc=", pos)) != std::string::npos) {
        size_t start = pos + 4;
        size_t at = line.message.find(" at ", start);
        if (at == std::string::npos) {
          break;
        }
        std::string type_name = line.message.substr(start, at - start);
        size_t site_start = at + 4;
        size_t site_end = line.message.find_first_of(";]", site_start);
        if (site_end == std::string::npos) {
          break;
        }
        std::string site_name = line.message.substr(site_start, site_end - site_start);
        auto it = by_name.find(site_name);
        if (it != by_name.end() && !seen.contains(it->second) &&
            program.fault_site(it->second).kind == ir::FaultSiteKind::kExternal) {
          seen.insert(it->second);
          ir::ExceptionTypeId type = program.FindException(type_name);
          if (type == ir::kInvalidId) {
            type = PrimaryType(program, it->second);
          }
          logged_sites.emplace_back(it->second, type);
        }
        pos = site_end;
      }
    }
    for (const auto& [site, type] : logged_sites) {
      for (const InstanceEstimate& instance : context.InstancesOf(site)) {
        list_.push_back(interp::InjectionCandidate{site, instance.occurrence, type});
      }
    }
  }
};

class FateStrategy : public ListStrategy {
 public:
  FateStrategy() : ListStrategy(/*sequential=*/true) {}
  std::string name() const override { return "fate"; }

 protected:
  void BuildList(const ExplorerContext& context) override {
    const ir::Program& program = context.program();
    // Failure IDs = (site, occurrence); explore one occurrence level at a
    // time across all sites to maximize coverage, FATE-style. Sites are
    // visited in first-discovery order, as a dynamic tool encounters them.
    std::vector<ir::FaultSiteId> discovery_order;
    std::unordered_set<ir::FaultSiteId> seen;
    for (const interp::FaultInstanceEvent& event : context.normal_trace()) {
      // Injectability goes through the context so static pruning (when on)
      // filters this baseline's blind site list too.
      if (context.SiteInjectable(event.site) && seen.insert(event.site).second) {
        discovery_order.push_back(event.site);
      }
    }
    int64_t max_occurrences = 0;
    for (ir::FaultSiteId site : discovery_order) {
      max_occurrences = std::max<int64_t>(
          max_occurrences, static_cast<int64_t>(context.InstancesOf(site).size()));
    }
    for (int64_t level = 1; level <= max_occurrences; ++level) {
      for (ir::FaultSiteId site : discovery_order) {
        if (static_cast<int64_t>(context.InstancesOf(site).size()) >= level) {
          list_.push_back(
              interp::InjectionCandidate{site, level, PrimaryType(program, site)});
        }
      }
    }
  }
};

class CrashTunerStrategy : public ListStrategy {
 public:
  CrashTunerStrategy() : ListStrategy(/*sequential=*/true) {}
  std::string name() const override { return "crashtuner"; }

 protected:
  void BuildList(const ExplorerContext& context) override {
    const ir::Program& program = context.program();
    // Meta-info timing approximation: a log message marks a state change;
    // arm the first fault-site execution right after each state change.
    int64_t previous_clock = -1;
    for (const interp::FaultInstanceEvent& event : context.normal_trace()) {
      if (event.log_clock == previous_clock) {
        continue;
      }
      previous_clock = event.log_clock;
      if (!context.SiteInjectable(event.site)) {
        continue;
      }
      list_.push_back(interp::InjectionCandidate{event.site, event.occurrence,
                                                 PrimaryType(program, event.site)});
    }
  }
};

}  // namespace

std::unique_ptr<InjectionStrategy> MakeExhaustiveStrategy() {
  return std::make_unique<ExhaustiveStrategy>();
}

std::unique_ptr<InjectionStrategy> MakeSiteDistanceStrategy(int instance_limit) {
  return std::make_unique<SiteDistanceStrategy>(instance_limit);
}

std::unique_ptr<InjectionStrategy> MakeStacktraceStrategy() {
  return std::make_unique<StacktraceStrategy>();
}

std::unique_ptr<InjectionStrategy> MakeFateStrategy() {
  return std::make_unique<FateStrategy>();
}

std::unique_ptr<InjectionStrategy> MakeCrashTunerStrategy() {
  return std::make_unique<CrashTunerStrategy>();
}

std::unique_ptr<InjectionStrategy> MakeStrategy(const std::string& name) {
  if (name == "full") {
    return MakeFullFeedbackStrategy();
  }
  if (name == "full-sum") {
    return MakeSumAggregationStrategy();
  }
  if (name == "full-order") {
    return MakeOrderTemporalStrategy();
  }
  if (name == "exhaustive") {
    return MakeExhaustiveStrategy();
  }
  if (name == "site-distance") {
    return MakeSiteDistanceStrategy(0);
  }
  if (name == "site-distance-limit") {
    return MakeSiteDistanceStrategy(3);
  }
  if (name == "site-feedback") {
    return MakeSiteFeedbackStrategy();
  }
  if (name == "multiply") {
    return MakeMultiplyFeedbackStrategy();
  }
  if (name == "stacktrace") {
    return MakeStacktraceStrategy();
  }
  if (name == "fate") {
    return MakeFateStrategy();
  }
  if (name == "crashtuner") {
    return MakeCrashTunerStrategy();
  }
  return nullptr;
}

}  // namespace anduril::explorer
