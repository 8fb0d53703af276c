#include "src/interp/run_result.h"

#include <map>

#include "src/util/hash.h"
#include "src/util/strings.h"

namespace anduril::interp {

namespace {

// Mixes every value into the whole-run hash and into the current field's.
class RunHasher {
 public:
  explicit RunHasher(std::vector<std::pair<std::string, uint64_t>>* fields)
      : fields_(fields) {}

  void Field(const char* name) {
    Close();
    name_ = name;
  }
  void MixInt(int64_t value) {
    whole_.MixInt(value);
    field_.MixInt(value);
  }
  void MixStr(const std::string& text) {
    whole_.MixStr(text);
    field_.MixStr(text);
  }
  void MixSeparator() {
    whole_.MixSeparator();
    field_.MixSeparator();
  }
  void MixCandidate(const InjectionCandidate& candidate) {
    MixInt(candidate.site);
    MixInt(candidate.occurrence);
    MixInt(candidate.type);
    MixInt(static_cast<int64_t>(candidate.kind));
  }
  uint64_t Finish() {
    Close();
    return whole_.hash();
  }

 private:
  void Close() {
    if (fields_ != nullptr && name_ != nullptr) {
      fields_->emplace_back(name_, field_.hash());
    }
    field_ = Fnv1aHasher();
  }

  std::vector<std::pair<std::string, uint64_t>>* fields_;
  const char* name_ = nullptr;
  Fnv1aHasher whole_;
  Fnv1aHasher field_;
};

}  // namespace

uint64_t DigestRun(const RunResult& run,
                   std::vector<std::pair<std::string, uint64_t>>* fields) {
  RunHasher hasher(fields);
  hasher.Field("outcome");
  hasher.MixInt(static_cast<int64_t>(run.outcome));
  hasher.Field("end_time_ms");
  hasher.MixInt(run.end_time_ms);
  hasher.Field("budget_flags");
  hasher.MixInt(run.hit_time_limit);
  hasher.MixInt(run.hit_step_limit);
  hasher.Field("log");
  hasher.MixStr(FormatLogFile(run.log));

  hasher.Field("trace");
  hasher.MixInt(static_cast<int64_t>(run.trace.size()));
  for (const FaultInstanceEvent& event : run.trace) {
    hasher.MixInt(event.site);
    hasher.MixInt(event.occurrence);
    hasher.MixInt(event.log_clock);
    hasher.MixInt(event.time_ms);
    hasher.MixInt(event.thread_id);
  }

  hasher.Field("threads");
  hasher.MixInt(static_cast<int64_t>(run.threads.size()));
  for (const ThreadSummary& thread : run.threads) {
    hasher.MixStr(thread.node);
    hasher.MixStr(thread.name);
    hasher.MixInt(static_cast<int64_t>(thread.state));
    hasher.MixInt(thread.blocked_at.method);
    hasher.MixInt(thread.blocked_at.stmt);
    hasher.MixInt(thread.current_method);
    hasher.MixInt(thread.death_exception);
  }

  // The node-variable maps are unordered; digest them sorted.
  hasher.Field("node_vars");
  std::map<std::string, std::map<ir::VarId, int64_t>> vars;
  for (const auto& [node, values] : run.node_vars) {
    vars[node].insert(values.begin(), values.end());
  }
  for (const auto& [node, values] : vars) {
    hasher.MixStr(node);
    for (const auto& [var, value] : values) {
      hasher.MixInt(var);
      hasher.MixInt(value);
    }
    hasher.MixSeparator();
  }
  hasher.MixSeparator();

  hasher.Field("crashed_nodes");
  for (const std::string& node : run.crashed_nodes) {
    hasher.MixStr(node);
  }
  hasher.MixSeparator();

  hasher.Field("network");
  const NetworkStats& net = run.network;
  for (int64_t count : {net.messages_sent, net.dropped_by_fault, net.dropped_by_partition,
                        net.dropped_to_crashed, net.delayed, net.duplicated,
                        net.partitions_severed, net.partitions_healed}) {
    hasher.MixInt(count);
  }
  hasher.Field("partition_events");
  hasher.MixInt(static_cast<int64_t>(run.partition_events.size()));
  for (const PartitionTransition& transition : run.partition_events) {
    hasher.MixInt(transition.time_ms);
    hasher.MixStr(transition.node_a);
    hasher.MixStr(transition.node_b);
    hasher.MixInt(transition.sever);
  }

  hasher.Field("injection_requests");
  hasher.MixInt(run.injection_requests);
  hasher.Field("pinned_fired");
  hasher.MixInt(run.pinned_fired);
  hasher.Field("injected");
  hasher.MixInt(run.injected.has_value());
  if (run.injected.has_value()) {
    hasher.MixCandidate(*run.injected);
  }
  hasher.Field("preempted_window");
  hasher.MixInt(static_cast<int64_t>(run.preempted_window.size()));
  for (const InjectionCandidate& candidate : run.preempted_window) {
    hasher.MixCandidate(candidate);
  }
  return hasher.Finish();
}

const char* RunOutcomeName(RunOutcome outcome) {
  switch (outcome) {
    case RunOutcome::kCompleted:
      return "completed";
    case RunOutcome::kCrashed:
      return "crashed";
    case RunOutcome::kHung:
      return "hung";
    case RunOutcome::kBudgetExceeded:
      return "budget-exceeded";
    case RunOutcome::kPartitionedStuck:
      return "partitioned-stuck";
  }
  return "unknown";
}

bool RunResult::HasLogContaining(const std::string& needle) const {
  for (const LogEntry& entry : log) {
    if (Contains(entry.message, needle)) {
      return true;
    }
  }
  return false;
}

bool RunResult::HasLogContaining(ir::LogLevel level, const std::string& needle) const {
  for (const LogEntry& entry : log) {
    if (entry.level == level && Contains(entry.message, needle)) {
      return true;
    }
  }
  return false;
}

int RunResult::CountLogContaining(const std::string& needle) const {
  int count = 0;
  for (const LogEntry& entry : log) {
    if (Contains(entry.message, needle)) {
      ++count;
    }
  }
  return count;
}

bool RunResult::IsThreadStuck(const std::string& name_substr) const {
  for (const ThreadSummary& thread : threads) {
    if (thread.state == ThreadEndState::kBlocked &&
        Contains(thread.node + "/" + thread.name, name_substr)) {
      return true;
    }
  }
  return false;
}

bool RunResult::IsThreadStuckIn(const ir::Program& program, const std::string& name_substr,
                                const std::string& method) const {
  ir::MethodId target = program.FindMethod(method);
  for (const ThreadSummary& thread : threads) {
    if (thread.state == ThreadEndState::kBlocked &&
        Contains(thread.node + "/" + thread.name, name_substr) &&
        thread.current_method == target) {
      return true;
    }
  }
  return false;
}

bool RunResult::DidThreadDie(const std::string& name_substr) const {
  for (const ThreadSummary& thread : threads) {
    if (thread.state == ThreadEndState::kDied &&
        Contains(thread.node + "/" + thread.name, name_substr)) {
      return true;
    }
  }
  return false;
}

bool RunResult::DidNodeCrash(const std::string& node) const {
  for (const std::string& crashed : crashed_nodes) {
    if (crashed == node) {
      return true;
    }
  }
  return false;
}

int64_t RunResult::NodeVar(const ir::Program& program, const std::string& node,
                           const std::string& var) const {
  auto node_it = node_vars.find(node);
  if (node_it == node_vars.end()) {
    return 0;
  }
  // InternVar is non-const; search by name instead.
  for (const auto& [var_id, value] : node_it->second) {
    if (program.var_name(var_id) == var) {
      return value;
    }
  }
  return 0;
}

}  // namespace anduril::interp
