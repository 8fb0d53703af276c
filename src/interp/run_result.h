// Result of one simulated run: the production-log analog plus the
// explorer-side runtime information (fault instance trace, thread end
// states, final node state) that oracles and the feedback algorithm consume.

#ifndef ANDURIL_SRC_INTERP_RUN_RESULT_H_
#define ANDURIL_SRC_INTERP_RUN_RESULT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/interp/fault_runtime.h"
#include "src/interp/log_entry.h"
#include "src/interp/network_model.h"
#include "src/ir/program.h"

namespace anduril::interp {

enum class ThreadEndState : uint8_t {
  kFinished,  // idle, no queued tasks
  kBlocked,   // still waiting on a condition / future / sleep / stall fault
  kDied,      // killed by an uncaught exception
  kCrashed,   // halted by a node crash fault
};

// How a run ended, in decreasing severity: a crash fault halted a node, a
// stall fault left an external call wedged past the end of the run, an
// unhealed network partition starved a still-blocked thread of messages, a
// run limit (simulated time or steps) was reached, or the run drained all
// events and completed cleanly. Threads blocked in ordinary
// awaits/sleeps at run end do not make a run kHung — only a stall fault
// does; likewise they only make it kPartitionedStuck when a partition fault
// fired, actually dropped messages, and never healed.
// (kPartitionedStuck sorts after kBudgetExceeded to keep the on-disk values
// of the original outcomes stable.)
enum class RunOutcome : uint8_t { kCompleted, kCrashed, kHung, kBudgetExceeded,
                                  kPartitionedStuck };

const char* RunOutcomeName(RunOutcome outcome);

struct RunResult;

// FNV-1a digest of everything a run observably produces: outcome and budget
// flags, end time, the formatted log, the fault-instance trace, thread end
// states, final node variables, crashed nodes, network accounting,
// partition transitions and the fault runtime's accounting. Left out:
// decision_nanos (host wall clock, sampled) and the step and fork counts.
// tests/golden/interp_runs.txt pins it for every registered scenario. With
// `fields` set, it also receives one digest per field, named, so two runs
// can be compared field by field.
uint64_t DigestRun(const RunResult& run,
                   std::vector<std::pair<std::string, uint64_t>>* fields = nullptr);

// A partition sever/heal transition with node names resolved, for human
// output (PartitionEvent in network_model.h is the index-based raw form).
struct PartitionTransition {
  int64_t time_ms = 0;
  std::string node_a;
  std::string node_b;
  bool sever = true;  // false = heal
};

struct ThreadSummary {
  std::string node;
  std::string name;
  ThreadEndState state = ThreadEndState::kFinished;
  // For kBlocked: where the thread is parked.
  ir::GlobalStmt blocked_at;
  // Method on top of the stack when the run ended (kInvalidId if none).
  ir::MethodId current_method = ir::kInvalidId;
  // For kDied: the uncaught exception type.
  ir::ExceptionTypeId death_exception = ir::kInvalidId;
};

struct RunResult {
  std::vector<LogEntry> log;
  std::vector<FaultInstanceEvent> trace;
  std::vector<ThreadSummary> threads;
  // node name -> (VarId -> final value)
  std::unordered_map<std::string, std::unordered_map<ir::VarId, int64_t>> node_vars;
  int64_t end_time_ms = 0;
  bool hit_time_limit = false;
  bool hit_step_limit = false;
  RunOutcome outcome = RunOutcome::kCompleted;
  // Nodes halted by a crash fault, in crash order.
  std::vector<std::string> crashed_nodes;
  // Message-layer accounting (drops, delays, duplicates, partitions).
  NetworkStats network;
  // Partition sever/heal transitions, chronological, node names resolved.
  std::vector<PartitionTransition> partition_events;
  int64_t injection_requests = 0;
  int64_t decision_nanos = 0;
  // Interpreter steps the run took, and how many of them a run forked from
  // a snapshot restored instead of executing (0 for a from-scratch run).
  int64_t steps = 0;
  int64_t forked_at_step = 0;
  // Pinned-fault firings (chain search; 0 in single-fault searches). Mirrors
  // FaultRuntime::pinned_fired for metrics consistency checks.
  int64_t pinned_fired = 0;
  std::optional<InjectionCandidate> injected;
  // Window candidates pre-empted by a pinned fault at the same instance (see
  // FaultRuntime::preempted_window).
  std::vector<InjectionCandidate> preempted_window;

  // --- Oracle helpers --------------------------------------------------------
  bool HasLogContaining(const std::string& needle) const;
  bool HasLogContaining(ir::LogLevel level, const std::string& needle) const;
  int CountLogContaining(const std::string& needle) const;
  // True if a thread whose "node/thread" name contains `name_substr` ended
  // blocked; if `method` is non-empty, its innermost frame must be in that
  // method (requires `program`).
  bool IsThreadStuck(const std::string& name_substr) const;
  bool IsThreadStuckIn(const ir::Program& program, const std::string& name_substr,
                       const std::string& method) const;
  bool DidThreadDie(const std::string& name_substr) const;
  // True if a crash fault halted `node` during the run.
  bool DidNodeCrash(const std::string& node) const;
  // Final value of a node variable (0 if unset).
  int64_t NodeVar(const ir::Program& program, const std::string& node,
                  const std::string& var) const;
};

}  // namespace anduril::interp

#endif  // ANDURIL_SRC_INTERP_RUN_RESULT_H_
