// Cluster topology and workload description for a simulated run.
//
// A ClusterSpec lists the nodes of the simulated distributed system, the
// threads started at boot (server loops, daemons) and the workload tasks
// (client requests) injected at given times. Everything else — handler
// threads for messages, executor threads for submitted tasks — is created
// lazily by the interpreter.

#ifndef ANDURIL_SRC_INTERP_CLUSTER_H_
#define ANDURIL_SRC_INTERP_CLUSTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/ir/types.h"

namespace anduril::interp {

struct InitialTask {
  std::string node;
  std::string thread;
  ir::MethodId method = ir::kInvalidId;
  int64_t start_ms = 0;
  int64_t payload = 0;
};

struct InitialValue {
  std::string node;
  ir::VarId var = ir::kInvalidId;
  int64_t value = 0;
};

struct ClusterSpec {
  std::vector<std::string> nodes;
  std::vector<InitialTask> tasks;
  std::vector<InitialValue> initial_values;
  // Simulated-time budget for a run. Threads still blocked when the event
  // queue drains (or the limit is hit) are reported as stuck.
  int64_t time_limit_ms = 120'000;
  // Hard cap on interpreted statements, as a runaway-loop backstop. It
  // bounds the events too, since only the initial tasks and the ops push
  // them. These two limits are all that can cut a run short; no host clock
  // can, so a run is a pure function of its program, cluster, seed and armed
  // faults.
  int64_t step_limit = 20'000'000;
  // --- Network fault parameters (only consulted when a network fault fires) --
  // kPartition: simulated ms until a severed node pair heals. 0 = never
  // heals (the partition outlives the run unless nothing depends on it).
  int64_t partition_heal_ms = 0;
  // kDelay: fixed extra delivery latency in simulated ms. 0 = seed-derived
  // per (site, occurrence), in [20, 120) ms (see NetworkModel::DelayFor).
  int64_t network_delay_ms = 0;

  void AddNode(const std::string& name) { nodes.push_back(name); }
  void AddTask(const std::string& node, const std::string& thread, ir::MethodId method,
               int64_t start_ms = 0, int64_t payload = 0) {
    tasks.push_back(InitialTask{node, thread, method, start_ms, payload});
  }
  void SetVar(const std::string& node, ir::VarId var, int64_t value) {
    initial_values.push_back(InitialValue{node, var, value});
  }
};

}  // namespace anduril::interp

#endif  // ANDURIL_SRC_INTERP_CLUSTER_H_
