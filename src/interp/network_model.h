// Per-run network state, owned by the Simulator. Every cross-node message
// (kSend delivery) routes through this model, which
//
//   * applies fired network faults: drop, deterministic seed-derived delay,
//     duplicate delivery, and (src, dst) node-pair partitions with an
//     optional healing timer,
//   * filters deliveries to crashed nodes (so crash faults and network
//     faults compose in one place instead of relying on the event loop's
//     dead-thread check),
//   * records sever/heal transitions and per-category delivery statistics
//     for the run result.
//
// Determinism: the model draws nothing from the simulator's Rng. Delays are
// a pure function of (run seed, site, occurrence); partitions heal lazily at
// the first query past their deadline, and the recorded heal event carries
// the deadline itself, so two runs at the same seed produce identical
// transition lists. The seed is read only by a seed-derived delay, so a run
// prefix without one is the same at every seed (seed_drawn()).

#ifndef ANDURIL_SRC_INTERP_NETWORK_MODEL_H_
#define ANDURIL_SRC_INTERP_NETWORK_MODEL_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "src/ir/types.h"

namespace anduril::obs {
class MetricsRegistry;
}  // namespace anduril::obs

namespace anduril::interp {

// Delivery and fault statistics for one run.
struct NetworkStats {
  int64_t messages_sent = 0;         // kSend statements executed
  int64_t dropped_by_fault = 0;      // kDrop injections
  int64_t dropped_by_partition = 0;  // messages crossing a severed pair
  int64_t dropped_to_crashed = 0;    // in-flight messages to a crashed node
  int64_t delayed = 0;               // kDelay injections
  int64_t duplicated = 0;            // kDuplicate injections
  int64_t partitions_severed = 0;
  int64_t partitions_healed = 0;

  friend bool operator==(const NetworkStats&, const NetworkStats&) = default;
};

// A partition sever/heal transition (node indices; the simulator resolves
// them to names in the RunResult).
struct PartitionEvent {
  int64_t time_ms = 0;
  int32_t node_a = 0;  // node_a < node_b
  int32_t node_b = 0;
  bool sever = true;   // false = heal
};

class NetworkModel {
 public:
  explicit NetworkModel(uint64_t seed) : seed_(seed) {}

  // --- Fault application ------------------------------------------------------
  void OnMessageSent() { ++stats_.messages_sent; }
  void DropMessage() { ++stats_.dropped_by_fault; }
  void DuplicateMessage() { ++stats_.duplicated; }

  // Extra delivery latency (simulated ms) for a kDelay fault at the given
  // dynamic instance. `fixed_ms` > 0 (ClusterSpec::network_delay_ms)
  // overrides the seed-derived value, which lies in [20, 120).
  int64_t DelayFor(ir::FaultSiteId site, int64_t occurrence, int64_t fixed_ms);

  // Severs the (src, dst) pair both ways at `now`. `heal_after_ms` > 0 arms
  // a healing timer; <= 0 means the partition never heals.
  void Sever(int32_t src, int32_t dst, int64_t now, int64_t heal_after_ms);

  // True when a message between `src` and `dst` crossing the network at
  // `now` must be dropped (and counted) because the pair is severed. Heals
  // expired partitions first.
  bool SeveredDrop(int32_t src, int32_t dst, int64_t now);

  // --- Crashed-node filtering -------------------------------------------------
  void MarkCrashed(int32_t node) { crashed_.insert(node); }
  // True when the in-flight message must be dropped (and counted) because
  // its destination node crashed.
  bool CrashedDrop(int32_t dst);

  // --- Run-end queries --------------------------------------------------------
  // Heals expired partitions up to `now`, then reports whether any severed
  // pair remains.
  bool HasUnhealedPartition(int64_t now);

  const NetworkStats& stats() const { return stats_; }
  // Sever/heal transitions in chronological order (call after the run ends).
  std::vector<PartitionEvent> TakeEvents();

  // True once a seed-derived delay was drawn this run.
  bool seed_drawn() const { return seed_drawn_; }

  // Continues from `saved`'s state, as a run forked from a snapshot does:
  // everything but the seed, which stays this run's own.
  void RestoreFrom(const NetworkModel& saved) {
    const uint64_t seed = seed_;
    *this = saved;
    seed_ = seed;
  }

  // Folds this run's delivery statistics into the registry under "net.*".
  // Every stat is emitted (zeros included) so the key set is stable across
  // runs and scenarios.
  void FlushMetrics(obs::MetricsRegistry* metrics) const;

 private:
  struct Partition {
    int32_t node_a = 0;  // node_a < node_b
    int32_t node_b = 0;
    int64_t heal_at = -1;  // -1 = never
    bool healed = false;
  };

  // Marks every partition whose deadline passed as healed, recording the
  // heal event at its deadline.
  void HealExpired(int64_t now);

  uint64_t seed_ = 0;
  bool seed_drawn_ = false;
  NetworkStats stats_;
  std::vector<Partition> partitions_;
  std::unordered_set<int32_t> crashed_;
  std::vector<PartitionEvent> events_;
};

}  // namespace anduril::interp

#endif  // ANDURIL_SRC_INTERP_NETWORK_MODEL_H_
