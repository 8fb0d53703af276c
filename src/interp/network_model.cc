#include "src/interp/network_model.h"

#include <algorithm>

#include "src/obs/metrics.h"
#include "src/util/rng.h"

namespace anduril::interp {

int64_t NetworkModel::DelayFor(ir::FaultSiteId site, int64_t occurrence, int64_t fixed_ms) {
  ++stats_.delayed;
  if (fixed_ms > 0) {
    return fixed_ms;
  }
  seed_drawn_ = true;
  // Pure function of (seed, site, occurrence): the same instance delays by
  // the same amount in every run at this seed.
  uint64_t state = seed_ ^ (static_cast<uint64_t>(site) * 0x9e3779b97f4a7c15ull) ^
                   (static_cast<uint64_t>(occurrence) << 32);
  return 20 + static_cast<int64_t>(SplitMix64Next(&state) % 100);
}

void NetworkModel::Sever(int32_t src, int32_t dst, int64_t now, int64_t heal_after_ms) {
  HealExpired(now);
  Partition partition;
  partition.node_a = std::min(src, dst);
  partition.node_b = std::max(src, dst);
  partition.heal_at = heal_after_ms > 0 ? now + heal_after_ms : -1;
  partitions_.push_back(partition);
  ++stats_.partitions_severed;
  events_.push_back(PartitionEvent{now, partition.node_a, partition.node_b, true});
}

bool NetworkModel::SeveredDrop(int32_t src, int32_t dst, int64_t now) {
  HealExpired(now);
  int32_t a = std::min(src, dst);
  int32_t b = std::max(src, dst);
  for (const Partition& partition : partitions_) {
    if (!partition.healed && partition.node_a == a && partition.node_b == b) {
      ++stats_.dropped_by_partition;
      return true;
    }
  }
  return false;
}

bool NetworkModel::CrashedDrop(int32_t dst) {
  if (crashed_.count(dst) == 0) {
    return false;
  }
  ++stats_.dropped_to_crashed;
  return true;
}

bool NetworkModel::HasUnhealedPartition(int64_t now) {
  HealExpired(now);
  for (const Partition& partition : partitions_) {
    if (!partition.healed) {
      return true;
    }
  }
  return false;
}

std::vector<PartitionEvent> NetworkModel::TakeEvents() {
  // Heals are recorded when first observed past their deadline, which can be
  // out of order relative to later severs; restore chronological order.
  std::stable_sort(events_.begin(), events_.end(),
                   [](const PartitionEvent& x, const PartitionEvent& y) {
                     return x.time_ms < y.time_ms;
                   });
  return std::move(events_);
}

void NetworkModel::FlushMetrics(obs::MetricsRegistry* metrics) const {
  metrics->Add("net.messages_sent", stats_.messages_sent);
  metrics->Add("net.dropped_by_fault", stats_.dropped_by_fault);
  metrics->Add("net.dropped_by_partition", stats_.dropped_by_partition);
  metrics->Add("net.dropped_to_crashed", stats_.dropped_to_crashed);
  metrics->Add("net.delayed", stats_.delayed);
  metrics->Add("net.duplicated", stats_.duplicated);
  metrics->Add("net.partitions_severed", stats_.partitions_severed);
  metrics->Add("net.partitions_healed", stats_.partitions_healed);
}

void NetworkModel::HealExpired(int64_t now) {
  for (Partition& partition : partitions_) {
    if (!partition.healed && partition.heal_at >= 0 && now >= partition.heal_at) {
      partition.healed = true;
      ++stats_.partitions_healed;
      events_.push_back(
          PartitionEvent{partition.heal_at, partition.node_a, partition.node_b, false});
    }
  }
}

}  // namespace anduril::interp
