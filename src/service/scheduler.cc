#include "src/service/scheduler.h"

namespace anduril::service {

std::vector<int> ApplyStarveOut(QueueManifest* manifest) {
  std::vector<int> demoted;
  for (size_t i = 0; i < manifest->cases.size(); ++i) {
    QueueCase& entry = manifest->cases[i];
    if (entry.state == CaseState::kPending && entry.round_budget > 0 &&
        entry.rounds_done >= entry.round_budget) {
      entry.state = CaseState::kStarved;
      demoted.push_back(static_cast<int>(i));
    }
  }
  return demoted;
}

int PickNextCase(const QueueManifest& manifest, const std::vector<bool>& busy,
                 const std::vector<bool>& warm) {
  int best = -1;
  bool best_warm = false;
  for (size_t i = 0; i < manifest.cases.size(); ++i) {
    const QueueCase& entry = manifest.cases[i];
    if (entry.state != CaseState::kPending) {
      continue;
    }
    if (i < busy.size() && busy[i]) {
      continue;
    }
    const bool is_warm = i < warm.size() && warm[i];
    if (best == -1 || entry.rounds_done < manifest.cases[best].rounds_done ||
        (entry.rounds_done == manifest.cases[best].rounds_done && is_warm && !best_warm)) {
      best = static_cast<int>(i);
      best_warm = is_warm;
    }
  }
  return best;
}

}  // namespace anduril::service
