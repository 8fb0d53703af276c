#include "src/util/backoff.h"

#include <algorithm>

namespace anduril {

int64_t ExponentialBackoff::NextDelayMs() {
  double base = static_cast<double>(kInitialDelayMs);
  for (int i = 0; i < attempt_; ++i) {
    base *= kMultiplier;
  }
  base = std::min(base, static_cast<double>(kMaxDelayMs));
  ++attempt_;
  // Jitter in [-kJitter, +kJitter] * base, from the deterministic stream.
  double spread = rng_.NextDouble() * 2.0 - 1.0;
  int64_t delay = static_cast<int64_t>(base * (1.0 + kJitter * spread));
  return std::max<int64_t>(delay, 0);
}

}  // namespace anduril
