// Bounded exponential backoff with deterministic jitter.
//
// The service daemon paces the respawns of a worker slot whose workers keep
// dying: each delay doubles up to a cap, and a result from the slot's worker
// restarts the sequence. Jitter is drawn from the repo's deterministic Rng,
// so a backoff seeded the same way yields the same delays.

#ifndef ANDURIL_SRC_UTIL_BACKOFF_H_
#define ANDURIL_SRC_UTIL_BACKOFF_H_

#include <cstdint>

#include "src/util/rng.h"

namespace anduril {

class ExponentialBackoff {
 public:
  static constexpr int64_t kInitialDelayMs = 5;
  static constexpr double kMultiplier = 2.0;
  static constexpr int64_t kMaxDelayMs = 250;
  static constexpr double kJitter = 0.2;  // +/- fraction of the base delay

  explicit ExponentialBackoff(uint64_t seed) : rng_(seed) {}

  // The next delay: the base grows by kMultiplier with each call since the
  // last Reset, up to kMaxDelayMs, and one jitter draw spreads it.
  int64_t NextDelayMs();

  // Restarts the sequence at kInitialDelayMs; the jitter stream keeps
  // advancing.
  void Reset() { attempt_ = 0; }

 private:
  Rng rng_;
  int attempt_ = 0;
};

}  // namespace anduril

#endif  // ANDURIL_SRC_UTIL_BACKOFF_H_
