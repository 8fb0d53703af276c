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
  struct Options {
    int64_t initial_delay_ms = 5;
    double multiplier = 2.0;
    int64_t max_delay_ms = 250;
    double jitter = 0.2;  // +/- fraction of the base delay
  };

  ExponentialBackoff(const Options& options, uint64_t seed)
      : options_(options), rng_(seed) {}

  // The next delay: the base grows by `multiplier` with each call since the
  // last Reset, up to max_delay_ms, and one jitter draw spreads it.
  int64_t NextDelayMs();

  // Restarts the sequence at initial_delay_ms; the jitter stream keeps
  // advancing.
  void Reset() { attempt_ = 0; }

 private:
  Options options_;
  Rng rng_;
  int attempt_ = 0;
};

}  // namespace anduril

#endif  // ANDURIL_SRC_UTIL_BACKOFF_H_
