// Fair-share scheduling policy over the queue manifest — pure functions, so
// the policy is unit-testable without a daemon or workers.
//
// Policy:
//  - Starve-out, not wedging: a pending case whose rounds_done has reached
//    its round budget is demoted to kStarved (terminal) instead of being
//    dispatched again, so one stubborn case can never monopolize workers or
//    block queue completion. A case that crashes its worker three times in
//    a row is demoted to kFailed the same way (daemon.cc).
//  - Fair share: among schedulable cases, dispatch the one with the fewest
//    rounds_done. Every case therefore advances at the same round rate
//    regardless of queue position, and a case that reproduces quickly frees
//    its share for the rest.
//  - Warm ties: among the cases tied on rounds_done, prefer one the idle
//    worker has already run (its context cache holds that case's analysis),
//    then the lowest queue index. A warm case never beats a cold one that is
//    behind, so the tie-break saves context rebuilds without moving any
//    case's share.

#ifndef ANDURIL_SRC_SERVICE_SCHEDULER_H_
#define ANDURIL_SRC_SERVICE_SCHEDULER_H_

#include <vector>

#include "src/service/manifest.h"

namespace anduril::service {

// Demotes every pending case that is out of budget to kStarved. Returns the
// indices demoted (for progress reporting / journaling).
std::vector<int> ApplyStarveOut(QueueManifest* manifest);

// Picks the next case to dispatch: pending, not in `busy` (indices currently
// running on a worker), least rounds_done, tie → in `warm` (indices the
// worker has run before), then lowest index. Returns -1 when nothing is
// schedulable. Does not mutate the manifest — run ApplyStarveOut first so
// out-of-budget cases are not considered.
int PickNextCase(const QueueManifest& manifest, const std::vector<bool>& busy,
                 const std::vector<bool>& warm = {});

}  // namespace anduril::service

#endif  // ANDURIL_SRC_SERVICE_SCHEDULER_H_
