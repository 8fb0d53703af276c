// Per-case analysis cache for the reproduction service.
//
// A case's static analysis (causal graph, distance matrix, timeline — the
// ExplorerContext) is immutable once built, and building it dominates the
// cost of a short slice. Workers and the in-process daemon therefore keep
// one cache per process: the first slice of a case builds the program and
// its context; every later slice of the same case reuses both. Entries are
// keyed by case id — NOT by the program fingerprint, which hashes only the
// program's *shape* (fault sites, exception types) and collides across
// sibling cases of the same system that differ in workload, failure log,
// and oracle.
//
// BuiltCase is self-referential (spec.program / spec.cluster point into the
// struct), so entries live behind unique_ptr and the spec is re-pointed
// once after the move — callers get stable pointers for the life of the
// cache.
//
// Metrics note: reusing a cached context records "explore.context_cache_hits"
// (via Explorer's shared-context constructor) and skips the
// "explore.context_builds" the first build recorded — but a slice resumed
// from a checkpoint *overwrites* its registry with the checkpointed
// snapshot, so a case's final metrics are byte-identical however its slices
// were spread across processes.

#ifndef ANDURIL_SRC_SERVICE_CONTEXT_CACHE_H_
#define ANDURIL_SRC_SERVICE_CONTEXT_CACHE_H_

#include <map>
#include <memory>
#include <string>

#include "src/explorer/context.h"
#include "src/explorer/experiment.h"
#include "src/systems/common.h"

namespace anduril::service {

class ContextCache {
 public:
  struct Entry {
    systems::BuiltCase built;
    // Canonical candidate-space options for the case (no metrics attached).
    explorer::ExplorerOptions options;
    // Built lazily by the first plain search over the entry; chain searches
    // rebuild per phase and leave it untouched.
    std::shared_ptr<const explorer::ExplorerContext> context;
  };

  // Returns the cached entry for the case, building (verify=false) on first
  // use. The pointer stays valid for the cache's lifetime.
  Entry* Get(const systems::FailureCase& failure_case);

  size_t size() const { return by_id_.size(); }

 private:
  std::map<std::string, std::unique_ptr<Entry>> by_id_;
};

}  // namespace anduril::service

#endif  // ANDURIL_SRC_SERVICE_CONTEXT_CACHE_H_
