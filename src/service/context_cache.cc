#include "src/service/context_cache.h"

#include <utility>

#include "src/systems/harness.h"

namespace anduril::service {

ContextCache::Entry* ContextCache::Get(const systems::FailureCase& failure_case) {
  auto known = by_id_.find(failure_case.id);
  if (known != by_id_.end()) {
    return known->second.get();
  }
  // verify=false: the registry's own tests prove the seeded ground truth;
  // re-proving it on every worker start would double the slice setup cost.
  auto entry = std::make_unique<Entry>();
  entry->built = systems::BuildCase(failure_case, /*verify=*/false);
  // Fix up the self-referential spec after the move (same wiring as
  // systems::BuildCase).
  entry->built.spec.program = entry->built.program.get();
  entry->built.spec.cluster = &entry->built.cluster;
  entry->options = systems::OptionsForCase(failure_case);
  Entry* raw = entry.get();
  by_id_[failure_case.id] = std::move(entry);
  return raw;
}

}  // namespace anduril::service
