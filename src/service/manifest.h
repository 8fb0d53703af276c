// Crash-safe work queue for the reproduction service: the queue manifest.
//
// The manifest is the daemon's durable scheduling state — one entry per
// queued failure case with its round budget, progress, and terminal outcome.
// It is journaled to "<state_dir>/queue.json" with an atomic write after
// every state transition, so a killed daemon restarts from the exact queue
// it last committed. The *search* state itself is not here: that lives in
// the per-case search checkpoint files, which the explorer already keeps
// byte-identically resumable. The manifest only has to be consistent with
// "some prefix of the work happened", and resuming from a slightly stale
// rounds_done is harmless — the checkpoint is the source of truth.
//
// Format:
//
//   {
//     "anduril_queue": 1,
//     "slice_rounds": N,            // rounds per dispatched work unit
//     "cases": [
//       {"id": "zk-2247", "chain": false, "round_budget": N,
//        "rounds_done": N, "slices_done": N, "crashes": N,
//        "state": "pending|reproduced|starved|failed",
//        "script": "<reproduction recipe text>",   // terminal states only
//        "script_seed": "<u64 as string>"},
//       ...
//     ],
//     "integrity": "<u64 FNV-1a as string>"
//   }
//
// `integrity` is an FNV-1a hash over every scheduling-relevant field, in
// order. Loading recomputes it; a hand-edited or bit-rotted manifest is
// rejected with an actionable error instead of silently resuming a
// different queue.

#ifndef ANDURIL_SRC_SERVICE_MANIFEST_H_
#define ANDURIL_SRC_SERVICE_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

namespace anduril::service {

inline constexpr int kQueueFormatVersion = 1;

enum class CaseState : uint8_t {
  kPending,     // has round budget left; schedulable
  kReproduced,  // terminal: script + seed recorded
  kStarved,     // terminal: budget exhausted (or candidate space dry)
  kFailed,      // terminal: crashed the worker too many consecutive times
};

const char* CaseStateName(CaseState state);
bool CaseStateFromName(const std::string& name, CaseState* out);
inline bool IsTerminal(CaseState state) { return state != CaseState::kPending; }

struct QueueCase {
  std::string id;
  bool chain = false;     // search with ChainExplorer (cascading cases)
  int round_budget = 0;   // starve-out threshold (total search rounds)
  int rounds_done = 0;
  int slices_done = 0;
  int crashes = 0;        // consecutive worker deaths while running this case
  CaseState state = CaseState::kPending;
  std::string script;     // reproduction recipe text (kReproduced only)
  uint64_t script_seed = 0;

  friend bool operator==(const QueueCase&, const QueueCase&) = default;
};

struct QueueManifest {
  int slice_rounds = 0;
  std::vector<QueueCase> cases;

  bool AllTerminal() const;
  int CountState(CaseState state) const;

  friend bool operator==(const QueueManifest&, const QueueManifest&) = default;
};

// FNV-1a over every field the scheduler depends on, in serialization order.
uint64_t ManifestIntegrityHash(const QueueManifest& manifest);

std::string SerializeManifest(const QueueManifest& manifest);
// Returns false (and fills *error) on malformed input, an unsupported
// version, an unknown state name, or an integrity-hash mismatch.
bool ParseManifest(const std::string& text, QueueManifest* out, std::string* error);

bool SaveManifestFile(const std::string& path, const QueueManifest& manifest);
bool LoadManifestFile(const std::string& path, QueueManifest* out, std::string* error);

}  // namespace anduril::service

#endif  // ANDURIL_SRC_SERVICE_MANIFEST_H_
