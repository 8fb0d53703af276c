#include "src/service/manifest.h"

#include <cstdint>
#include <limits>

#include "src/util/file.h"
#include "src/util/hash.h"
#include "src/util/json.h"

namespace anduril::service {

const char* CaseStateName(CaseState state) {
  switch (state) {
    case CaseState::kPending:
      return "pending";
    case CaseState::kReproduced:
      return "reproduced";
    case CaseState::kStarved:
      return "starved";
    case CaseState::kFailed:
      return "failed";
  }
  return "pending";
}

bool CaseStateFromName(const std::string& name, CaseState* out) {
  for (CaseState state : {CaseState::kPending, CaseState::kReproduced, CaseState::kStarved,
                          CaseState::kFailed}) {
    if (name == CaseStateName(state)) {
      *out = state;
      return true;
    }
  }
  return false;
}

bool QueueManifest::AllTerminal() const {
  for (const QueueCase& entry : cases) {
    if (!IsTerminal(entry.state)) {
      return false;
    }
  }
  return true;
}

int QueueManifest::CountState(CaseState state) const {
  int count = 0;
  for (const QueueCase& entry : cases) {
    if (entry.state == state) {
      ++count;
    }
  }
  return count;
}

uint64_t ManifestIntegrityHash(const QueueManifest& manifest) {
  Fnv1aHasher hasher;
  hasher.MixInt(kQueueFormatVersion);
  hasher.MixInt(manifest.slice_rounds);
  for (const QueueCase& entry : manifest.cases) {
    hasher.MixSeparator();
    hasher.MixStr(entry.id);
    hasher.MixInt(entry.chain ? 1 : 0);
    hasher.MixInt(entry.round_budget);
    hasher.MixInt(entry.rounds_done);
    hasher.MixInt(entry.slices_done);
    hasher.MixInt(entry.crashes);
    hasher.MixStr(CaseStateName(entry.state));
    hasher.MixStr(entry.script);
    hasher.MixInt(static_cast<int64_t>(entry.script_seed));
  }
  return hasher.hash();
}

std::string SerializeManifest(const QueueManifest& manifest) {
  JsonValue root = JsonValue::Object();
  root.Set("anduril_queue", JsonValue::Int(kQueueFormatVersion));
  root.Set("slice_rounds", JsonValue::Int(manifest.slice_rounds));
  JsonValue cases = JsonValue::Array();
  for (const QueueCase& entry : manifest.cases) {
    JsonValue item = JsonValue::Object();
    item.Set("id", JsonValue::Str(entry.id));
    item.Set("chain", JsonValue::Bool(entry.chain));
    item.Set("round_budget", JsonValue::Int(entry.round_budget));
    item.Set("rounds_done", JsonValue::Int(entry.rounds_done));
    item.Set("slices_done", JsonValue::Int(entry.slices_done));
    item.Set("crashes", JsonValue::Int(entry.crashes));
    item.Set("state", JsonValue::Str(CaseStateName(entry.state)));
    if (!entry.script.empty()) {
      item.Set("script", JsonValue::Str(entry.script));
      item.Set("script_seed", JsonValue::U64(entry.script_seed));
    }
    cases.Append(std::move(item));
  }
  root.Set("cases", std::move(cases));
  root.Set("integrity", JsonValue::U64(ManifestIntegrityHash(manifest)));
  return root.Dump();
}

bool ParseManifest(const std::string& text, QueueManifest* out, std::string* error) {
  std::string parse_error;
  JsonValue root = JsonValue::Parse(text, &parse_error);
  if (root.is_null()) {
    *error = "manifest: " + parse_error;
    return false;
  }
  constexpr int64_t kMaxInt = std::numeric_limits<int>::max();
  auto read_int = [error](const JsonValue& object, const char* key, int64_t min, int* out) {
    if (ReadIntMember(object, key, min, kMaxInt, out, error)) {
      return true;
    }
    *error = "manifest: " + *error;
    return false;
  };
  int version = -1;  // absent
  if (!read_int(root, "anduril_queue", 0, &version)) {
    return false;
  }
  if (version != kQueueFormatVersion) {
    *error = version < 0 ? "manifest: missing \"anduril_queue\" version field"
                         : "manifest: unsupported version " + std::to_string(version) +
                               " (this build reads version " +
                               std::to_string(kQueueFormatVersion) + ")";
    return false;
  }
  QueueManifest manifest;  // slice_rounds stays 0 when absent, and is refused
  if (!read_int(root, "slice_rounds", 1, &manifest.slice_rounds)) {
    return false;
  }
  if (manifest.slice_rounds == 0) {
    *error = "manifest: missing \"slice_rounds\"";
    return false;
  }
  const JsonValue* cases = root.Find("cases");
  if (cases == nullptr || cases->type() != JsonValue::Type::kArray) {
    *error = "manifest: missing \"cases\" array";
    return false;
  }
  for (const JsonValue& item : cases->items()) {
    QueueCase entry;
    const JsonValue* id = item.Find("id");
    if (id == nullptr || id->type() != JsonValue::Type::kString) {
      *error = "manifest: case entry without \"id\"";
      return false;
    }
    entry.id = id->as_string();
    entry.chain = item.Find("chain") != nullptr && item.Find("chain")->as_bool();
    if (!read_int(item, "round_budget", 0, &entry.round_budget) ||
        !read_int(item, "rounds_done", 0, &entry.rounds_done) ||
        !read_int(item, "slices_done", 0, &entry.slices_done) ||
        !read_int(item, "crashes", 0, &entry.crashes)) {
      return false;
    }
    const JsonValue* state = item.Find("state");
    if (state == nullptr || !CaseStateFromName(state->as_string(), &entry.state)) {
      *error = "manifest: case " + entry.id + " has an unknown state";
      return false;
    }
    if (const JsonValue* script = item.Find("script"); script != nullptr) {
      entry.script = script->as_string();
      if (!ReadU64Member(item, "script_seed", &entry.script_seed, error)) {
        *error = "manifest: case " + entry.id + ": " + *error;
        return false;
      }
    }
    manifest.cases.push_back(std::move(entry));
  }
  uint64_t stored = 0;
  if (!ReadU64Member(root, "integrity", &stored, error)) {
    *error = "manifest: " + *error;
    return false;
  }
  const uint64_t computed = ManifestIntegrityHash(manifest);
  if (stored != computed) {
    *error = "manifest: integrity hash mismatch (stored " + std::to_string(stored) +
             ", computed " + std::to_string(computed) +
             ") — the queue file was edited or corrupted";
    return false;
  }
  *out = std::move(manifest);
  return true;
}

bool SaveManifestFile(const std::string& path, const QueueManifest& manifest) {
  return WriteFileAtomic(path, SerializeManifest(manifest));
}

bool LoadManifestFile(const std::string& path, QueueManifest* out, std::string* error) {
  std::string text;
  if (!ReadFileToString(path, &text)) {
    *error = "cannot read " + path;
    return false;
  }
  return ParseManifest(text, out, error);
}

}  // namespace anduril::service
