#include "src/explorer/checkpoint.h"

#include <cstdint>
#include <limits>
#include <utility>

#include "src/explorer/priority_engine.h"
#include "src/util/file.h"
#include "src/util/hash.h"
#include "src/util/json.h"
#include "src/util/strings.h"

namespace anduril::explorer {
namespace {

constexpr int64_t kMaxInt = std::numeric_limits<int>::max();
constexpr int64_t kMaxInt64 = std::numeric_limits<int64_t>::max();
// Program ids are int32; kInvalidId marks "none" (a non-exception fault's type).
constexpr int64_t kMaxId = std::numeric_limits<int32_t>::max();

// ReadIntMember with the error prefixed by "checkpoint field ".
template <typename Int>
bool ReadField(const JsonValue& object, const char* key, int64_t min, int64_t max, Int* out,
               std::string* error) {
  if (ReadIntMember(object, key, min, max, out, error)) {
    return true;
  }
  *error = "checkpoint field " + *error;
  return false;
}

JsonValue CandidateToJson(const interp::InjectionCandidate& candidate) {
  JsonValue object = JsonValue::Object();
  object.Set("site", JsonValue::Int(candidate.site));
  object.Set("occurrence", JsonValue::Int(candidate.occurrence));
  object.Set("type", JsonValue::Int(candidate.type));
  object.Set("kind", JsonValue::Str(interp::FaultKindName(candidate.kind)));
  return object;
}

bool CandidateFromJson(const JsonValue& value, interp::InjectionCandidate* out,
                       std::string* error) {
  if (value.type() != JsonValue::Type::kObject) {
    *error = "candidate is not an object";
    return false;
  }
  if (!ReadField(value, "site", ir::kInvalidId, kMaxId, &out->site, error) ||
      !ReadField(value, "occurrence", 0, kMaxInt64, &out->occurrence, error) ||
      !ReadField(value, "type", ir::kInvalidId, kMaxId, &out->type, error)) {
    return false;
  }
  const std::string& kind =
      value.Find("kind") ? value.Find("kind")->as_string() : std::string("exception");
  if (!interp::FaultKindFromName(kind, &out->kind)) {
    *error = "unknown fault kind \"" + kind + "\"";
    return false;
  }
  return true;
}

}  // namespace

uint64_t ChainSignatureHash(const ChainState& chain) {
  Fnv1aHasher hasher;
  for (const FaultChainStep& step : chain.steps) {
    hasher.MixInt(step.candidate.site);
    hasher.MixInt(step.candidate.occurrence);
    hasher.MixInt(step.candidate.type);
    hasher.MixInt(static_cast<int64_t>(step.candidate.kind));
    hasher.MixInt(static_cast<int64_t>(step.seed));
    hasher.MixInt(step.rounds);
    for (const std::string& key : step.stitched_observables) {
      hasher.MixStr(key);
    }
    hasher.MixSeparator();
  }
  return hasher.hash();
}

uint64_t ProgramFingerprint(const ir::Program& program) {
  // FNV-1a over the fault-site and exception-type names, in id order.
  Fnv1aHasher hasher;
  for (const ir::FaultSite& site : program.fault_sites()) {
    hasher.MixStr(site.name);
  }
  for (size_t i = 0; i < program.exception_type_count(); ++i) {
    hasher.MixStr(program.exception_type(static_cast<ir::ExceptionTypeId>(i)).name);
  }
  return hasher.hash();
}

std::string CheckpointProgramMismatch(const SearchCheckpoint& checkpoint,
                                      const ir::Program& program) {
  const uint64_t fingerprint = ProgramFingerprint(program);
  if (checkpoint.program_fingerprint != fingerprint) {
    return StrFormat(
        "checkpoint was written for a different program (fingerprint %llu, this case's "
        "program is %llu)",
        static_cast<unsigned long long>(checkpoint.program_fingerprint),
        static_cast<unsigned long long>(fingerprint));
  }
  return "";
}

std::string SerializeCheckpoint(const SearchCheckpoint& checkpoint) {
  JsonValue root = JsonValue::Object();
  root.Set("version", JsonValue::Int(kCheckpointVersion));
  root.Set("program_fingerprint", JsonValue::U64(checkpoint.program_fingerprint));
  root.Set("base_seed", JsonValue::U64(checkpoint.base_seed));
  root.Set("rounds_completed", JsonValue::Int(checkpoint.rounds_completed));

  JsonValue network = JsonValue::Object();
  network.Set("candidates", JsonValue::Bool(checkpoint.network_candidates));
  network.Set("partition_heal_ms", JsonValue::Int(checkpoint.partition_heal_ms));
  network.Set("network_delay_ms", JsonValue::Int(checkpoint.network_delay_ms));
  root.Set("network", std::move(network));

  JsonValue pinned = JsonValue::Array();
  for (const interp::InjectionCandidate& candidate : checkpoint.pinned) {
    pinned.Append(CandidateToJson(candidate));
  }
  root.Set("pinned", std::move(pinned));

  JsonValue strategy = JsonValue::Object();
  strategy.Set("window_size", JsonValue::Int(checkpoint.strategy.window_size));
  strategy.Set("exhausted", JsonValue::Bool(checkpoint.strategy.exhausted));
  JsonValue priorities = JsonValue::Array();
  for (int64_t priority : checkpoint.strategy.observable_priorities) {
    priorities.Append(JsonValue::Int(priority));
  }
  strategy.Set("observable_priorities", std::move(priorities));
  JsonValue tried = JsonValue::Array();
  for (const interp::InjectionCandidate& candidate : checkpoint.strategy.tried) {
    tried.Append(CandidateToJson(candidate));
  }
  strategy.Set("tried", std::move(tried));
  JsonValue demotions = JsonValue::Array();
  for (const StrategyCheckpoint::Demotion& demotion : checkpoint.strategy.demotions) {
    JsonValue entry = JsonValue::Object();
    entry.Set("candidate", CandidateToJson(demotion.candidate));
    entry.Set("count", JsonValue::Int(demotion.count));
    demotions.Append(std::move(entry));
  }
  strategy.Set("demotions", std::move(demotions));
  root.Set("strategy", std::move(strategy));

  JsonValue chain = JsonValue::Object();
  JsonValue steps = JsonValue::Array();
  for (const FaultChainStep& step : checkpoint.chain.steps) {
    JsonValue entry = JsonValue::Object();
    entry.Set("candidate", CandidateToJson(step.candidate));
    entry.Set("seed", JsonValue::U64(step.seed));
    entry.Set("rounds", JsonValue::Int(step.rounds));
    JsonValue observables = JsonValue::Array();
    for (const std::string& key : step.stitched_observables) {
      observables.Append(JsonValue::Str(key));
    }
    entry.Set("stitched_observables", std::move(observables));
    steps.Append(std::move(entry));
  }
  chain.Set("steps", std::move(steps));
  chain.Set("phase", JsonValue::Int(checkpoint.chain.phase));
  chain.Set("rounds_before_phase", JsonValue::Int(checkpoint.chain.rounds_before_phase));
  JsonValue stitched = JsonValue::Array();
  for (ir::FaultSiteId site : checkpoint.chain.stitched_sites) {
    stitched.Append(JsonValue::Int(site));
  }
  chain.Set("stitched_sites", std::move(stitched));
  JsonValue round_candidates = JsonValue::Array();
  for (const ChainRoundCandidate& summary : checkpoint.chain.round_candidates) {
    JsonValue entry = JsonValue::Object();
    entry.Set("candidate", CandidateToJson(summary.candidate));
    entry.Set("present_observables", JsonValue::Int(summary.present_observables));
    entry.Set("round", JsonValue::Int(summary.round));
    round_candidates.Append(std::move(entry));
  }
  chain.Set("round_candidates", std::move(round_candidates));
  root.Set("chain", std::move(chain));
  root.Set("chain_signature_hash", JsonValue::U64(ChainSignatureHash(checkpoint.chain)));

  JsonValue engine = JsonValue::Object();
  engine.Set("candidates", JsonValue::Int(checkpoint.engine_candidates));
  engine.Set("observables", JsonValue::Int(checkpoint.engine_observables));
  root.Set("engine", std::move(engine));

  if (checkpoint.has_metrics) {
    root.Set("metrics", obs::MetricsSnapshotToJson(checkpoint.metrics));
  }

  return root.Dump();
}

bool ParseCheckpoint(const std::string& text, SearchCheckpoint* out, std::string* error) {
  std::string parse_error;
  JsonValue root = JsonValue::Parse(text, &parse_error);
  if (!parse_error.empty()) {
    *error = "checkpoint parse error: " + parse_error;
    return false;
  }
  if (root.type() != JsonValue::Type::kObject) {
    *error = "checkpoint is not a JSON object";
    return false;
  }
  int version = -1;  // absent
  if (!ReadField(root, "version", 0, kMaxInt, &version, error)) {
    return false;
  }
  if (version < 0) {
    *error = "checkpoint has no version field";
    return false;
  }
  if (version != kCheckpointVersion) {
    *error = StrFormat(
        "unsupported checkpoint version %lld (this build reads only version %d); "
        "checkpoint files are not forward/backward compatible — delete the stale "
        "checkpoint and restart the search from round 0",
        static_cast<long long>(version), kCheckpointVersion);
    return false;
  }
  // Filled in place and handed over whole, so a failed parse leaves *out as it was.
  SearchCheckpoint parsed;
  auto read_u64 = [error](const JsonValue& object, const char* key, uint64_t* into) {
    if (ReadU64Member(object, key, into, error)) {
      return true;
    }
    *error = "checkpoint field " + *error;
    return false;
  };
  if (!read_u64(root, "program_fingerprint", &parsed.program_fingerprint) ||
      !read_u64(root, "base_seed", &parsed.base_seed) ||
      !ReadField(root, "rounds_completed", 0, kMaxInt, &parsed.rounds_completed, error)) {
    return false;
  }

  const JsonValue* network = root.Find("network");
  if (network == nullptr || network->type() != JsonValue::Type::kObject) {
    *error = "checkpoint has no network object";
    return false;
  }
  parsed.network_candidates =
      network->Find("candidates") != nullptr && network->Find("candidates")->as_bool();
  if (!ReadField(*network, "partition_heal_ms", 0, kMaxInt64, &parsed.partition_heal_ms, error) ||
      !ReadField(*network, "network_delay_ms", 0, kMaxInt64, &parsed.network_delay_ms, error)) {
    return false;
  }

  if (const JsonValue* pinned = root.Find("pinned"); pinned != nullptr) {
    for (const JsonValue& entry : pinned->items()) {
      interp::InjectionCandidate candidate;
      if (!CandidateFromJson(entry, &candidate, error)) {
        return false;
      }
      parsed.pinned.push_back(candidate);
    }
  }

  const JsonValue* strategy = root.Find("strategy");
  if (strategy == nullptr || strategy->type() != JsonValue::Type::kObject) {
    *error = "checkpoint has no strategy object";
    return false;
  }
  parsed.strategy.window_size = 0;  // absent: refused, as a window holds at least one
  if (!ReadField(*strategy, "window_size", 1, kMaxInt, &parsed.strategy.window_size, error)) {
    return false;
  }
  if (parsed.strategy.window_size == 0) {
    *error = "checkpoint field \"window_size\" is missing";
    return false;
  }
  parsed.strategy.exhausted =
      strategy->Find("exhausted") != nullptr && strategy->Find("exhausted")->as_bool();
  if (const JsonValue* priorities = strategy->Find("observable_priorities");
      priorities != nullptr) {
    for (const JsonValue& entry : priorities->items()) {
      if (entry.type() != JsonValue::Type::kInt) {
        *error = "checkpoint field \"observable_priorities\" holds a non-integer";
        return false;
      }
      const int64_t priority = entry.as_int();
      if (priority < -kMaxObservablePriority || priority > kMaxObservablePriority) {
        *error = StrFormat(
            "checkpoint field \"observable_priorities\" holds %lld, outside the ranking's "
            "range [-%lld, %lld]",
            static_cast<long long>(priority), static_cast<long long>(kMaxObservablePriority),
            static_cast<long long>(kMaxObservablePriority));
        return false;
      }
      parsed.strategy.observable_priorities.push_back(priority);
    }
  }
  if (const JsonValue* tried = strategy->Find("tried"); tried != nullptr) {
    for (const JsonValue& entry : tried->items()) {
      interp::InjectionCandidate candidate;
      if (!CandidateFromJson(entry, &candidate, error)) {
        return false;
      }
      parsed.strategy.tried.push_back(candidate);
    }
  }
  if (const JsonValue* demotions = strategy->Find("demotions"); demotions != nullptr) {
    for (const JsonValue& entry : demotions->items()) {
      StrategyCheckpoint::Demotion demotion;
      const JsonValue* candidate = entry.Find("candidate");
      if (candidate == nullptr || !CandidateFromJson(*candidate, &demotion.candidate, error)) {
        if (error->empty()) {
          *error = "demotion entry has no candidate";
        }
        return false;
      }
      if (!ReadField(entry, "count", 0, kMaxInt, &demotion.count, error)) {
        return false;
      }
      parsed.strategy.demotions.push_back(demotion);
    }
  }
  const JsonValue* chain = root.Find("chain");
  if (chain == nullptr || chain->type() != JsonValue::Type::kObject) {
    *error = "checkpoint has no chain object";
    return false;
  }
  if (const JsonValue* steps = chain->Find("steps"); steps != nullptr) {
    for (const JsonValue& entry : steps->items()) {
      FaultChainStep step;
      const JsonValue* candidate = entry.Find("candidate");
      if (candidate == nullptr || !CandidateFromJson(*candidate, &step.candidate, error)) {
        if (error->empty()) {
          *error = "chain step has no candidate";
        }
        return false;
      }
      if (!read_u64(entry, "seed", &step.seed)) {
        return false;
      }
      if (!ReadField(entry, "rounds", 0, kMaxInt, &step.rounds, error)) {
        return false;
      }
      if (const JsonValue* observables = entry.Find("stitched_observables");
          observables != nullptr) {
        for (const JsonValue& key : observables->items()) {
          step.stitched_observables.push_back(key.as_string());
        }
      }
      parsed.chain.steps.push_back(std::move(step));
    }
  }
  if (!ReadField(*chain, "phase", 0, kMaxInt, &parsed.chain.phase, error) ||
      !ReadField(*chain, "rounds_before_phase", 0, kMaxInt, &parsed.chain.rounds_before_phase,
                 error)) {
    return false;
  }
  if (const JsonValue* stitched = chain->Find("stitched_sites"); stitched != nullptr) {
    for (const JsonValue& entry : stitched->items()) {
      if (entry.type() != JsonValue::Type::kInt || entry.as_int() < 0 ||
          entry.as_int() > kMaxId) {
        *error = "checkpoint field \"stitched_sites\" holds a value that is not a site id";
        return false;
      }
      parsed.chain.stitched_sites.push_back(static_cast<ir::FaultSiteId>(entry.as_int()));
    }
  }
  if (const JsonValue* summaries = chain->Find("round_candidates"); summaries != nullptr) {
    for (const JsonValue& entry : summaries->items()) {
      ChainRoundCandidate summary;
      const JsonValue* candidate = entry.Find("candidate");
      if (candidate == nullptr || !CandidateFromJson(*candidate, &summary.candidate, error)) {
        if (error->empty()) {
          *error = "chain round candidate has no candidate";
        }
        return false;
      }
      if (!ReadField(entry, "present_observables", -1, kMaxInt, &summary.present_observables,
                     error) ||
          !ReadField(entry, "round", 0, kMaxInt, &summary.round, error)) {
        return false;
      }
      parsed.chain.round_candidates.push_back(summary);
    }
  }
  uint64_t chain_signature_hash = 0;
  if (!read_u64(root, "chain_signature_hash", &chain_signature_hash)) {
    return false;
  }
  if (chain_signature_hash != ChainSignatureHash(parsed.chain)) {
    *error =
        "chain signature hash mismatch: the checkpoint's chain state does not hash to "
        "its recorded chain_signature_hash — the file is corrupt or was hand-edited; "
        "delete the stale checkpoint and restart the chain search from round 0";
    return false;
  }

  const JsonValue* engine = root.Find("engine");
  if (engine == nullptr || engine->type() != JsonValue::Type::kObject) {
    *error = "checkpoint has no engine object";
    return false;
  }
  if (!ReadField(*engine, "candidates", 0, kMaxInt64, &parsed.engine_candidates, error) ||
      !ReadField(*engine, "observables", 0, kMaxInt64, &parsed.engine_observables, error)) {
    return false;
  }

  if (const JsonValue* metrics = root.Find("metrics"); metrics != nullptr) {
    if (!obs::MetricsSnapshotFromJson(*metrics, &parsed.metrics, error)) {
      return false;
    }
    parsed.has_metrics = true;
  }
  *out = std::move(parsed);
  error->clear();
  return true;
}

bool SaveCheckpointFile(const std::string& path, const SearchCheckpoint& checkpoint) {
  return WriteFileAtomic(path, SerializeCheckpoint(checkpoint));
}

bool LoadCheckpointFile(const std::string& path, SearchCheckpoint* out, std::string* error) {
  std::string text;
  if (!ReadFileToString(path, &text)) {
    *error = "cannot open checkpoint file " + path;
    return false;
  }
  return ParseCheckpoint(text, out, error);
}

}  // namespace anduril::explorer
