#include "src/service/work.h"

#include <sys/socket.h>

#include <cerrno>

#include "src/util/json.h"

namespace anduril::service {
namespace {

std::string RequireString(const JsonValue& root, const char* key) {
  const JsonValue* value = root.Find(key);
  return value != nullptr && value->type() == JsonValue::Type::kString ? value->as_string()
                                                                       : std::string();
}

int64_t IntOr(const JsonValue& root, const char* key, int64_t fallback) {
  const JsonValue* value = root.Find(key);
  return value != nullptr ? value->as_int(fallback) : fallback;
}

}  // namespace

const char* SliceStatusName(SliceStatus status) {
  switch (status) {
    case SliceStatus::kReproduced:
      return "reproduced";
    case SliceStatus::kSliceDone:
      return "slice_done";
    case SliceStatus::kExhausted:
      return "exhausted";
    case SliceStatus::kInterrupted:
      return "interrupted";
    case SliceStatus::kError:
      return "error";
  }
  return "error";
}

bool SliceStatusFromName(const std::string& name, SliceStatus* out) {
  for (SliceStatus status :
       {SliceStatus::kReproduced, SliceStatus::kSliceDone, SliceStatus::kExhausted,
        SliceStatus::kInterrupted, SliceStatus::kError}) {
    if (name == SliceStatusName(status)) {
      *out = status;
      return true;
    }
  }
  return false;
}

std::string SerializeWorkUnit(const WorkUnit& unit) {
  JsonValue root = JsonValue::Object();
  root.Set("case_id", JsonValue::Str(unit.case_id));
  root.Set("chain", JsonValue::Bool(unit.chain));
  root.Set("slice_rounds", JsonValue::Int(unit.slice_rounds));
  root.Set("round_budget", JsonValue::Int(unit.round_budget));
  root.Set("checkpoint_path", JsonValue::Str(unit.checkpoint_path));
  root.Set("metrics_path", JsonValue::Str(unit.metrics_path));
  root.Set("daemon_pid", JsonValue::Int(unit.daemon_pid));
  root.Set("emulate_crash_after_rounds", JsonValue::Int(unit.emulate_crash_after_rounds));
  return root.Dump();
}

bool ParseWorkUnit(const std::string& text, WorkUnit* out, std::string* error) {
  std::string parse_error;
  JsonValue root = JsonValue::Parse(text, &parse_error);
  if (root.is_null()) {
    *error = "work unit: " + parse_error;
    return false;
  }
  WorkUnit unit;
  unit.case_id = RequireString(root, "case_id");
  if (unit.case_id.empty()) {
    *error = "work unit: missing case_id";
    return false;
  }
  unit.chain = root.Find("chain") != nullptr && root.Find("chain")->as_bool();
  unit.slice_rounds = static_cast<int>(IntOr(root, "slice_rounds", 0));
  unit.round_budget = static_cast<int>(IntOr(root, "round_budget", 0));
  unit.checkpoint_path = RequireString(root, "checkpoint_path");
  unit.metrics_path = RequireString(root, "metrics_path");
  unit.daemon_pid = IntOr(root, "daemon_pid", 0);
  unit.emulate_crash_after_rounds =
      static_cast<int>(IntOr(root, "emulate_crash_after_rounds", 0));
  *out = std::move(unit);
  return true;
}

std::string SerializeWorkResult(const WorkResult& result) {
  JsonValue root = JsonValue::Object();
  root.Set("case_id", JsonValue::Str(result.case_id));
  root.Set("status", JsonValue::Str(SliceStatusName(result.status)));
  root.Set("rounds_done", JsonValue::Int(result.rounds_done));
  if (!result.script.empty()) {
    root.Set("script", JsonValue::Str(result.script));
    root.Set("script_seed", JsonValue::U64(result.script_seed));
  }
  root.Set("daemon_pid", JsonValue::Int(result.daemon_pid));
  if (!result.error.empty()) {
    root.Set("error", JsonValue::Str(result.error));
  }
  return root.Dump();
}

bool ParseWorkResult(const std::string& text, WorkResult* out, std::string* error) {
  std::string parse_error;
  JsonValue root = JsonValue::Parse(text, &parse_error);
  if (root.is_null()) {
    *error = "work result: " + parse_error;
    return false;
  }
  WorkResult result;
  result.case_id = RequireString(root, "case_id");
  if (result.case_id.empty()) {
    *error = "work result: missing case_id";
    return false;
  }
  const JsonValue* status = root.Find("status");
  if (status == nullptr || !SliceStatusFromName(status->as_string(), &result.status)) {
    *error = "work result: missing or unknown status";
    return false;
  }
  result.rounds_done = static_cast<int>(IntOr(root, "rounds_done", 0));
  if (const JsonValue* script = root.Find("script"); script != nullptr) {
    result.script = script->as_string();
    if (!ReadU64Member(root, "script_seed", &result.script_seed, error)) {
      *error = "work result: " + *error;
      return false;
    }
  }
  result.daemon_pid = IntOr(root, "daemon_pid", 0);
  result.error = RequireString(root, "error");
  *out = std::move(result);
  return true;
}

void RingDoorbell(int fd) {
  // A full buffer already holds unread bytes, so a send that would block
  // adds nothing.
  const char byte = 1;
  while (send(fd, &byte, 1, MSG_NOSIGNAL | MSG_DONTWAIT) < 0 && errno == EINTR) {
  }
}

bool DrainDoorbells(int fd) {
  char bytes[64];
  while (true) {
    const ssize_t got = recv(fd, bytes, sizeof(bytes), MSG_DONTWAIT);
    if (got > 0) {
      continue;
    }
    if (got < 0 && errno == EINTR) {
      continue;
    }
    // EOF, or ECONNRESET when the peer exited with bytes it never read.
    return got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

}  // namespace anduril::service
