#include "src/service/work.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstdint>
#include <limits>

#include "src/util/json.h"

namespace anduril::service {
namespace {

std::string RequireString(const JsonValue& root, const char* key) {
  const JsonValue* value = root.Find(key);
  return value != nullptr && value->type() == JsonValue::Type::kString ? value->as_string()
                                                                       : std::string();
}

constexpr int64_t kMaxInt = std::numeric_limits<int>::max();
constexpr int64_t kMaxPid = std::numeric_limits<int32_t>::max();

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
  if (!ReadIntMember(root, "slice_rounds", 0, kMaxInt, &unit.slice_rounds, error) ||
      !ReadIntMember(root, "round_budget", 0, kMaxInt, &unit.round_budget, error) ||
      !ReadIntMember(root, "daemon_pid", 0, kMaxPid, &unit.daemon_pid, error) ||
      !ReadIntMember(root, "emulate_crash_after_rounds", 0, kMaxInt,
                     &unit.emulate_crash_after_rounds, error)) {
    *error = "work unit: " + *error;
    return false;
  }
  unit.checkpoint_path = RequireString(root, "checkpoint_path");
  unit.metrics_path = RequireString(root, "metrics_path");
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
  if (!ReadIntMember(root, "rounds_done", 0, kMaxInt, &result.rounds_done, error) ||
      !ReadIntMember(root, "daemon_pid", 0, kMaxPid, &result.daemon_pid, error) ||
      (root.Find("script") != nullptr &&
       !ReadU64Member(root, "script_seed", &result.script_seed, error))) {
    *error = "work result: " + *error;
    return false;
  }
  result.script = RequireString(root, "script");
  result.error = RequireString(root, "error");
  *out = std::move(result);
  return true;
}

bool SendMessage(int fd, const std::string& message) {
  if (message.size() > kMaxMessageBytes) {
    return false;
  }
  ssize_t sent;
  while ((sent = send(fd, message.data(), message.size(), MSG_NOSIGNAL)) < 0 &&
         errno == EINTR) {
  }
  return sent == static_cast<ssize_t>(message.size());
}

Received ReceiveMessage(int fd, std::string* message) {
  // One byte of headroom: a packet that fills it is longer than the bound.
  message->resize(kMaxMessageBytes + 1);
  ssize_t got;
  // ECONNRESET: the peer exited with a packet unread. The error is reported
  // once, ahead of any packets still queued here.
  while ((got = recv(fd, message->data(), message->size(), MSG_DONTWAIT)) < 0 &&
         (errno == EINTR || errno == ECONNRESET)) {
  }
  const bool empty = got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  const bool whole = got > 0 && static_cast<size_t>(got) <= kMaxMessageBytes;
  message->resize(whole ? static_cast<size_t>(got) : 0);
  // Otherwise EOF (0), an overlong packet, or a broken socket.
  return whole ? Received::kMessage : empty ? Received::kEmpty : Received::kHangUp;
}

}  // namespace anduril::service
