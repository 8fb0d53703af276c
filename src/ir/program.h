// Program container of the anduril IR: methods, exception type hierarchy,
// log message templates, interned variables, and the static fault-site
// registry (the paper's "fault sites" — program points that can throw).

#ifndef ANDURIL_SRC_IR_PROGRAM_H_
#define ANDURIL_SRC_IR_PROGRAM_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/ir/stmt.h"
#include "src/ir/types.h"

namespace anduril::ir {

// Log severity levels, mirroring Log4j.
enum class LogLevel : uint8_t { kDebug, kInfo, kWarn, kError };

const char* LogLevelName(LogLevel level);

// A parameterized log message, e.g. "Failed to sync WAL after {} retries".
// Placeholders "{}" are substituted with rendered argument values. The
// sanitizer used in log diffing replaces digit runs with '#', which makes a
// rendered message match its template's sanitized text again — exactly the
// property the paper's per-thread diff relies on.
struct LogTemplate {
  LogTemplateId id = kInvalidId;
  LogLevel level = LogLevel::kInfo;
  std::string logger;  // component name, e.g. "wal.AsyncFSWAL"
  std::string text;    // with "{}" placeholders
};

// One exception type in a single-inheritance hierarchy rooted at "Exception".
struct ExceptionType {
  ExceptionTypeId id = kInvalidId;
  std::string name;
  ExceptionTypeId parent = kInvalidId;  // kInvalidId only for the root
};

// Kind of a static fault site, following §4.1 of the paper (kSend extends
// the taxonomy to the message layer).
enum class FaultSiteKind : uint8_t {
  kExternal,      // ExternalCall: library call that may throw (injectable)
  kThrowNew,      // Throw: `throw new E` in system code
  kAwaitTimeout,  // Await with a timeout exception
  kSend,          // Send: cross-node message (network-fault injectable)
};

// A static fault site. kExternal sites are exception/crash/stall injectable:
// the tool forces the external call to throw one of its declared exception
// types at a chosen occurrence (paper Figure 3), halt the node, or wedge the
// call. kSend sites are network-fault injectable (drop / delay / duplicate /
// partition at a chosen occurrence of the message). kThrowNew /
// kAwaitTimeout sites participate in the causal graph as new-exception
// sources and in Table 1 counts.
struct FaultSite {
  FaultSiteId id = kInvalidId;
  GlobalStmt location;
  FaultSiteKind kind = FaultSiteKind::kExternal;
  std::string name;  // unique, e.g. "hdfs.dn.write_block@DataStreamer.run#12"
};

struct Method {
  MethodId id = kInvalidId;
  std::string name;
  std::vector<Stmt> stmts;  // stmts[0] is the root block

  const Stmt& stmt(StmtId s) const { return stmts[static_cast<size_t>(s)]; }
  Stmt& stmt(StmtId s) { return stmts[static_cast<size_t>(s)]; }
};

class Program {
 public:
  Program();

  // --- Exception types -----------------------------------------------------
  // Registers (or returns the existing) exception type. `parent_name` must
  // already exist; "" means the root type "Exception".
  ExceptionTypeId DefineException(const std::string& name, const std::string& parent_name = "");
  ExceptionTypeId FindException(const std::string& name) const;  // kInvalidId if absent
  const ExceptionType& exception_type(ExceptionTypeId id) const {
    return exception_types_[static_cast<size_t>(id)];
  }
  size_t exception_type_count() const { return exception_types_.size(); }
  // True if `type` equals or derives from `ancestor`.
  bool ExceptionIsA(ExceptionTypeId type, ExceptionTypeId ancestor) const;
  ExceptionTypeId root_exception() const { return 0; }

  // --- Variables -----------------------------------------------------------
  VarId InternVar(const std::string& name);
  const std::string& var_name(VarId id) const { return var_names_[static_cast<size_t>(id)]; }
  size_t var_count() const { return var_names_.size(); }

  // --- Log templates ---------------------------------------------------------
  LogTemplateId DefineLogTemplate(LogLevel level, const std::string& logger,
                                  const std::string& text);
  const LogTemplate& log_template(LogTemplateId id) const {
    return log_templates_[static_cast<size_t>(id)];
  }

  // --- Methods ---------------------------------------------------------------
  MethodId DefineMethod(const std::string& name);
  MethodId FindMethod(const std::string& name) const;  // kInvalidId if absent
  const Method& method(MethodId id) const { return methods_[static_cast<size_t>(id)]; }
  Method& method(MethodId id) { return methods_[static_cast<size_t>(id)]; }
  size_t method_count() const { return methods_.size(); }

  // --- Finalization ------------------------------------------------------------
  // Fills parent links, verifies structural invariants, and enumerates fault
  // sites. Must be called once after all methods are built and before the
  // program is analyzed or executed.
  void Finalize();
  bool finalized() const { return finalized_; }

  // --- Fault sites (valid after Finalize) ------------------------------------
  const std::vector<FaultSite>& fault_sites() const { return fault_sites_; }
  const FaultSite& fault_site(FaultSiteId id) const {
    return fault_sites_[static_cast<size_t>(id)];
  }
  // Fault site at a statement, or kInvalidId.
  FaultSiteId FaultSiteAt(GlobalStmt location) const;
  size_t CountFaultSites(FaultSiteKind kind) const;

  // Total number of statements across all methods (the "LOC" analog of the
  // IR; reported in the Table 1 bench).
  size_t TotalStmtCount() const;

  // Human-readable dump of one method / the whole program.
  std::string DumpMethod(MethodId id) const;
  std::string Dump() const;

 private:
  void VerifyMethod(const Method& method) const;
  void VerifyStmt(const Method& method, StmtId id, bool inside_loop, bool inside_catch) const;
  void FillParents(Method* method, StmtId id);
  void EnumerateFaultSites();
  void DumpStmt(const Method& method, StmtId id, int indent, std::string* out) const;

  bool finalized_ = false;
  std::vector<ExceptionType> exception_types_;
  std::unordered_map<std::string, ExceptionTypeId> exception_index_;
  std::vector<std::string> var_names_;
  std::unordered_map<std::string, VarId> var_index_;
  std::vector<LogTemplate> log_templates_;
  std::unordered_map<std::string, LogTemplateId> log_template_index_;
  std::vector<Method> methods_;
  std::unordered_map<std::string, MethodId> method_index_;
  std::vector<FaultSite> fault_sites_;
  std::unordered_map<GlobalStmt, FaultSiteId, GlobalStmtHash> fault_site_index_;
};

}  // namespace anduril::ir

#endif  // ANDURIL_SRC_IR_PROGRAM_H_
