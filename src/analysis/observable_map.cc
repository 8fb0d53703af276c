#include "src/analysis/observable_map.h"

#include "src/logdiff/parser.h"
#include "src/util/check.h"
#include "src/util/strings.h"

namespace anduril::analysis {

namespace {

constexpr const char kUncaughtPrefix[] = "Uncaught exception terminating thread:";
constexpr const char kExcMarker[] = " [exc=";

}  // namespace

std::string ObservableMapper::TemplateKey(const ir::Program& program, ir::LogTemplateId tmpl) {
  const ir::LogTemplate& t = program.log_template(tmpl);
  // "{}" placeholders render as digit runs, which sanitize to '#'.
  std::string key;
  logdiff::SetObservableKey(ir::LogLevelName(t.level), t.logger, ReplaceAll(t.text, "{}", "0"),
                            &key);
  return key;
}

ObservableMapper::ObservableMapper(const ir::Program& program) : program_(program) {
  ANDURIL_CHECK(program.finalized());
  for (size_t m = 0; m < program.method_count(); ++m) {
    const ir::Method& method = program.method(static_cast<ir::MethodId>(m));
    for (ir::StmtId s = 0; s < static_cast<ir::StmtId>(method.stmts.size()); ++s) {
      const ir::Stmt& stmt = method.stmt(s);
      if (stmt.kind == ir::StmtKind::kLog) {
        template_index_[TemplateKey(program, stmt.log_template)].push_back(
            ir::GlobalStmt{method.id, s});
      }
    }
  }
  for (const ir::FaultSite& site : program.fault_sites()) {
    site_index_[logdiff::Sanitize(site.name)].push_back(site.id);
  }
}

std::vector<CausalSink> ObservableMapper::Resolve(const std::vector<std::string>& keys) const {
  std::vector<CausalSink> sinks;
  for (size_t k = 0; k < keys.size(); ++k) {
    const std::string& key = keys[k];
    // Split "LEVEL|logger|message".
    std::vector<std::string> parts = SplitN(key, '|', 3);
    if (parts.size() != 3) {
      continue;
    }
    const std::string& message = parts[2];

    if (StartsWith(message, kUncaughtPrefix)) {
      // Parse the embedded "exc=Type at Site" (site name is sanitized, as the
      // key itself is sanitized text).
      size_t marker = message.find(kExcMarker);
      if (marker == std::string::npos) {
        continue;
      }
      size_t start = marker + sizeof(kExcMarker) - 1;
      size_t at = message.find(" at ", start);
      if (at == std::string::npos) {
        continue;
      }
      std::string type_name = message.substr(start, at - start);
      size_t site_start = at + 4;
      size_t site_end = message.find_first_of(";]", site_start);
      if (site_end == std::string::npos) {
        continue;
      }
      std::string site_name = message.substr(site_start, site_end - site_start);
      auto it = site_index_.find(site_name);
      if (it == site_index_.end()) {
        continue;
      }
      ir::ExceptionTypeId type = program_.FindException(type_name);
      for (ir::FaultSiteId site : it->second) {
        CausalSink sink;
        sink.observable = static_cast<int32_t>(k);
        sink.direct_site = site;
        // Use the printed type only if this site can actually throw it.
        const ir::FaultSite& fault_site = program_.fault_site(site);
        const ir::Stmt& stmt =
            program_.method(fault_site.location.method).stmt(fault_site.location.stmt);
        if (type != ir::kInvalidId && fault_site.kind == ir::FaultSiteKind::kExternal) {
          for (ir::ExceptionTypeId throwable : stmt.throwable_types) {
            if (throwable == type) {
              sink.direct_type = type;
              break;
            }
          }
        }
        sinks.push_back(sink);
      }
      continue;
    }

    // Strip a printed-exception suffix for template matching.
    std::string lookup = key;
    size_t marker = message.find(kExcMarker);
    if (marker != std::string::npos) {
      size_t prefix_len = parts[0].size() + 1 + parts[1].size() + 1;
      lookup = key.substr(0, prefix_len + marker);
    }
    auto it = template_index_.find(lookup);
    if (it == template_index_.end()) {
      continue;
    }
    for (const ir::GlobalStmt& log_stmt : it->second) {
      CausalSink sink;
      sink.observable = static_cast<int32_t>(k);
      sink.log_stmt = log_stmt;
      sinks.push_back(sink);
    }
  }
  return sinks;
}

}  // namespace anduril::analysis
