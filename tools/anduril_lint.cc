// anduril_lint — static analysis driver over the failure-case registry.
//
//   anduril_lint case <case> [--json] [--graph-out=<path>]
//       Run the lint pass suite over one case's program, with the cluster
//       environment (node names, entry methods) taken from the union of the
//       case's exploration and production workloads. --json emits the
//       machine-readable report; --graph-out writes the causal graph in
//       Graphviz DOT (same flag as anduril_case).
//   anduril_lint all [--json]
//       Lint every registered case (exception, crash/stall, network, and
//       cascade registries). Prints one summary line per case; exits nonzero
//       if any case has lint errors.
//   anduril_lint soundness <case|all> [max_candidates]
//       Causal-soundness cross-validation: replay each exception candidate
//       on the simulator and check every dynamically-observed
//       fault->observable pair has a static path in the causal graph
//       (dynamic ⊆ static). Exits nonzero on any violation.
//
// CI runs `anduril_lint all` and `anduril_lint soundness all` on every push:
// an Algorithm 1 regression that breaks graph over-approximation, or a
// scenario edit that introduces unreachable code / shadowed handlers /
// unknown send targets, fails the build.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/analysis/graph_export.h"
#include "src/analysis/lint.h"
#include "src/explorer/explorer.h"
#include "src/explorer/soundness.h"
#include "src/systems/common.h"
#include "src/systems/harness.h"

namespace anduril {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: anduril_lint case <case> [--json] [--graph-out=<path>]\n"
               "       anduril_lint all [--json]\n"
               "       anduril_lint soundness <case|all> [max_candidates]\n");
  return 2;
}

std::vector<const systems::FailureCase*> EveryCase() {
  std::vector<const systems::FailureCase*> cases;
  for (const std::vector<systems::FailureCase>* registry :
       {&systems::AllCases(), &systems::CrashStallCases(), &systems::NetworkCases(),
        &systems::CascadeCases()}) {
    for (const systems::FailureCase& failure_case : *registry) {
      cases.push_back(&failure_case);
    }
  }
  return cases;
}

// Cluster facts for the environment-dependent passes: nodes and entry
// methods from both the exploration and the production workload, so a
// method only the failure run boots still counts as live.
analysis::LintEnvironment EnvironmentOf(const systems::BuiltCase& built) {
  analysis::LintEnvironment env;
  env.provided = true;
  std::unordered_set<std::string> node_seen;
  std::unordered_set<ir::MethodId> method_seen;
  for (const interp::ClusterSpec* cluster : {&built.cluster, &built.failure_cluster}) {
    for (const std::string& node : cluster->nodes) {
      if (node_seen.insert(node).second) {
        env.node_names.push_back(node);
      }
    }
    for (const interp::InitialTask& task : cluster->tasks) {
      if (method_seen.insert(task.method).second) {
        env.entry_methods.push_back(task.method);
      }
    }
  }
  return env;
}

bool WriteTextFile(const std::string& path, const std::string& text, const char* what) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << text;
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s to %s\n", what, path.c_str());
    return false;
  }
  return true;
}

int LintOne(const std::string& id, bool json, const std::string& graph_out) {
  const systems::FailureCase* failure_case = systems::FindCase(id);
  if (failure_case == nullptr) {
    std::fprintf(stderr, "unknown case '%s' (try: anduril_case list)\n", id.c_str());
    return 1;
  }
  systems::BuiltCase built = systems::BuildCase(*failure_case);
  analysis::LintReport report = analysis::RunLints(*built.program, EnvironmentOf(built));
  std::fputs(json ? report.ToJson(*built.program).c_str()
                  : report.ToText(*built.program).c_str(),
             stdout);
  if (!graph_out.empty()) {
    explorer::Explorer ex(built.spec, systems::OptionsForCase(*failure_case));
    if (!WriteTextFile(graph_out, analysis::ExportDot(*built.program, ex.context().graph()),
                       "causal graph")) {
      return 1;
    }
    std::printf("causal graph: %zu nodes -> %s\n", ex.context().graph().node_count(),
                graph_out.c_str());
  }
  return report.error_count() == 0 ? 0 : 1;
}

int LintAll(bool json) {
  size_t errors = 0;
  size_t warnings = 0;
  size_t infos = 0;
  for (const systems::FailureCase* failure_case : EveryCase()) {
    systems::BuiltCase built = systems::BuildCase(*failure_case);
    analysis::LintReport report = analysis::RunLints(*built.program, EnvironmentOf(built));
    errors += report.error_count();
    warnings += report.CountOf(analysis::LintSeverity::kWarning);
    infos += report.CountOf(analysis::LintSeverity::kInfo);
    if (json) {
      std::printf("{\"case\": \"%s\", \"report\": %s}\n", failure_case->id.c_str(),
                  report.ToJson(*built.program).c_str());
    } else {
      std::printf("%-10s %zu errors, %zu warnings, %zu infos (%.2f ms)\n",
                  failure_case->id.c_str(), report.error_count(),
                  report.CountOf(analysis::LintSeverity::kWarning),
                  report.CountOf(analysis::LintSeverity::kInfo), report.seconds * 1000.0);
      for (const analysis::LintDiagnostic& diagnostic : report.diagnostics) {
        if (diagnostic.severity == analysis::LintSeverity::kError) {
          std::printf("  error [%s] @%s#%d: %s\n", diagnostic.pass.c_str(),
                      built.program->method(diagnostic.location.method).name.c_str(),
                      diagnostic.location.stmt, diagnostic.message.c_str());
        }
      }
    }
  }
  std::printf("total: %zu errors, %zu warnings, %zu infos over %zu cases\n", errors,
              warnings, infos, EveryCase().size());
  return errors == 0 ? 0 : 1;
}

int Soundness(const std::string& id, size_t max_candidates) {
  std::vector<const systems::FailureCase*> cases;
  if (id == "all") {
    cases = EveryCase();
  } else {
    const systems::FailureCase* failure_case = systems::FindCase(id);
    if (failure_case == nullptr) {
      std::fprintf(stderr, "unknown case '%s' (try: anduril_case list)\n", id.c_str());
      return 1;
    }
    cases.push_back(failure_case);
  }
  size_t violations = 0;
  for (const systems::FailureCase* failure_case : cases) {
    systems::BuiltCase built = systems::BuildCase(*failure_case);
    explorer::Explorer ex(built.spec, systems::OptionsForCase(*failure_case));
    explorer::SoundnessReport report =
        explorer::CheckCausalSoundness(ex.context(), max_candidates);
    violations += report.violations.size();
    std::printf("%-10s %s", failure_case->id.c_str(),
                report.ToText(ex.context()).c_str());
  }
  return violations == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  std::vector<std::string> args;
  std::string graph_out;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--graph-out=", 0) == 0) {
      graph_out = arg.substr(std::string("--graph-out=").size());
    } else if (arg == "--json") {
      json = true;
    } else {
      args.push_back(std::move(arg));
    }
  }
  if (args.empty()) {
    return Usage();
  }
  const std::string& command = args[0];
  if (command == "all") {
    return LintAll(json);
  }
  if (command == "case" && args.size() >= 2) {
    return LintOne(args[1], json, graph_out);
  }
  if (command == "soundness" && args.size() >= 2) {
    return Soundness(args[1],
                     args.size() > 2 ? static_cast<size_t>(std::atoll(args[2].c_str())) : 0);
  }
  return Usage();
}

}  // namespace
}  // namespace anduril

int main(int argc, char** argv) { return anduril::Main(argc, argv); }
