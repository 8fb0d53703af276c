// Shared test scaffolding.
//
// Two layers, mirroring the code under test:
//  - interp: TwoNodeClusterTest, a fixture for tests that build a small IR
//    program with MethodBuilder and run it on an n1/n2 cluster (the
//    network-fault and hardened-runtime suites).
//  - explorer: free helpers for tests that search a registered failure case
//    end to end — candidate-space options derived from the case's root fault
//    kind, a one-call search runner, and temp-file paths.
//  - golden files: where tests/golden/ lives, whether to rewrite it, and the
//    data lines of a line-oriented golden.

#ifndef ANDURIL_TESTS_TEST_UTIL_H_
#define ANDURIL_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/explorer/explorer.h"
#include "src/explorer/strategy.h"
#include "src/interp/simulator.h"
#include "src/ir/builder.h"
#include "src/systems/common.h"
#include "src/systems/harness.h"

namespace anduril {

// Tests compare against the files under tests/golden/ (ANDURIL_GOLDEN_DIR,
// set by tests/CMakeLists.txt) and rewrite them in place when run with
// ANDURIL_UPDATE_GOLDENS=1 (scripts/update_trace_golden.sh).
inline std::string GoldenPath(const std::string& name) {
  return std::string(ANDURIL_GOLDEN_DIR) + "/" + name;
}

inline bool UpdateGoldens() {
  const char* env = std::getenv("ANDURIL_UPDATE_GOLDENS");
  return env != nullptr && std::string(env) == "1";
}

// The data lines of a line-oriented golden: blank and '#' lines dropped.
inline std::vector<std::string> GoldenDataLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') {
      lines.push_back(line);
    }
  }
  return lines;
}

}  // namespace anduril

namespace anduril::interp {

// Base fixture: a Program plus a two-node cluster, with one task on n1
// running `entry`. Subclasses build methods into program_ (and may predefine
// exception types in their constructors); Run() finalizes lazily so a test
// can keep adding methods until the first run.
class TwoNodeClusterTest : public ::testing::Test {
 protected:
  RunResult Run(const std::string& entry, uint64_t seed = 1,
                std::vector<InjectionCandidate> window = {},
                std::vector<InjectionCandidate> pinned = {}) {
    if (!program_.finalized()) {
      program_.Finalize();
    }
    if (cluster_.nodes.empty()) {
      cluster_.AddNode("n1");
      cluster_.AddNode("n2");
    }
    cluster_.tasks.clear();
    cluster_.AddTask("n1", "main", program_.FindMethod(entry), 0);
    FaultRuntime runtime(&program_);
    runtime.SetWindow(std::move(window));
    runtime.SetPinned(std::move(pinned));
    Simulator simulator(&program_, &cluster_, seed, &runtime);
    return simulator.Run();
  }

  int64_t Var(const RunResult& result, const std::string& var,
              const std::string& node = "n1") const {
    return result.NodeVar(program_, node, var);
  }

  ir::FaultSiteId Site(const std::string& prefix) const {
    for (const ir::FaultSite& site : program_.fault_sites()) {
      if (site.name.find(prefix + "@") == 0) {
        return site.id;
      }
    }
    return ir::kInvalidId;
  }

  ir::Program program_;
  ClusterSpec cluster_;
};

}  // namespace anduril::interp

namespace anduril::explorer {

inline std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// The search harness itself lives in src/systems/harness.h (shared with the
// tools and the reproduction service); re-exported here so test code keeps
// calling OptionsForCase/RunSearch unqualified.
using systems::OptionsForCase;
using systems::RunSearch;

}  // namespace anduril::explorer

#endif  // ANDURIL_TESTS_TEST_UTIL_H_
