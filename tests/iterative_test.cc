// Tests for the extension features: pinned faults (multi-fault workloads),
// the chain search on a failure that needs two independent faults (§3/§6),
// combined runs per round (§6), and the §5.2.3/§5.2.4 design-alternative
// strategies.

#include <gtest/gtest.h>

#include "src/explorer/iterative.h"
#include "src/interp/log_entry.h"
#include "src/interp/simulator.h"
#include "src/ir/builder.h"

namespace anduril::explorer {
namespace {

using ir::Expr;
using ir::LogLevel;
using ir::MethodBuilder;
using ir::Program;

// Replicated pair: the symptom needs BOTH a disk fault on the primary copy
// and a network fault on the mirror copy.
class MultiFaultTest : public ::testing::Test {
 protected:
  void Build() {
    program_.DefineException("IOException");
    program_.DefineException("SocketException", "IOException");
    {
      MethodBuilder b(&program_, "pair.store");
      b.TryCatch(
          [&] {
            b.External("pair.disk", {"IOException"});
            b.Assign("stored", b.Plus("stored", 1));
          },
          {{"IOException",
            [&] {
              b.LogExc(LogLevel::kWarn, "pair", "primary copy lost");
              b.Assign("diskMisses", b.Plus("diskMisses", 1));
            }}});
      b.TryCatch(
          [&] {
            b.External("pair.net", {"SocketException"});
            b.Assign("mirrored", b.Plus("mirrored", 1));
          },
          {{"SocketException",
            [&] {
              b.LogExc(LogLevel::kWarn, "pair", "mirror copy lost");
              b.Assign("netMisses", b.Plus("netMisses", 1));
            }}});
      b.If(b.Gt("diskMisses", 0), [&] {
        b.If(b.Gt("netMisses", 0), [&] {
          b.Log(LogLevel::kError, "pair", "both copies lost, data gone");
        });
      });
    }
    {
      MethodBuilder b(&program_, "pair.client");
      b.While(b.Lt("ops", 8), [&] {
        b.Assign("ops", b.Plus("ops", 1));
        b.Send("pair.store", "server", ir::SendOpts{.payload = b.V("ops")});
        b.Sleep(5);
      });
    }
    program_.Finalize();
    cluster_.AddNode("server");
    cluster_.AddNode("client");
    cluster_.AddTask("client", "main", program_.FindMethod("pair.client"));

    disk_ = Site("pair.disk");
    net_ = Site("pair.net");
    io_ = program_.FindException("IOException");
    socket_ = program_.FindException("SocketException");

    // Production incident: both faults.
    interp::FaultRuntime runtime(&program_);
    runtime.SetPinned({interp::InjectionCandidate{disk_, 3, io_}});
    runtime.SetWindow({interp::InjectionCandidate{net_, 5, socket_}});
    interp::Simulator simulator(&program_, &cluster_, 777, &runtime);
    interp::RunResult incident = simulator.Run();
    ASSERT_TRUE(MakeOracle()(program_, incident));

    spec_.program = &program_;
    spec_.cluster = &cluster_;
    spec_.failure_log_text = interp::FormatLogFile(incident.log);
    spec_.oracle = MakeOracle();
  }

  static Oracle MakeOracle() {
    return [](const ir::Program&, const interp::RunResult& run) {
      return run.HasLogContaining(ir::LogLevel::kError, "both copies lost");
    };
  }

  ir::FaultSiteId Site(const std::string& prefix) const {
    for (const ir::FaultSite& site : program_.fault_sites()) {
      if (site.name.find(prefix + "@") == 0) {
        return site.id;
      }
    }
    return ir::kInvalidId;
  }

  Program program_;
  interp::ClusterSpec cluster_;
  ExperimentSpec spec_;
  ir::FaultSiteId disk_ = ir::kInvalidId;
  ir::FaultSiteId net_ = ir::kInvalidId;
  ir::ExceptionTypeId io_ = ir::kInvalidId;
  ir::ExceptionTypeId socket_ = ir::kInvalidId;
};

// --- pinned faults in the runtime ---------------------------------------------------

TEST_F(MultiFaultTest, PinnedFaultsFireEveryRun) {
  Build();
  interp::FaultRuntime runtime(&program_);
  runtime.SetPinned({interp::InjectionCandidate{disk_, 2, io_}});
  interp::Simulator simulator(&program_, &cluster_, 1, &runtime);
  interp::RunResult run = simulator.Run();
  EXPECT_EQ(run.NodeVar(program_, "server", "diskMisses"), 1);
  // Pinned faults do not count as the window injection.
  EXPECT_FALSE(run.injected.has_value());
}

TEST_F(MultiFaultTest, PinnedPlusWindowBothFire) {
  Build();
  interp::FaultRuntime runtime(&program_);
  runtime.SetPinned({interp::InjectionCandidate{disk_, 2, io_}});
  runtime.SetWindow({interp::InjectionCandidate{net_, 4, socket_}});
  interp::Simulator simulator(&program_, &cluster_, 1, &runtime);
  interp::RunResult run = simulator.Run();
  EXPECT_EQ(run.NodeVar(program_, "server", "diskMisses"), 1);
  EXPECT_EQ(run.NodeVar(program_, "server", "netMisses"), 1);
  ASSERT_TRUE(run.injected.has_value());
  EXPECT_EQ(run.injected->site, net_);
}

// --- multi-fault search ----------------------------------------------------------------

TEST_F(MultiFaultTest, SingleFaultSearchCannotReproduce) {
  Build();
  ExplorerOptions options;
  options.max_rounds = 100;
  Explorer explorer(spec_, options);
  auto strategy = MakeFullFeedbackStrategy();
  EXPECT_FALSE(explorer.Explore(strategy.get()).reproduced);
}

// The first phase's closest round pins the disk fault; the second phase,
// searched over a baseline with that pin, finds the mirror fault.
TEST_F(MultiFaultTest, ChainSearchReproducesWithTwoFaults) {
  Build();
  ExplorerOptions options;
  options.max_rounds = 100;
  ChainExplorer chain_explorer(spec_, options);
  ChainResult result = chain_explorer.Explore(/*max_chain_length=*/2);
  ASSERT_TRUE(result.reproduced);
  EXPECT_EQ(result.phases, 2);
  EXPECT_EQ(result.total_rounds, 17);
  ASSERT_EQ(result.chain.steps.size(), 2u);
  EXPECT_EQ(result.chain.steps[0].candidate, (interp::InjectionCandidate{disk_, 1, io_}));
  EXPECT_EQ(result.chain.steps[0].seed, 1u);
  EXPECT_EQ(result.chain.steps[1].candidate, (interp::InjectionCandidate{net_, 1, socket_}));
  EXPECT_EQ(result.chain.steps[1].seed, 2u);
  EXPECT_TRUE(ChainExplorer::Replay(spec_, result));
}

// One step is one single-fault search: it exhausts its space in the 16
// rounds the two-step chain's first phase takes.
TEST_F(MultiFaultTest, ChainOfOneStepFails) {
  Build();
  ExplorerOptions options;
  options.max_rounds = 60;
  ChainExplorer chain_explorer(spec_, options);
  ChainResult result = chain_explorer.Explore(/*max_chain_length=*/1);
  EXPECT_FALSE(result.reproduced);
  EXPECT_EQ(result.phases, 1);
  EXPECT_EQ(result.total_rounds, 16);
  EXPECT_TRUE(result.chain.steps.empty());
}

TEST_F(MultiFaultTest, ReplayRejectsEmptyResult) {
  Build();
  ChainResult empty;
  EXPECT_FALSE(ChainExplorer::Replay(spec_, empty));
}

// --- combined runs per round ------------------------------------------------------------

TEST_F(MultiFaultTest, RunsPerRoundStillReproducesSingleFaultCases) {
  Build();
  // Make a single-fault variant: the oracle only needs the disk-side WARN
  // and an ERROR we synthesize via the pinned incident... simpler: require
  // only the mirror-loss message, reproducible with one injection.
  ExperimentSpec single = spec_;
  single.oracle = [](const ir::Program&, const interp::RunResult& run) {
    return run.HasLogContaining(ir::LogLevel::kWarn, "mirror copy lost");
  };
  // Regenerate the failure log with just the net fault.
  interp::FaultRuntime runtime(&program_);
  runtime.SetWindow({interp::InjectionCandidate{net_, 3, socket_}});
  interp::Simulator simulator(&program_, &cluster_, 99, &runtime);
  interp::RunResult incident = simulator.Run();
  single.failure_log_text = interp::FormatLogFile(incident.log);

  ExplorerOptions options;
  options.max_rounds = 100;
  options.runs_per_round = 3;
  Explorer explorer(single, options);
  auto strategy = MakeFullFeedbackStrategy();
  ExploreResult result = explorer.Explore(strategy.get());
  ASSERT_TRUE(result.reproduced);
  EXPECT_TRUE(Explorer::Replay(single, *result.script));
}

// --- design-alternative strategies --------------------------------------------------------

TEST_F(MultiFaultTest, DesignAlternativeStrategiesAreWellFormed) {
  Build();
  for (const char* name : {"full-sum", "full-order"}) {
    auto strategy = MakeStrategy(name);
    EXPECT_EQ(strategy->name(), name);
    EXPECT_TRUE(strategy->WantsLogFeedback());
  }
}

TEST_F(MultiFaultTest, DesignAlternativesReproduceSimpleCase) {
  Build();
  ExperimentSpec single = spec_;
  single.oracle = [](const ir::Program&, const interp::RunResult& run) {
    return run.HasLogContaining(ir::LogLevel::kWarn, "primary copy lost");
  };
  interp::FaultRuntime runtime(&program_);
  runtime.SetWindow({interp::InjectionCandidate{disk_, 2, io_}});
  interp::Simulator simulator(&program_, &cluster_, 99, &runtime);
  single.failure_log_text = interp::FormatLogFile(simulator.Run().log);

  for (const char* name : {"full-sum", "full-order"}) {
    ExplorerOptions options;
    options.max_rounds = 150;
    Explorer explorer(single, options);
    auto strategy = MakeStrategy(name);
    EXPECT_TRUE(explorer.Explore(strategy.get()).reproduced) << name;
  }
}

}  // namespace
}  // namespace anduril::explorer
