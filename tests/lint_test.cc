// Unit tests for the static-analysis stack introduced with anduril_lint:
// per-method CFG construction and each lint pass (positive and negative
// cases).

#include <gtest/gtest.h>

#include "src/analysis/cfg.h"
#include "src/analysis/exception_flow.h"
#include "src/analysis/lint.h"
#include "src/ir/builder.h"

namespace anduril::analysis {
namespace {

using ir::Expr;
using ir::LogLevel;
using ir::MethodBuilder;
using ir::Program;

class LintTest : public ::testing::Test {
 protected:
  LintTest() {
    program_.DefineException("IOException");
    program_.DefineException("FileNotFoundException", "IOException");
    program_.DefineException("TimeoutException");
    program_.DefineException("ExecutionException");
  }

  ir::StmtId FindStmt(const std::string& method_name, ir::StmtKind kind,
                      int skip = 0) const {
    const ir::Method& method = program_.method(program_.FindMethod(method_name));
    for (ir::StmtId s = 0; s < static_cast<ir::StmtId>(method.stmts.size()); ++s) {
      if (method.stmt(s).kind == kind && skip-- == 0) {
        return s;
      }
    }
    return ir::kInvalidId;
  }

  // Diagnostics of one pass, across all methods.
  std::vector<LintDiagnostic> Of(const LintReport& report, const std::string& pass) const {
    std::vector<LintDiagnostic> out;
    for (const LintDiagnostic& diagnostic : report.diagnostics) {
      if (diagnostic.pass == pass) {
        out.push_back(diagnostic);
      }
    }
    return out;
  }

  Program program_;
};

// --- CFG -------------------------------------------------------------------------

TEST_F(LintTest, CfgStraightLineAllReachable) {
  MethodBuilder b(&program_, "m");
  b.Nop();
  b.Assign("x", Expr::Const(1));
  b.Log(LogLevel::kInfo, "t", "done");
  b.Build();
  program_.Finalize();
  MethodCfg cfg(program_, program_.FindMethod("m"));
  const ir::Method& method = program_.method(program_.FindMethod("m"));
  for (ir::StmtId s = 0; s < static_cast<ir::StmtId>(method.stmts.size()); ++s) {
    EXPECT_TRUE(cfg.StmtReachable(s)) << "stmt " << s;
  }
  // The last statement flows to the synthetic exit.
  ir::StmtId log_stmt = FindStmt("m", ir::StmtKind::kLog);
  const std::vector<CfgNodeId>& succs = cfg.succs(static_cast<CfgNodeId>(log_stmt));
  ASSERT_EQ(succs.size(), 1u);
  EXPECT_EQ(succs[0], cfg.exit());
}

TEST_F(LintTest, CfgCodeAfterReturnUnreachable) {
  MethodBuilder b(&program_, "m");
  b.Return();
  b.Nop();
  b.Build();
  program_.Finalize();
  MethodCfg cfg(program_, program_.FindMethod("m"));
  EXPECT_TRUE(cfg.StmtReachable(FindStmt("m", ir::StmtKind::kReturn)));
  EXPECT_FALSE(cfg.StmtReachable(FindStmt("m", ir::StmtKind::kNop)));
}

TEST_F(LintTest, CfgWhileTrueWithoutBreakSwallowsTail) {
  MethodBuilder b(&program_, "m");
  b.While(ir::Cond{}, [&] { b.Nop(); });  // while (true) with no exit
  b.Log(LogLevel::kInfo, "t", "after");
  b.Build();
  program_.Finalize();
  MethodCfg cfg(program_, program_.FindMethod("m"));
  EXPECT_FALSE(cfg.StmtReachable(FindStmt("m", ir::StmtKind::kLog)));
}

TEST_F(LintTest, CfgBreakEscapesWhileTrue) {
  MethodBuilder b(&program_, "m");
  b.While(ir::Cond{}, [&] { b.Break(); });
  b.Log(LogLevel::kInfo, "t", "after");
  b.Build();
  program_.Finalize();
  MethodCfg cfg(program_, program_.FindMethod("m"));
  EXPECT_TRUE(cfg.StmtReachable(FindStmt("m", ir::StmtKind::kLog)));
}

TEST_F(LintTest, CfgThrowEdgesReachMatchingCatch) {
  MethodBuilder b(&program_, "m");
  b.TryCatch(
      [&] {
        b.Throw("FileNotFoundException");
        b.Nop();  // dead: the throw never falls through
      },
      {{"IOException", [&] { b.Log(LogLevel::kWarn, "t", "caught"); }}});
  b.Log(LogLevel::kInfo, "t", "after");
  b.Build();
  program_.Finalize();
  ir::MethodId m = program_.FindMethod("m");
  ExceptionFlow flow(program_);
  MethodCfg cfg(program_, m, &flow);
  EXPECT_FALSE(cfg.StmtReachable(FindStmt("m", ir::StmtKind::kNop)));
  // The handler and the code after the TryCatch are reachable via the throw
  // edge into the matching (base-type) clause.
  EXPECT_TRUE(cfg.StmtReachable(FindStmt("m", ir::StmtKind::kLog, 0)));
  EXPECT_TRUE(cfg.StmtReachable(FindStmt("m", ir::StmtKind::kLog, 1)));
}

TEST_F(LintTest, CfgUncaughtTypeFlowsToExit) {
  MethodBuilder b(&program_, "m");
  b.TryCatch([&] { b.External("site", {"TimeoutException"}); },
             {{"IOException", [&] { b.Nop(); }}});
  b.Build();
  program_.Finalize();
  ExceptionFlow flow(program_);
  MethodCfg cfg(program_, program_.FindMethod("m"), &flow);
  // The external call has a throw edge straight to exit (TimeoutException
  // escapes past catch(IOException)), so the handler stays unreachable.
  EXPECT_FALSE(cfg.StmtReachable(FindStmt("m", ir::StmtKind::kNop)));
  ir::StmtId call = FindStmt("m", ir::StmtKind::kExternalCall);
  bool exit_edge = false;
  for (CfgNodeId succ : cfg.succs(static_cast<CfgNodeId>(call))) {
    exit_edge |= succ == cfg.exit();
  }
  EXPECT_TRUE(exit_edge);
}

// --- lint passes -----------------------------------------------------------------

TEST_F(LintTest, UnreachableStmtReportedOncePerRegion) {
  MethodBuilder b(&program_, "m");
  b.Return();
  b.Nop();
  b.Log(LogLevel::kInfo, "t", "also dead");
  b.Build();
  program_.Finalize();
  LintReport report = RunLints(program_);
  // Both dead statements share the reachable root block as parent, so both
  // are topmost-unreachable and both are reported.
  EXPECT_EQ(Of(report, "unreachable-stmt").size(), 2u);
  EXPECT_EQ(report.error_count(), 2u);
}

TEST_F(LintTest, UnreachableCascadeSuppressed) {
  MethodBuilder b(&program_, "m");
  b.Return();
  b.If(b.Eq("x", 1), [&] { b.Nop(); });  // dead If; its block/child suppressed
  b.Build();
  program_.Finalize();
  std::vector<LintDiagnostic> diagnostics = Of(RunLints(program_), "unreachable-stmt");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(program_.method(diagnostics[0].location.method)
                .stmt(diagnostics[0].location.stmt)
                .kind,
            ir::StmtKind::kIf);
}

TEST_F(LintTest, CleanMethodNoUnreachable) {
  MethodBuilder b(&program_, "m");
  b.While(b.Lt("i", 3), [&] { b.Assign("i", b.Plus("i", 1)); });
  b.Log(LogLevel::kInfo, "t", "i is {}", {b.V("i")});
  b.Build();
  program_.Finalize();
  EXPECT_TRUE(Of(RunLints(program_), "unreachable-stmt").empty());
}

TEST_F(LintTest, ShadowedCatchClause) {
  MethodBuilder b(&program_, "m");
  b.TryCatch([&] { b.External("site", {"FileNotFoundException"}); },
             {{"IOException", [&] {}}, {"FileNotFoundException", [&] {}}});
  b.Build();
  program_.Finalize();
  std::vector<LintDiagnostic> diagnostics = Of(RunLints(program_), "shadowed-catch");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].severity, LintSeverity::kError);
  EXPECT_NE(diagnostics[0].message.find("FileNotFoundException"), std::string::npos);
}

TEST_F(LintTest, ImpossibleCatchWarns) {
  MethodBuilder b(&program_, "m");
  b.TryCatch([&] { b.External("site", {"IOException"}); },
             {{"IOException", [&] {}}, {"TimeoutException", [&] {}}});
  b.Build();
  program_.Finalize();
  std::vector<LintDiagnostic> diagnostics = Of(RunLints(program_), "impossible-catch");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].severity, LintSeverity::kWarning);
  EXPECT_NE(diagnostics[0].message.find("TimeoutException"), std::string::npos);
}

TEST_F(LintTest, FutureGetExecutionExceptionCatchIsPossible) {
  MethodBuilder worker(&program_, "worker");
  worker.Nop();
  worker.Build();
  MethodBuilder b(&program_, "m");
  b.Submit("worker", "fut", "executor");
  b.TryCatch([&] { b.FutureGet("fut", /*timeout_ms=*/100, "TimeoutException"); },
             {{"ExecutionException", [&] {}}});
  b.Build();
  program_.Finalize();
  // FutureGet conservatively raises ExecutionException, so the catch is
  // reachable — no impossible-catch, and no unreachable-stmt for its block.
  LintReport report = RunLints(program_);
  EXPECT_TRUE(Of(report, "impossible-catch").empty());
  EXPECT_EQ(report.error_count(), 0u);
}

TEST_F(LintTest, WriteOnlyVariableWarns) {
  MethodBuilder b(&program_, "m");
  b.Assign("neverRead", Expr::Const(42));
  b.Assign("used", Expr::Const(1));
  b.If(b.Eq("used", 1), [&] { b.Nop(); });
  b.Build();
  program_.Finalize();
  std::vector<LintDiagnostic> diagnostics = Of(RunLints(program_), "write-only-var");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_NE(diagnostics[0].message.find("neverRead"), std::string::npos);
}

TEST_F(LintTest, SubmitFutureIsNotAWrite) {
  MethodBuilder worker(&program_, "worker");
  worker.Nop();
  worker.Build();
  MethodBuilder b(&program_, "m");
  b.Submit("worker", "fireAndForget", "executor");
  b.Build();
  program_.Finalize();
  // Fire-and-forget futures are idiomatic, not write-only-var material.
  EXPECT_TRUE(Of(RunLints(program_), "write-only-var").empty());
}

TEST_F(LintTest, DeadFaultSiteNeedsEnvironment) {
  MethodBuilder cold(&program_, "cold");
  cold.External("cold.call", {"IOException"});
  cold.Build();
  MethodBuilder entry(&program_, "entry");
  entry.Nop();
  entry.Build();
  program_.Finalize();

  EXPECT_TRUE(Of(RunLints(program_), "dead-fault-site").empty());  // no env

  LintEnvironment env;
  env.provided = true;
  env.entry_methods = {program_.FindMethod("entry")};
  std::vector<LintDiagnostic> diagnostics = Of(RunLints(program_, env), "dead-fault-site");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].severity, LintSeverity::kInfo);
  EXPECT_NE(diagnostics[0].message.find("cold.call"), std::string::npos);
}

TEST_F(LintTest, LiveMethodFaultSiteNotDead) {
  MethodBuilder callee(&program_, "callee");
  callee.External("warm.call", {"IOException"});
  callee.Build();
  MethodBuilder entry(&program_, "entry");
  entry.Invoke("callee");
  entry.Build();
  program_.Finalize();
  LintEnvironment env;
  env.provided = true;
  env.entry_methods = {program_.FindMethod("entry")};
  EXPECT_TRUE(Of(RunLints(program_, env), "dead-fault-site").empty());
}

TEST_F(LintTest, InertLogFlagged) {
  MethodBuilder b(&program_, "m");
  b.Log(LogLevel::kInfo, "t", "boot banner");  // nothing faulty can precede it
  b.External("site", {"IOException"});
  b.Log(LogLevel::kInfo, "t", "made it past the call");
  b.Build();
  program_.Finalize();
  std::vector<LintDiagnostic> diagnostics = Of(RunLints(program_), "inert-log");
  ASSERT_EQ(diagnostics.size(), 1u);
  const ir::Stmt& flagged = program_.method(diagnostics[0].location.method)
                                .stmt(diagnostics[0].location.stmt);
  EXPECT_EQ(program_.log_template(flagged.log_template).text, "boot banner");
}

TEST_F(LintTest, UnregisteredSendTarget) {
  MethodBuilder handler(&program_, "handler");
  handler.Nop();
  handler.Build();
  MethodBuilder b(&program_, "entry");
  b.Send("handler", "ghost-node");
  b.Send("handler", "node", ir::SendOpts{.index_var = "idx"});  // prefix of node1
  b.Build();
  program_.Finalize();
  LintEnvironment env;
  env.provided = true;
  env.node_names = {"node1", "node2"};
  env.entry_methods = {program_.FindMethod("entry")};
  std::vector<LintDiagnostic> diagnostics =
      Of(RunLints(program_, env), "unregistered-send-target");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_NE(diagnostics[0].message.find("ghost-node"), std::string::npos);
}

TEST_F(LintTest, SendInDeadMethodNotChecked) {
  MethodBuilder handler(&program_, "handler");
  handler.Nop();
  handler.Build();
  MethodBuilder cold(&program_, "cold");
  cold.Send("handler", "ghost-node");
  cold.Build();
  MethodBuilder entry(&program_, "entry");
  entry.Nop();
  entry.Build();
  program_.Finalize();
  LintEnvironment env;
  env.provided = true;
  env.node_names = {"node1"};
  env.entry_methods = {program_.FindMethod("entry")};
  // Dead code never executes, so the runtime CHECK it would trip stays
  // theoretical — no error.
  EXPECT_TRUE(Of(RunLints(program_, env), "unregistered-send-target").empty());
}

TEST_F(LintTest, FutureGetWithoutSubmit) {
  MethodBuilder b(&program_, "m");
  b.FutureGet("orphan", /*timeout_ms=*/100, "TimeoutException");
  b.Build();
  program_.Finalize();
  std::vector<LintDiagnostic> diagnostics =
      Of(RunLints(program_), "future-get-unsubmitted");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].severity, LintSeverity::kError);
  EXPECT_NE(diagnostics[0].message.find("orphan"), std::string::npos);
}

TEST_F(LintTest, ReportFormats) {
  MethodBuilder b(&program_, "m");
  b.Assign("neverRead", Expr::Const(1));
  b.Build();
  program_.Finalize();
  LintReport report = RunLints(program_);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  std::string text = report.ToText(program_);
  EXPECT_NE(text.find("warning [write-only-var] @m#"), std::string::npos);
  EXPECT_NE(text.find("0 errors, 1 warnings"), std::string::npos);
  std::string json = report.ToJson(program_);
  EXPECT_NE(json.find("\"warnings\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"pass\": \"write-only-var\""), std::string::npos);
  EXPECT_NE(json.find("\"method\": \"m\""), std::string::npos);
}

}  // namespace
}  // namespace anduril::analysis
