//===- tests/AuditorTest.cpp - Static auditor acceptance + fault injection --===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The auditor must accept everything the solver produces (on the paper
/// figures, the full pipeline, and randomized programs) and reject
/// targeted corruptions with the *right* check ID anchored to the right
/// node — a differential-testing harness for the elimination solver.
///
//===----------------------------------------------------------------------===//

#include "Battery.h"
#include "TestUtil.h"

#include "analysis/Auditor.h"
#include "comm/CommGen.h"
#include "dataflow/GiveNTake.h"
#include "gen/RandomProgram.h"
#include "pre/ExprPre.h"

#include <gtest/gtest.h>

using namespace gnt;
using namespace gnt::test;

namespace {

constexpr unsigned ItemX = 0;

NodeId findAssign(const Cfg &G, const std::string &Var) {
  for (NodeId Id = 0; Id != G.size(); ++Id) {
    const auto *AS = dyn_cast_or_null<AssignStmt>(G.node(Id).S);
    if (G.node(Id).Kind == NodeKind::Stmt && AS)
      if (const auto *V = dyn_cast<VarExpr>(AS->getLHS()))
        if (V->getName() == Var)
          return Id;
  }
  ADD_FAILURE() << "no assignment to " << Var;
  return InvalidNode;
}

std::string errors(const AuditResult &A) {
  std::string S;
  for (const Diagnostic &D : A.Diags.all())
    if (D.Severity == DiagSeverity::Error)
      S += D.render() + "\n";
  return S;
}

} // namespace

TEST(Auditor, AcceptsSolverOutputOnPaperFigures) {
  for (const char *Src :
       {fig11Source(), "do i = 1, n\nv = i\nenddo\nw = 2\n",
        "if (c > 0) then\nv = 1\nendif\nw = 2\n"}) {
    Pipeline P = Pipeline::fromSource(Src);
    GntProblem Prob(P.G.size(), 2);
    for (NodeId Id = 0; Id != P.G.size(); ++Id)
      if (P.G.node(Id).Kind == NodeKind::Stmt) {
        Prob.TakeInit[Id].set(Id % 2);
        if (Id % 3 == 0)
          Prob.StealInit[Id].set((Id + 1) % 2);
      }
    for (Direction Dir : {Direction::Before, Direction::After}) {
      Prob.Dir = Dir;
      GntRun Run = runGiveNTake(*P.Ifg, Prob);
      AuditResult A = auditGntRun(Run);
      EXPECT_TRUE(A.ok()) << Src << "\n" << errors(A);
      // Production liveness for EAGER and LAZY (plus anticipability on
      // jump-free graphs); C1/C3/O1 come from the verifier.
      EXPECT_GE(A.Stats.EngineSolves, 2u);
      EXPECT_EQ(A.Stats.ReferenceSweeps, 2u);
    }
  }
}

TEST(Auditor, IfgLintAcceptsBothOrientations) {
  Pipeline P = Pipeline::fromSource(fig11Source());
  AuditResult Fwd = auditIfg(*P.Ifg);
  EXPECT_TRUE(Fwd.ok()) << errors(Fwd);

  // An AFTER run carries the reversed orientation of the same graph.
  GntProblem Prob(P.G.size(), 1, Direction::After);
  GntRun Run = runGiveNTake(*P.Ifg, Prob);
  AuditResult Rev = auditIfg(Run.OrientedIfg);
  EXPECT_TRUE(Rev.ok()) << errors(Rev);
}

TEST(Auditor, DroppedProductionIsRejectedAsC3) {
  Pipeline P = Pipeline::fromSource("v = 1\nw = 2\n");
  GntProblem Prob(P.G.size(), 1);
  NodeId W = findAssign(P.G, "w");
  Prob.TakeInit[W].set(ItemX);
  GntRun Run = runGiveNTake(*P.Ifg, Prob);
  for (BitVector &BV : Run.Result.Eager.ResIn)
    BV.reset();
  AuditResult A = auditGntRun(Run);
  EXPECT_FALSE(A.ok());
  EXPECT_TRUE(A.Diags.contains(CheckId::C3, W))
      << "expected C3 at node " << W << ", got:\n" << errors(A);
  // The from-scratch re-derivation disagrees with the corruption too.
  EXPECT_TRUE(A.Diags.contains(CheckId::Diff));
}

TEST(Auditor, SpuriousProductionIsRejectedAsO3) {
  Pipeline P = Pipeline::fromSource("v = 1\nw = 2\n");
  GntProblem Prob(P.G.size(), 2);
  NodeId V = findAssign(P.G, "v"), W = findAssign(P.G, "w");
  Prob.TakeInit[W].set(ItemX);
  GntRun Run = runGiveNTake(*P.Ifg, Prob);
  // Produce item 1, which nothing ever consumes: not anticipated
  // anywhere, so the eager placement law RES_in <= TAKEN_in breaks.
  Run.Result.Eager.ResIn[V].set(1u);
  AuditResult A = auditGntRun(Run);
  EXPECT_FALSE(A.ok());
  EXPECT_TRUE(A.Diags.contains(CheckId::O3, V))
      << "expected O3 at node " << V << ", got:\n" << errors(A);
  EXPECT_TRUE(A.Diags.contains(CheckId::Diff, V));
}

TEST(Auditor, SwappedUrgenciesAreRejectedAsC1) {
  Pipeline P = Pipeline::fromSource("v = 1\nw = 2\n");
  GntProblem Prob(P.G.size(), 1);
  NodeId W = findAssign(P.G, "w");
  Prob.TakeInit[W].set(ItemX);
  GntRun Run = runGiveNTake(*P.Ifg, Prob);
  ASSERT_NE(Run.Result.Eager.ResIn[W], Run.Result.Lazy.ResIn[W])
      << "test premise: EAGER and LAZY differ at the consumer";
  std::swap(Run.Result.Eager.ResIn[W], Run.Result.Lazy.ResIn[W]);
  AuditResult A = auditGntRun(Run);
  EXPECT_FALSE(A.ok());
  EXPECT_TRUE(A.Diags.contains(CheckId::C1))
      << "expected a C1 balance error, got:\n" << errors(A);
}

TEST(Auditor, MutatedDataflowVariableIsRejectedAsDiff) {
  Pipeline P = Pipeline::fromSource("v = 1\nu = 3\nw = 2\n");
  GntProblem Prob(P.G.size(), 1);
  NodeId U = findAssign(P.G, "u"), W = findAssign(P.G, "w");
  Prob.TakeInit[W].set(ItemX);
  GntRun Run = runGiveNTake(*P.Ifg, Prob);
  // Flip an intermediate variable the placement checks don't read
  // directly: only the differential pass can notice.
  if (Run.Result.TakeLoc[U].test(ItemX))
    Run.Result.TakeLoc[U].reset(ItemX);
  else
    Run.Result.TakeLoc[U].set(ItemX);
  AuditResult A = auditGntRun(Run);
  EXPECT_FALSE(A.ok());
  EXPECT_TRUE(A.Diags.contains(CheckId::Diff, U))
      << "expected DIFF at node " << U << ", got:\n" << errors(A);
}

TEST(Auditor, PassSelectionIsHonored) {
  Pipeline P = Pipeline::fromSource("v = 1\nw = 2\n");
  GntProblem Prob(P.G.size(), 1);
  Prob.TakeInit[findAssign(P.G, "w")].set(ItemX);
  GntRun Run = runGiveNTake(*P.Ifg, Prob);
  NodeId V = findAssign(P.G, "v");
  if (Run.Result.TakeLoc[V].test(ItemX))
    Run.Result.TakeLoc[V].reset(ItemX);
  else
    Run.Result.TakeLoc[V].set(ItemX);
  AuditOptions Opts;
  Opts.CheckDifferential = false;
  AuditResult A = auditGntRun(Run, {}, Opts);
  EXPECT_TRUE(A.ok()) << "differential pass ran although disabled:\n"
                      << errors(A);
  EXPECT_EQ(A.Stats.ReferenceSweeps, 0u);
}

/// The DIFF check's reference solve costs two sweeps at any program
/// size: in Figure 15 order sweep 1 reaches the fixed point and sweep 2
/// verifies it, so the audit stays O(E). Counts only, no timing: every
/// generator bucket at 200 statements (seeds 1-2) and the flat bucket at
/// 1,600 statements, audited in comm mode (READ and WRITE) and in PRE
/// mode. Evaluating Eq. 9-10 at each child's own reverse-preorder slot
/// instead moves GIVE_loc/STEAL_loc one sibling per sweep, hundreds of
/// sweeps on the flat program.
TEST(Auditor, ReferenceSolveTakesTwoSweepsAtAnySize) {
  std::vector<BatteryProgram> Programs = generatedBattery(200, 2);
  GenConfig Flat = genConfigForBucket(5, 7);
  Flat.TargetStmts = 1600;
  Programs.push_back({"b5.s1600.seed7", generateRandomProgram(Flat)});
  for (const BatteryProgram &BP : Programs) {
    CfgBuildResult CR = buildCfg(BP.Prog);
    ASSERT_TRUE(CR.success()) << BP.Name;
    auto IR = IntervalFlowGraph::build(CR.G);
    ASSERT_TRUE(IR.success()) << BP.Name;
    auto checkRun = [&](const GntRun &Run,
                        const std::vector<std::string> &Names,
                        const char *Problem) {
      AuditResult A = auditGntRun(Run, Names);
      EXPECT_TRUE(A.ok()) << Problem << " " << BP.Name << ":\n" << errors(A);
      EXPECT_LE(A.Stats.ReferenceSweeps, 2u) << Problem << " " << BP.Name;
    };

    CommPlan Plan = generateComm(BP.Prog, CR.G, *IR.Ifg);
    std::vector<std::string> Names = Plan.Refs.Items.names();
    ASSERT_TRUE(Plan.ReadRun.has_value()) << BP.Name;
    checkRun(*Plan.ReadRun, Names, "READ");
    if (Plan.WriteRun)
      checkRun(*Plan.WriteRun, Names, "WRITE");

    ExprPreResult Pre = runExprPre(BP.Prog, CR.G, *IR.Ifg);
    checkRun(Pre.Run, Pre.Exprs, "PRE");
  }
}

TEST(Auditor, DiagnosticsCarryMachineReadableLocations) {
  Pipeline P = Pipeline::fromSource("v = 1\nw = 2\n");
  GntProblem Prob(P.G.size(), 1);
  NodeId W = findAssign(P.G, "w");
  Prob.TakeInit[W].set(ItemX);
  GntRun Run = runGiveNTake(*P.Ifg, Prob);
  for (BitVector &BV : Run.Result.Eager.ResIn)
    BV.reset();
  AuditResult A = auditGntRun(Run, {"x"});
  std::string Json = A.Diags.renderJson();
  EXPECT_NE(Json.find("\"check\":\"C3\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"node\":" + std::to_string(W)), std::string::npos)
      << Json;
  EXPECT_NE(Json.find("\"itemName\":\"x\""), std::string::npos) << Json;
}

//===----------------------------------------------------------------------===//
// Randomized sweep: the auditor accepts the full pipeline's output on 200
// generated programs (50 seeds x 4 shapes), plus the PRE runs.
//===----------------------------------------------------------------------===//

namespace {

class AuditRandomPrograms : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(AuditRandomPrograms, PipelineOutputAuditsClean) {
  struct Shape {
    unsigned Stmts;
    double GotoProb;
  } Shapes[4] = {{15, 0.0}, {15, 0.15}, {40, 0.0}, {40, 0.1}};
  for (const Shape &S : Shapes) {
    GenConfig C;
    C.Seed = GetParam();
    C.TargetStmts = S.Stmts;
    C.GotoProb = S.GotoProb;
    Program Prog = generateRandomProgram(C);
    CfgBuildResult CR = buildCfg(Prog);
    ASSERT_TRUE(CR.success());
    auto IR = IntervalFlowGraph::build(CR.G);
    ASSERT_TRUE(IR.success());

    CommPlan Plan = generateComm(Prog, CR.G, *IR.Ifg);
    std::vector<std::string> Names = Plan.Refs.Items.names();
    auto checkRun = [&](const GntRun &Run, const char *What) {
      AuditResult A = auditGntRun(Run, Names);
      EXPECT_TRUE(A.ok()) << What << " seed " << GetParam() << " stmts "
                          << S.Stmts << " goto " << S.GotoProb << ":\n"
                          << errors(A);
    };
    if (Plan.ReadRun)
      checkRun(*Plan.ReadRun, "READ");
    if (Plan.WriteRun)
      checkRun(*Plan.WriteRun, "WRITE");

    ExprPreResult Pre = runExprPre(Prog, CR.G, *IR.Ifg);
    AuditResult A = auditGntRun(Pre.Run, Pre.Exprs);
    EXPECT_TRUE(A.ok()) << "PRE seed " << GetParam() << ":\n" << errors(A);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AuditRandomPrograms, ::testing::Range(1u, 51u));
