//===- tests/AnalysisTest.cpp - Dataflow engine + reference solver ----------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Unit tests for the generic monotone-framework engine (directions,
/// confluences, boundaries, statistics) and the iterative reference
/// solver that re-derives Equations 1-15 independently of the
/// elimination solver.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/DataflowEngine.h"
#include "analysis/ReferenceSolver.h"
#include "dataflow/GiveNTake.h"

#include <gtest/gtest.h>

using namespace gnt;
using namespace gnt::test;

namespace {

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

/// The checkerboard problem the verifier property tests use: every
/// statement consumes one of two items, every third one steals the other.
GntProblem checkerProblem(const Cfg &G, Direction Dir) {
  GntProblem Prob(G.size(), 2, Dir);
  for (NodeId Id = 0; Id != G.size(); ++Id)
    if (G.node(Id).Kind == NodeKind::Stmt) {
      Prob.TakeInit[Id].set(Id % 2);
      if (Id % 3 == 0)
        Prob.StealInit[Id].set((Id + 1) % 2);
    }
  return Prob;
}

} // namespace

TEST(DataflowEngine, ForwardAnyPropagatesDownstream) {
  Pipeline P = Pipeline::fromSource("v = 1\nw = 2\n");
  NodeId V = findAssign(P.G, "v"), W = findAssign(P.G, "w");
  DataflowSpec Spec;
  Spec.Direction = FlowDirection::Forward;
  Spec.Meet = Confluence::Any;
  Spec.UniverseSize = 1;
  Spec.Gen.assign(P.G.size(), BitVector(1));
  Spec.Gen[V].set(0u);
  DataflowResult R = solveDataflow(*P.Ifg, Spec);
  EXPECT_TRUE(R.Out[V].test(0));
  EXPECT_TRUE(R.In[W].test(0)) << "fact did not flow V -> W";
  EXPECT_FALSE(R.In[V].test(0)) << "fact flowed upstream";
}

TEST(DataflowEngine, KillStopsPropagation) {
  Pipeline P = Pipeline::fromSource("v = 1\nu = 3\nw = 2\n");
  NodeId V = findAssign(P.G, "v"), U = findAssign(P.G, "u"),
         W = findAssign(P.G, "w");
  DataflowSpec Spec;
  Spec.UniverseSize = 1;
  Spec.Gen.assign(P.G.size(), BitVector(1));
  Spec.Kill.assign(P.G.size(), BitVector(1));
  Spec.Gen[V].set(0u);
  Spec.Kill[U].set(0u);
  DataflowResult R = solveDataflow(*P.Ifg, Spec);
  EXPECT_TRUE(R.In[U].test(0));
  EXPECT_FALSE(R.Out[U].test(0));
  EXPECT_FALSE(R.In[W].test(0));
}

TEST(DataflowEngine, AnyVersusAllOnBranch) {
  Pipeline P = Pipeline::fromSource(R"(
if (c > 0) then
  v = 1
else
  u = 3
endif
w = 2
)");
  NodeId V = findAssign(P.G, "v"), W = findAssign(P.G, "w");
  DataflowSpec Spec;
  Spec.UniverseSize = 1;
  Spec.Gen.assign(P.G.size(), BitVector(1));
  Spec.Gen[V].set(0u); // Generated on the then arm only.
  Spec.Meet = Confluence::Any;
  DataflowResult May = solveDataflow(*P.Ifg, Spec);
  EXPECT_TRUE(May.In[W].test(0)) << "some-path fact lost at the merge";
  Spec.Meet = Confluence::All;
  DataflowResult Must = solveDataflow(*P.Ifg, Spec);
  EXPECT_FALSE(Must.In[W].test(0)) << "one-armed fact survived an all-paths merge";
}

TEST(DataflowEngine, BackwardFlowsAgainstEdges) {
  Pipeline P = Pipeline::fromSource("v = 1\nw = 2\n");
  NodeId V = findAssign(P.G, "v"), W = findAssign(P.G, "w");
  DataflowSpec Spec;
  Spec.Direction = FlowDirection::Backward;
  Spec.UniverseSize = 1;
  Spec.Gen.assign(P.G.size(), BitVector(1));
  Spec.Gen[W].set(0u);
  DataflowResult R = solveDataflow(*P.Ifg, Spec);
  // Backward flow orientation: Out is the value at the node's entry.
  EXPECT_TRUE(R.Out[W].test(0));
  EXPECT_TRUE(R.In[V].test(0)) << "demand did not flow W -> V";
  EXPECT_TRUE(R.Out[V].test(0));
}

TEST(DataflowEngine, BoundaryPinsNoInflowNodes) {
  Pipeline P = Pipeline::fromSource("v = 1\n");
  DataflowSpec Spec;
  Spec.UniverseSize = 2;
  Spec.Boundary = BitVector(2);
  Spec.Boundary.set(1u);
  DataflowResult R = solveDataflow(*P.Ifg, Spec);
  EXPECT_TRUE(R.In[P.Ifg->root()].test(1));
  EXPECT_TRUE(R.Out[findAssign(P.G, "v")].test(1))
      << "boundary value did not flow through";
}

TEST(DataflowEngine, StatsReflectTheSolve) {
  Pipeline P = Pipeline::fromSource(fig11Source());
  DataflowSpec Spec;
  Spec.UniverseSize = 1;
  DataflowResult R = solveDataflow(*P.Ifg, Spec);
  EXPECT_GE(R.Stats.Iterations, 1u);
  EXPECT_GE(R.Stats.NodeVisits, P.Ifg->size());
  EXPECT_GE(R.Stats.EdgeEvaluations, 1u);
}

TEST(DataflowEngine, WorklistPeakTracksPendingNodes) {
  Pipeline P = Pipeline::fromSource(fig11Source());
  DataflowSpec Spec;
  Spec.UniverseSize = 1;
  Spec.Gen.assign(P.G.size(), BitVector(1));
  Spec.Gen[P.Ifg->root()].set(0u);
  DataflowResult W = solveDataflow(*P.Ifg, Spec);
  // The worklist is seeded with every node, so the peak is at least the
  // graph size.
  EXPECT_GE(W.Stats.WorklistPeak, P.Ifg->size());
}

TEST(DataflowEngine, AllConfluenceBoundaryDecidesMergePoints) {
  // All-paths confluence with a pinned boundary: the boundary fact
  // survives a branch merge only while no arm kills it.
  Pipeline P = Pipeline::fromSource(R"(
if (c > 0) then
  v = 1
else
  u = 3
endif
w = 2
)");
  NodeId V = findAssign(P.G, "v"), W = findAssign(P.G, "w");
  DataflowSpec Spec;
  Spec.Meet = Confluence::All;
  Spec.UniverseSize = 1;
  Spec.Boundary = BitVector(1, true);
  DataflowResult R = solveDataflow(*P.Ifg, Spec);
  EXPECT_TRUE(R.In[W].test(0))
      << "boundary fact lost on a kill-free all-paths merge";
  Spec.Kill.assign(P.G.size(), BitVector(1));
  Spec.Kill[V].set(0u);
  R = solveDataflow(*P.Ifg, Spec);
  EXPECT_FALSE(R.In[W].test(0))
      << "fact killed on one arm survived an all-paths merge";
  EXPECT_TRUE(R.In[V].test(0)) << "boundary did not reach the arm";
}

TEST(ReferenceSolver, ConvergesAndMatchesEliminationOnPaperFigures) {
  for (const char *Src :
       {fig11Source(), "do i = 1, n\nv = i\nenddo\nw = 2\n",
        "if (c > 0) then\nv = 1\nendif\nw = 2\n"}) {
    Pipeline P = Pipeline::fromSource(Src);
    for (Direction Dir : {Direction::Before, Direction::After}) {
      GntRun Run = runGiveNTake(*P.Ifg, checkerProblem(P.G, Dir));
      ReferenceResult Ref =
          solveGiveNTakeIterative(Run.OrientedIfg, Run.OrientedProblem);
      ASSERT_TRUE(Ref.Converged) << Src;
      // Figure 15 order: sweep 1 reaches the fixed point, sweep 2
      // verifies it.
      EXPECT_EQ(Ref.Sweeps, 2u) << Src;
      EXPECT_EQ(Ref.Result.Take, Run.Result.Take) << Src;
      EXPECT_EQ(Ref.Result.TakenIn, Run.Result.TakenIn) << Src;
      EXPECT_EQ(Ref.Result.Steal, Run.Result.Steal) << Src;
      EXPECT_EQ(Ref.Result.Give, Run.Result.Give) << Src;
      EXPECT_EQ(Ref.Result.Eager.ResIn, Run.Result.Eager.ResIn) << Src;
      EXPECT_EQ(Ref.Result.Eager.ResOut, Run.Result.Eager.ResOut) << Src;
      EXPECT_EQ(Ref.Result.Lazy.ResIn, Run.Result.Lazy.ResIn) << Src;
      EXPECT_EQ(Ref.Result.Lazy.ResOut, Run.Result.Lazy.ResOut) << Src;
    }
  }
}

TEST(ReferenceSolver, RespectsSweepBudget) {
  Pipeline P = Pipeline::fromSource(fig11Source());
  GntRun Run = runGiveNTake(*P.Ifg, checkerProblem(P.G, Direction::Before));
  ReferenceResult Ref = solveGiveNTakeIterative(Run.OrientedIfg,
                                                Run.OrientedProblem,
                                                /*MaxSweeps=*/1);
  EXPECT_EQ(Ref.Sweeps, 1u);
  EXPECT_FALSE(Ref.Converged);
}
