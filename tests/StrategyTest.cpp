//===- tests/StrategyTest.cpp - Placement-strategy zoo battery --------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The strategy-tournament test battery (DESIGN.md §15):
///
///  - `balanced` through the strategy dispatcher is byte-identical to
///    the default pipeline over a 100-seed generated suite;
///  - `speculative` degrades to balanced byte-identically without a
///    usable profile, never regresses the expected dynamic message
///    cost under the profile that guided it, and strictly beats
///    balanced on the biased-branch family;
///  - `lospre` reproduces LCM's dataflow exactly on jump-free graphs
///    and never places more dynamic READ messages than the LCM
///    baseline;
///  - every strategy passes the static auditor's re-checks, is
///    deterministic across repeated and stage-cached compiles and gntd
///    worker counts, and the strategy/profile knobs split every cache key
///    (the key-audit halves live in PipelineTest and StageCacheTest).
///
//===----------------------------------------------------------------------===//

#include "baseline/LazyCodeMotion.h"
#include "cfg/CfgBuilder.h"
#include "comm/Strategy.h"
#include "dataflow/Lospre.h"
#include "frontend/Parser.h"
#include "gen/RandomProgram.h"
#include "ir/AstPrinter.h"
#include "service/BatchServer.h"
#include "service/Pipeline.h"
#include "service/StageCache.h"
#include "sim/TraceSimulator.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace gnt;

namespace {

Program makeProgram(unsigned Seed, unsigned Stmts = 30,
                    double GotoProb = 0.1) {
  GenConfig C;
  C.Seed = Seed;
  C.TargetStmts = Stmts;
  C.GotoProb = GotoProb;
  return generateRandomProgram(C);
}

struct Built {
  Program Prog;
  Cfg G;
  std::optional<IntervalFlowGraph> Ifg;
};

std::optional<Built> buildProgram(Program Prog) {
  Built B;
  B.Prog = std::move(Prog);
  CfgBuildResult CR = buildCfg(B.Prog);
  EXPECT_TRUE(CR.success()) << (CR.Errors.empty() ? "" : CR.Errors.front());
  if (!CR.success())
    return std::nullopt;
  B.G = std::move(CR.G);
  auto IR = IntervalFlowGraph::build(B.G);
  EXPECT_TRUE(IR.success()) << (IR.Errors.empty() ? "" : IR.Errors.front());
  if (!IR.success())
    return std::nullopt;
  B.Ifg = std::move(*IR.Ifg);
  return B;
}

/// A copy of \p Plan with every WRITE-side operation removed, so the
/// simulator's Messages counter compares READ placement only. The
/// lospre and LCM planners share a read model (atomic reads) but not a
/// write model (balanced GIVE-N-TAKE writes vs naive per-definition
/// pairs), so the dominance comparison must strip writes from both.
CommPlan stripWriteOps(const CommPlan &Plan) {
  CommPlan R = Plan;
  for (auto &[Key, Ops] : R.Anchored) {
    std::vector<CommOp> Reads;
    for (const CommOp &Op : Ops)
      if (Op.Kind != CommOpKind::WriteSend &&
          Op.Kind != CommOpKind::WriteRecv &&
          Op.Kind != CommOpKind::AtomicWrite)
        Reads.push_back(Op);
    Ops = std::move(Reads);
  }
  return R;
}

SimConfig simConfig(unsigned Seed, double TrueProb = 0.5) {
  SimConfig C;
  C.Params["n"] = 9;
  C.BranchSeed = Seed;
  C.BranchTrueProb = TrueProb;
  return C;
}

std::string readCorpusFile(const std::string &Name) {
  std::ifstream In(std::string(GNT_CORPUS_DIR) + "/" + Name);
  EXPECT_TRUE(In.good()) << Name;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

const char *const kCorpusFiles[] = {
    "branch_redefine.fm",          "fuzz_deep_nest_jump.fm",
    "fuzz_double_jump_synthetic.fm", "fuzz_jump_storm.fm",
    "fuzz_wide_zero_trip_jump.fm", "fuzz_zero_trip_double_jump.fm",
    "fuzz_zero_trip_jump_indirect.fm", "goto_double_exit.fm",
    "nested_if_indirect.fm",
};

/// The acceptance family: a loop whose biased branch consumes a
/// loop-invariant distributed section on its likely arm. Balanced
/// placement pays one message per taken arm; speculation hoists the
/// read above the branch and (transitively) out of the loop.
const char *kBiasedBranchSource = R"(
distribute x, y
do i = 1, n
  if (i > 1) then
    y(i) = x(5) + 1
  else
    y(i) = 2
  endif
enddo
)";

//===----------------------------------------------------------------------===//
// Names and profile format
//===----------------------------------------------------------------------===//

TEST(Strategy, NamesRoundTrip) {
  for (PlacementStrategy S :
       {PlacementStrategy::Balanced, PlacementStrategy::Speculative,
        PlacementStrategy::Lospre}) {
    PlacementStrategy Parsed;
    ASSERT_TRUE(parsePlacementStrategy(placementStrategyName(S), Parsed));
    EXPECT_EQ(Parsed, S);
  }
  PlacementStrategy Out;
  EXPECT_FALSE(parsePlacementStrategy("eager", Out));
  EXPECT_FALSE(parsePlacementStrategy("", Out));
  EXPECT_FALSE(parsePlacementStrategy("Balanced", Out));
}

TEST(Strategy, ProfileFormatRoundTrips) {
  ExecProfile P;
  P.Stmt[0] = 1;
  P.Stmt[3] = 12.5;
  P.Branch[1] = {7, 2};
  P.Loop[0] = 9;

  std::string Text = renderExecProfile(P);
  EXPECT_EQ(Text.substr(0, Text.find('\n')), "gnt-profile-v1");

  ExecProfile Q;
  std::string Err;
  ASSERT_TRUE(parseExecProfile(Text, Q, Err)) << Err;
  EXPECT_EQ(Q.Stmt, P.Stmt);
  EXPECT_EQ(Q.Branch, P.Branch);
  EXPECT_EQ(Q.Loop, P.Loop);

  // Empty text is the empty profile, not an error.
  ASSERT_TRUE(parseExecProfile("", Q, Err)) << Err;
  EXPECT_TRUE(Q.empty());
  ASSERT_TRUE(parseExecProfile("  \n\n", Q, Err)) << Err;
  EXPECT_TRUE(Q.empty());

  // Malformed inputs fail with a line-numbered message.
  EXPECT_FALSE(parseExecProfile("stmt 0 1\n", Q, Err)); // Missing header.
  EXPECT_NE(Err.find("gnt-profile-v1"), std::string::npos);
  EXPECT_FALSE(parseExecProfile("gnt-profile-v1\nstmt 0\n", Q, Err));
  EXPECT_NE(Err.find("line 2"), std::string::npos);
  EXPECT_FALSE(parseExecProfile("gnt-profile-v1\nbranch 1 4\n", Q, Err));
  EXPECT_FALSE(parseExecProfile("gnt-profile-v1\nedge 0 1\n", Q, Err));
  EXPECT_NE(Err.find("edge"), std::string::npos);
  EXPECT_FALSE(parseExecProfile("gnt-profile-v1\nstmt 0 -3\n", Q, Err));
}

//===----------------------------------------------------------------------===//
// Expected cost vs the simulator
//===----------------------------------------------------------------------===//

TEST(Strategy, ExpectedCostMatchesSimulatorOnJumpFreePrograms) {
  // On jump-free programs the anchor-frequency model is exact: every
  // message-charging operation fires exactly anchor-frequency times, so
  // the expected cost of a plan under the profile of any execution
  // equals that execution's Messages count. (Gotos break this: the
  // After anchor of a goto fires on the jump path and backward-jump
  // arrivals suppress entry anchors.)
  unsigned Checked = 0;
  for (unsigned Seed = 1; Seed <= 20; ++Seed) {
    auto B = buildProgram(makeProgram(Seed, 30, /*GotoProb=*/0.0));
    ASSERT_TRUE(B) << "seed " << Seed;
    if (B->Ifg->hasJumpEdges())
      continue;
    CommPlan Plan = generateComm(B->Prog, B->G, *B->Ifg);
    SimStats S = simulate(B->Prog, Plan, simConfig(Seed));
    ASSERT_TRUE(S.ok()) << "seed " << Seed << ": " << S.Errors.front();
    double Cost = expectedMessageCost(B->Prog, Plan, S.Profile);
    EXPECT_DOUBLE_EQ(Cost, static_cast<double>(S.Messages))
        << "seed " << Seed;
    ++Checked;
  }
  EXPECT_GE(Checked, 15u);
}

//===----------------------------------------------------------------------===//
// Satellite 1: balanced byte-identity, determinism, audit safety
//===----------------------------------------------------------------------===//

TEST(Strategy, BalancedIsByteIdenticalToDefaultOver100Seeds) {
  for (unsigned Seed = 1; Seed <= 100; ++Seed) {
    std::string Source = AstPrinter().print(makeProgram(Seed));
    PipelineOptions Def;
    PipelineResult Base = compilePipeline(Source, Def);
    ASSERT_TRUE(Base.ok()) << "seed " << Seed << ": "
                           << Base.Diags.renderText();
    PipelineOptions O;
    O.Strategy = PlacementStrategy::Balanced;
    PipelineResult R = compilePipeline(Source, O);
    ASSERT_TRUE(R.ok()) << "seed " << Seed;
    EXPECT_EQ(R.Annotated, Base.Annotated) << "seed " << Seed;
    EXPECT_EQ(resultSignature(R), resultSignature(Base)) << "seed " << Seed;
  }
}

TEST(Strategy, EveryStrategyIsDeterministic) {
  // A fresh compile and a compile through a shared stage cache must
  // agree byte for byte for every non-balanced strategy.
  for (unsigned Seed : {3u, 11u, 19u, 27u}) {
    std::string Source = AstPrinter().print(makeProgram(Seed));
    std::string Profile;
    {
      // A real profile so `speculative` actually takes its augmented
      // path where the program offers a biased branch.
      PipelineOptions Bal;
      PipelineResult R = compilePipeline(Source, Bal);
      ASSERT_TRUE(R.ok()) << "seed " << Seed;
      SimStats S =
          simulate(*R.Prog, *R.Plan, simConfig(Seed, /*TrueProb=*/0.9));
      Profile = renderExecProfile(S.Profile);
    }
    for (PlacementStrategy Strat :
         {PlacementStrategy::Speculative, PlacementStrategy::Lospre}) {
      PipelineOptions Ref;
      Ref.Strategy = Strat;
      Ref.Profile = Strat == PlacementStrategy::Speculative ? Profile : "";
      PipelineResult Base = compilePipeline(Source, Ref);
      ASSERT_TRUE(Base.ok())
          << "seed " << Seed << ": " << Base.Diags.renderText();
      StageCache Warm;
      for (unsigned Round = 0; Round != 2; ++Round) {
        PipelineResult R = gnt::Pipeline(Ref).compile(Source, &Warm);
        ASSERT_TRUE(R.ok()) << "seed " << Seed;
        EXPECT_EQ(R.Annotated, Base.Annotated)
            << placementStrategyName(Strat) << " seed " << Seed << " round "
            << Round;
        EXPECT_EQ(resultSignature(R), resultSignature(Base))
            << placementStrategyName(Strat) << " seed " << Seed;
      }
    }
  }
}

TEST(Strategy, EveryStrategyPassesTheAuditOnGeneratedPrograms) {
  // The auditor re-derives each run's solution from its own oriented
  // problem, so a self-consistent augmented (speculative) run and the
  // balanced write run of a lospre plan must both re-check clean. The
  // lospre READ side has no GNT run — there is nothing to audit — so
  // the audit covers its WRITE half and the simulator (below) covers
  // the reads dynamically.
  for (unsigned Seed = 1; Seed <= 12; ++Seed) {
    std::string Source = AstPrinter().print(makeProgram(Seed));
    std::string Profile;
    {
      PipelineOptions Bal;
      PipelineResult R = compilePipeline(Source, Bal);
      ASSERT_TRUE(R.ok()) << "seed " << Seed;
      SimStats S = simulate(*R.Prog, *R.Plan, simConfig(Seed, 0.9));
      Profile = renderExecProfile(S.Profile);
    }
    for (PlacementStrategy Strat :
         {PlacementStrategy::Balanced, PlacementStrategy::Speculative,
          PlacementStrategy::Lospre}) {
      PipelineOptions O;
      O.Strategy = Strat;
      O.Profile = Strat == PlacementStrategy::Speculative ? Profile : "";
      O.Audit = true;
      O.Verify = true;
      PipelineResult R = compilePipeline(Source, O);
      EXPECT_TRUE(R.ok()) << placementStrategyName(Strat) << " seed "
                          << Seed << ": " << R.Diags.renderText();
    }
  }
}

TEST(Strategy, BatchServerStrategiesAreWorkerCountInvariant) {
  // gntd requests carrying a strategy field must produce identical
  // response lines no matter how many workers race over the batch.
  std::vector<std::string> Lines;
  for (unsigned Seed : {2u, 5u, 9u}) {
    std::string Source = AstPrinter().print(makeProgram(Seed, 20));
    std::string Esc;
    for (char C : Source) {
      if (C == '\n')
        Esc += "\\n";
      else if (C == '"')
        Esc += "\\\"";
      else
        Esc += C;
    }
    for (const char *Strat : {"balanced", "speculative", "lospre"})
      Lines.push_back("{\"id\": \"" + std::string(Strat) + "-" +
                      std::to_string(Seed) + "\", \"source\": \"" + Esc +
                      "\", \"options\": {\"strategy\": \"" + Strat +
                      "\", \"audit\": true}}");
  }
  ServiceConfig Serial;
  Serial.Workers = 0;
  std::vector<std::string> Expected = BatchServer(Serial).run(Lines);
  ASSERT_EQ(Expected.size(), Lines.size());
  for (unsigned Workers : {2u, 7u}) {
    ServiceConfig Par;
    Par.Workers = Workers;
    std::vector<std::string> Got = BatchServer(Par).run(Lines);
    ASSERT_EQ(Got.size(), Expected.size()) << Workers << " workers";
    for (size_t I = 0; I < Expected.size(); ++I)
      EXPECT_EQ(Got[I], Expected[I])
          << Workers << " workers, response " << I;
  }
}

//===----------------------------------------------------------------------===//
// Satellite 2: dominance properties
//===----------------------------------------------------------------------===//

TEST(Strategy, SpeculativeWithoutUsableProfileIsBalanced) {
  for (unsigned Seed = 1; Seed <= 20; ++Seed) {
    std::string Source = AstPrinter().print(makeProgram(Seed));
    PipelineResult Base = compilePipeline(Source, PipelineOptions());
    ASSERT_TRUE(Base.ok()) << "seed " << Seed;

    // No profile at all.
    PipelineOptions Spec;
    Spec.Strategy = PlacementStrategy::Speculative;
    PipelineResult R = compilePipeline(Source, Spec);
    ASSERT_TRUE(R.ok()) << "seed " << Seed;
    EXPECT_EQ(R.Annotated, Base.Annotated) << "seed " << Seed;

    // A perfectly unbiased profile: every branch 50/50 — below the bias
    // threshold, so no candidates survive.
    ExecProfile Uniform;
    {
      SimStats S = simulate(*Base.Prog, *Base.Plan, simConfig(Seed));
      Uniform = S.Profile;
      for (auto &[Ord, Arms] : Uniform.Branch) {
        double Total = Arms.first + Arms.second;
        Arms = {Total / 2, Total / 2};
      }
    }
    Spec.Profile = renderExecProfile(Uniform);
    R = compilePipeline(Source, Spec);
    ASSERT_TRUE(R.ok()) << "seed " << Seed;
    EXPECT_EQ(R.Annotated, Base.Annotated) << "seed " << Seed;
  }
}

TEST(Strategy, SpeculativeNeverRegressesExpectedCostUnderItsProfile) {
  // The adoption gate makes this a hard guarantee: the augmented plan
  // is kept only on a strict expected-cost win. On jump-free programs
  // the expected cost is exact, so the simulator's Messages count under
  // the profile-generating trajectory must not regress either.
  unsigned Adopted = 0;
  for (unsigned Seed = 1; Seed <= 30; ++Seed) {
    auto B = buildProgram(makeProgram(Seed, 30, /*GotoProb=*/0.0));
    ASSERT_TRUE(B) << "seed " << Seed;
    if (B->Ifg->hasJumpEdges())
      continue;
    CommPlan Balanced = generateComm(B->Prog, B->G, *B->Ifg);
    SimConfig Cfg = simConfig(Seed, /*TrueProb=*/0.85);
    SimStats BalSim = simulate(B->Prog, Balanced, Cfg);
    ASSERT_TRUE(BalSim.ok()) << "seed " << Seed;

    CommPlan Spec = generateSpeculativeComm(B->Prog, B->G, *B->Ifg,
                                            CommOptions(), BalSim.Profile);
    double BalCost = expectedMessageCost(B->Prog, Balanced, BalSim.Profile);
    double SpecCost = expectedMessageCost(B->Prog, Spec, BalSim.Profile);
    EXPECT_LE(SpecCost, BalCost) << "seed " << Seed;

    SimStats SpecSim = simulate(B->Prog, Spec, Cfg);
    ASSERT_TRUE(SpecSim.ok())
        << "seed " << Seed << ": " << SpecSim.Errors.front();
    EXPECT_LE(SpecSim.Messages, BalSim.Messages) << "seed " << Seed;
    Adopted += SpecCost < BalCost;
  }
  // The sweep must actually exercise the speculation path, not just the
  // fallbacks.
  EXPECT_GE(Adopted, 1u);
}

TEST(Strategy, SpeculativeBeatsBalancedOnTheBiasedBranchFamily) {
  // The acceptance criterion: with a 7/8-biased branch consuming a
  // loop-invariant section, balanced pays one message per taken arm
  // while speculation hoists the read out of the loop entirely.
  auto PR = parseProgram(kBiasedBranchSource);
  ASSERT_TRUE(PR.success());
  auto B = buildProgram(std::move(PR.Prog));
  ASSERT_TRUE(B);
  ASSERT_FALSE(B->Ifg->hasJumpEdges());

  CommPlan Balanced = generateComm(B->Prog, B->G, *B->Ifg);
  SimConfig Cfg = simConfig(/*Seed=*/1);
  SimStats BalSim = simulate(B->Prog, Balanced, Cfg);
  ASSERT_TRUE(BalSim.ok());

  CommPlan Spec = generateSpeculativeComm(B->Prog, B->G, *B->Ifg,
                                          CommOptions(), BalSim.Profile);
  EXPECT_LT(expectedMessageCost(B->Prog, Spec, BalSim.Profile),
            expectedMessageCost(B->Prog, Balanced, BalSim.Profile));

  SimStats SpecSim = simulate(B->Prog, Spec, Cfg);
  ASSERT_TRUE(SpecSim.ok()) << SpecSim.Errors.front();
  EXPECT_LT(SpecSim.Messages, BalSim.Messages);
  // The hoist may widen live ranges but must not produce waste the
  // balanced plan didn't have: the hoisted read is consumed every
  // taken-arm iteration.
  EXPECT_EQ(SpecSim.Wasted, BalSim.Wasted);
  EXPECT_LE(SpecSim.Redundant, BalSim.Redundant);
}

TEST(Strategy, LospreMatchesLcmDataflowOnJumpFreePrograms) {
  // The linear-time elimination must reproduce the iterative MFP
  // exactly wherever the interval abstraction is lossless (no JUMP
  // edges); its conservatism is confined to jumpy graphs.
  unsigned Checked = 0;
  for (unsigned Seed = 1; Seed <= 15; ++Seed) {
    auto B = buildProgram(makeProgram(Seed, 30, /*GotoProb=*/0.0));
    ASSERT_TRUE(B) << "seed " << Seed;
    if (B->Ifg->hasJumpEdges())
      continue;
    CommPlan Plan;
    Plan.Refs = analyzeReferences(B->Prog, B->G);
    buildCommProblems(Plan.Refs, B->G, *B->Ifg, CommOptions(),
                      Plan.ReadProblem, Plan.WriteProblem);
    unsigned N = B->G.size();
    unsigned U = Plan.Refs.Items.size();
    std::vector<BitVector> Transp(N, BitVector(U, true));
    std::vector<BitVector> Comp(N, BitVector(U));
    for (NodeId Id = 0; Id != N; ++Id) {
      Transp[Id].reset(Plan.ReadProblem.StealInit[Id]);
      Comp[Id] = Plan.ReadProblem.TakeInit[Id];
      Comp[Id] |= Plan.ReadProblem.GiveInit[Id];
    }
    LcmResult L = lazyCodeMotion(B->G, U, Plan.ReadProblem.TakeInit,
                                 Transp, Comp);
    LospreResult R = solveLospre(B->G, *B->Ifg, Plan.ReadProblem);
    for (NodeId Id = 0; Id != N; ++Id) {
      EXPECT_EQ(R.AntIn[Id], L.AntIn[Id]) << "seed " << Seed << " node "
                                          << Id;
      EXPECT_EQ(R.AntOut[Id], L.AntOut[Id])
          << "seed " << Seed << " node " << Id;
      EXPECT_EQ(R.AvIn[Id], L.AvIn[Id]) << "seed " << Seed << " node "
                                        << Id;
      EXPECT_EQ(R.AvOut[Id], L.AvOut[Id]) << "seed " << Seed << " node "
                                          << Id;
    }
    ++Checked;
  }
  EXPECT_GE(Checked, 10u);
}

TEST(Strategy, LospreReadMessagesNeverExceedLcmOnCorpus) {
  // The dominance half of the lospre contract: on every corpus program
  // (all jump-heavy distillations) and a generated sweep, the lospre
  // placement fires at most as many dynamic READ messages as the LCM
  // baseline. Writes are stripped from both plans first — the two
  // planners share a read model but not a write model.
  auto check = [](const std::string &Source, const std::string &Label) {
    auto PR = parseProgram(Source);
    ASSERT_TRUE(PR.success()) << Label;
    auto B = buildProgram(std::move(PR.Prog));
    ASSERT_TRUE(B) << Label;
    CommPlan Lospre = stripWriteOps(
        losprePlacement(B->Prog, B->G, *B->Ifg, CommOptions()));
    CommPlan Lcm = stripWriteOps(lcmPlacement(B->Prog, B->G, *B->Ifg));
    for (unsigned Seed : {1u, 2u, 3u}) {
      SimConfig Cfg = simConfig(Seed);
      SimStats SL = simulate(B->Prog, Lospre, Cfg);
      ASSERT_TRUE(SL.ok()) << Label << " lospre seed " << Seed << ": "
                           << SL.Errors.front();
      SimStats SM = simulate(B->Prog, Lcm, Cfg);
      ASSERT_TRUE(SM.ok()) << Label << " lcm seed " << Seed << ": "
                           << SM.Errors.front();
      EXPECT_LE(SL.Messages, SM.Messages) << Label << " seed " << Seed;
      // On jump-free graphs both are computationally optimal: equal.
      if (!B->Ifg->hasJumpEdges()) {
        EXPECT_EQ(SL.Messages, SM.Messages) << Label << " seed " << Seed;
      }
    }
  };
  for (const char *File : kCorpusFiles)
    check(readCorpusFile(File), File);
  for (unsigned Seed = 1; Seed <= 10; ++Seed)
    check(AstPrinter().print(makeProgram(Seed, 30, /*GotoProb=*/0.0)),
          "gen seed " + std::to_string(Seed));
}

TEST(Strategy, LospreSimulatesCleanlyOnGeneratedJumpyPrograms) {
  // Safety on the unstructured side: conservatism may cost messages but
  // never correctness — no dynamic C1/C3 violations on goto-heavy
  // programs.
  for (unsigned Seed = 1; Seed <= 15; ++Seed) {
    auto B = buildProgram(makeProgram(Seed, 35, /*GotoProb=*/0.3));
    ASSERT_TRUE(B) << "seed " << Seed;
    CommPlan Plan = losprePlacement(B->Prog, B->G, *B->Ifg, CommOptions());
    for (unsigned SimSeed : {1u, 2u}) {
      SimStats S = simulate(B->Prog, Plan, simConfig(SimSeed));
      EXPECT_TRUE(S.ok()) << "seed " << Seed << " sim " << SimSeed << ": "
                          << (S.ok() ? "" : S.Errors.front());
    }
  }
}

//===----------------------------------------------------------------------===//
// Option plumbing and validation
//===----------------------------------------------------------------------===//

TEST(Strategy, PipelineRejectsInvalidStrategyCombinations) {
  const char *Source = "distribute x\narray u\nu(1) = x(1)\n";

  PipelineOptions WithBaseline;
  WithBaseline.Strategy = PlacementStrategy::Lospre;
  WithBaseline.Baseline = "lcm";
  PipelineResult R = compilePipeline(Source, WithBaseline);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Diags.renderText().find("conflicts with baseline"),
            std::string::npos);

  PipelineOptions WithPre;
  WithPre.Strategy = PlacementStrategy::Speculative;
  WithPre.Mode = PipelineMode::Pre;
  R = compilePipeline(Source, WithPre);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Diags.renderText().find("PRE mode"), std::string::npos);

  PipelineOptions BadProfile;
  BadProfile.Strategy = PlacementStrategy::Speculative;
  BadProfile.Profile = "not-a-profile\n";
  R = compilePipeline(Source, BadProfile);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Diags.renderText().find("gnt-profile-v1"), std::string::npos);
}

TEST(Strategy, BatchServerValidatesStrategyField) {
  ServiceConfig Config;
  BatchServer Server(Config);
  std::vector<std::string> Out = Server.run(
      {"{\"id\": \"bad\", \"source\": \"continue\", "
       "\"options\": {\"strategy\": \"eager\"}}"});
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_NE(Out[0].find("strategy"), std::string::npos);
  EXPECT_NE(Out[0].find("error"), std::string::npos);
}

} // namespace
