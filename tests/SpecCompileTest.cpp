//===- tests/SpecCompileTest.cpp - Spec compilation + solving ---------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Tests for compiling analysis specs onto the engine: the three
/// universes, the built-in analyses, the fixed-point check across a
/// generated-program battery and against corrupted rows and solutions,
/// and the pipeline/batch-server surfaces.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/SpecCompile.h"
#include "analysis/SpecLang.h"
#include "gen/RandomProgram.h"
#include "service/BatchServer.h"
#include "service/Pipeline.h"
#include "service/StageCache.h"
#include "support/Support.h"

#include <gtest/gtest.h>

using namespace gnt;
using namespace gnt::test;

namespace {

/// Index of the first item whose name starts with \p Prefix, or -1.
int itemIndex(const AnalysisRun &R, const std::string &Prefix) {
  for (unsigned I = 0; I != R.ItemNames.size(); ++I)
    if (R.ItemNames[I].rfind(Prefix, 0) == 0)
      return static_cast<int>(I);
  return -1;
}

AnalysisRun run(const std::string &NameOrText, test::Pipeline &P) {
  return runAnalysisSpec(NameOrText, P.Prog, P.G, *P.Ifg);
}

/// Parses, lints and compiles the spec \p Text for \p P's graph.
CompiledAnalysis compile(const std::string &Text, test::Pipeline &P) {
  SpecParseResult PR = parseAndLintAnalysisSpec(Text);
  EXPECT_TRUE(PR.ok()) << PR.Diags.renderText();
  SpecUniverseData Data =
      buildSpecUniverse(PR.Spec->Universe, P.Prog, P.G, *P.Ifg);
  return compileAnalysisSpec(std::move(*PR.Spec), std::move(Data),
                             P.Ifg->size());
}

void flipBit(BitVector &Row, unsigned Item) {
  if (Row.test(Item))
    Row.reset(Item);
  else
    Row.set(Item);
}

} // namespace

TEST(SpecCompile, LivenessSemanticsOnFig11) {
  test::Pipeline P = test::Pipeline::fromSource(fig11Source());
  Fig11Nodes N = locateFig11(P.G);
  AnalysisRun R = run("liveness", P);
  ASSERT_TRUE(R.ok()) << R.Diags.renderText();
  EXPECT_EQ(R.Universe, SpecUniverse::Items);
  // The read sections: y(a(...)) is the *written* section, a distinct
  // item that is never consumed.
  int X = itemIndex(R, "x("), Y = itemIndex(R, "y(b");
  ASSERT_GE(X, 0);
  ASSERT_GE(Y, 0);
  // z(k) = x(k+10) + y(b(k)) consumes both items, so both are live at
  // the program entry (backward flow orientation: Out = node entry).
  EXPECT_TRUE(R.Out[N.Root].test(static_cast<unsigned>(X)));
  EXPECT_TRUE(R.Out[N.Root].test(static_cast<unsigned>(Y)));
  // The definition y(a(i)) = 0 produces y for free: liveness of y is
  // killed across node A (live after it, dead before it).
  EXPECT_TRUE(R.In[N.A].test(static_cast<unsigned>(Y)));
  EXPECT_FALSE(R.Out[N.A].test(static_cast<unsigned>(Y)));
  // Nothing is live at the exit (boundary empty, start exit).
  EXPECT_TRUE(R.In[N.Exit].none());
}

TEST(SpecCompile, AvailabilitySemanticsOnFig11) {
  test::Pipeline P = test::Pipeline::fromSource(fig11Source());
  Fig11Nodes N = locateFig11(P.G);
  AnalysisRun R = run("availability", P);
  ASSERT_TRUE(R.ok()) << R.Diags.renderText();
  // The written section is what the definition produces for free.
  int Y = itemIndex(R, "y(a");
  ASSERT_GE(Y, 0);
  // The y definition makes y available immediately after node A...
  EXPECT_TRUE(R.Out[N.A].test(static_cast<unsigned>(Y)));
  // ...but nothing is available at the entry under `boundary empty`.
  EXPECT_TRUE(R.In[N.Root].none());
}

TEST(SpecCompile, ExprsUniverseServesVeryBusy) {
  test::Pipeline P = test::Pipeline::fromSource(fig11Source());
  AnalysisRun R = run("very-busy", P);
  ASSERT_TRUE(R.ok()) << R.Diags.renderText();
  EXPECT_EQ(R.Universe, SpecUniverse::Exprs);
  EXPECT_GE(R.UniverseSize, 1u) << "fig11 has a speculable RHS expression";
  EXPECT_EQ(R.ItemNames.size(), R.UniverseSize);
}

TEST(SpecCompile, DefsUniverseSitesReachTheirDownstream) {
  test::Pipeline P = test::Pipeline::fromSource(fig11Source());
  Fig11Nodes N = locateFig11(P.G);
  AnalysisRun R = run("reaching", P);
  ASSERT_TRUE(R.ok()) << R.Diags.renderText();
  EXPECT_EQ(R.Universe, SpecUniverse::Defs);
  ASSERT_GE(R.UniverseSize, 1u);
  // Site names carry the "item@node" granularity.
  int Site = -1;
  for (unsigned I = 0; I != R.ItemNames.size(); ++I)
    if (R.ItemNames[I].find("@n") != std::string::npos &&
        R.ItemNames[I].rfind("y(", 0) == 0)
      Site = static_cast<int>(I);
  ASSERT_GE(Site, 0) << "no definition site for y";
  // The y(a(i)) definition reaches the loop exit path downstream.
  EXPECT_TRUE(R.Out[N.A].test(static_cast<unsigned>(Site)));
  EXPECT_FALSE(R.In[N.Root].test(static_cast<unsigned>(Site)))
      << "a definition reached upstream of itself";
}

TEST(SpecCompile, CustomSpecTextRunsEndToEnd) {
  test::Pipeline P = test::Pipeline::fromSource(fig11Source());
  AnalysisRun R = run("analysis anti\n"
                      "universe items\n"
                      "direction backward\n"
                      "confluence all\n"
                      "boundary empty\n"
                      "transfer out = (in - give) | take\n",
                      P);
  EXPECT_TRUE(R.ok()) << R.Diags.renderText();
  EXPECT_EQ(R.Name, "anti");
}

TEST(SpecCompile, UnknownBuiltinNameIsAStructuredError) {
  test::Pipeline P = test::Pipeline::fromSource(fig11Source());
  AnalysisRun R = run("dominance", P);
  EXPECT_FALSE(R.ok());
  bool Found = false;
  for (const Diagnostic &D : R.Diags.all())
    Found |= D.Message.find("unknown-analysis") != std::string::npos &&
             !D.FixHint.empty();
  EXPECT_TRUE(Found) << R.Diags.renderText();
}

TEST(SpecCompile, MalformedSpecYieldsDiagnosticsNotASolve) {
  test::Pipeline P = test::Pipeline::fromSource(fig11Source());
  AnalysisRun R = run("universe galaxies\ngen take\n", P);
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(R.In.empty());
  EXPECT_TRUE(R.Out.empty());
}

TEST(SpecCompile, StrategyInvarianceOnFig11) {
  // The pipeline's remaining execution strategy — an incremental
  // compile through a stage cache — must not move any analysis bit.
  test::Pipeline P = test::Pipeline::fromSource(fig11Source());
  PipelineOptions Opts;
  Opts.Incremental = true;
  for (const auto &[Name, Text] : builtinAnalysisSpecs())
    Opts.ExtraAnalyses.push_back(Name);
  StageCache Warm;
  PipelineResult R = gnt::Pipeline(Opts).compile(fig11Source(), &Warm);
  ASSERT_TRUE(R.ok()) << R.Diags.renderText();
  ASSERT_EQ(R.Analyses.size(), builtinAnalysisSpecs().size());
  for (const AnalysisRun &Got : R.Analyses) {
    AnalysisRun Base = run(Got.Name, P);
    ASSERT_TRUE(Base.ok()) << Got.Name << ":\n" << Base.Diags.renderText();
    EXPECT_EQ(Got.solutionHash(), Base.solutionHash()) << Got.Name;
    EXPECT_EQ(Got.In, Base.In) << Got.Name;
    EXPECT_EQ(Got.Out, Base.Out) << Got.Name;
  }
}

// The acceptance battery: all four built-ins on 100 generated programs,
// each solution passing the fixed-point check inside runAnalysis.
TEST(SpecCompile, ByteIdentityBatteryAcrossGeneratedPrograms) {
  unsigned Solved = 0;
  for (unsigned Seed = 1; Seed <= 100; ++Seed) {
    GenConfig C = genConfigForBucket(Seed % NumGenBuckets, Seed);
    Program Prog = generateRandomProgram(C);
    CfgBuildResult CR = buildCfg(Prog);
    ASSERT_TRUE(CR.success()) << "seed " << Seed;
    auto IR = IntervalFlowGraph::build(CR.G);
    ASSERT_TRUE(IR.success()) << "seed " << Seed;
    for (const auto &[Name, Text] : builtinAnalysisSpecs()) {
      AnalysisRun Base = runAnalysisSpec(Name, Prog, CR.G, *IR.Ifg);
      ASSERT_TRUE(Base.ok())
          << Name << " seed " << Seed << ":\n" << Base.Diags.renderText();
      ++Solved;
    }
  }
  EXPECT_EQ(Solved, 400u);
}

TEST(SpecCompile, RenderersCarrySolutionAndStats) {
  test::Pipeline P = test::Pipeline::fromSource(fig11Source());
  AnalysisRun R = run("liveness", P);
  ASSERT_TRUE(R.ok());
  std::string Text = R.renderText();
  EXPECT_NE(Text.find("analysis liveness"), std::string::npos);
  EXPECT_NE(Text.find("universe items"), std::string::npos);
  std::string Json = R.renderJson(/*IncludeStats=*/true);
  EXPECT_NE(Json.find("\"analysis\":\"liveness\""), std::string::npos);
  EXPECT_NE(Json.find("\"worklist_peak\""), std::string::npos);
  // The deterministic form drops the stats entirely.
  std::string Bare = R.renderJson(/*IncludeStats=*/false);
  EXPECT_EQ(Bare.find("\"worklist_peak\""), std::string::npos);
}

// A wrong Kill bit is solved faithfully by the engine, so only a check
// that evaluates the spec itself, not the normalized rows, can see it.
// Both spec forms: gen/kill sugar and an explicit transfer template.
TEST(SpecCompile, CorruptedKillRowIsCaughtAtItsNode) {
  test::Pipeline P = test::Pipeline::fromSource(fig11Source());
  const std::string Template = "analysis liveness-template\n"
                               "universe items\n"
                               "direction backward\n"
                               "confluence any\n"
                               "transfer out = (in - give - steal) | take\n"
                               "boundary empty\n";
  for (const std::string &Text :
       {std::string(builtinAnalysisSpecText("liveness")), Template}) {
    CompiledAnalysis C = compile(Text, P);
    AnalysisRun Clean = runAnalysis(C, *P.Ifg);
    ASSERT_TRUE(Clean.ok()) << Clean.Diags.renderText();
    // A node that passes some item straight from In to Out. Killing it
    // there leaves the node's In as it was, so the solved Out and the
    // template evaluated on that In disagree at this node.
    NodeId Node = InvalidNode;
    unsigned Item = 0;
    for (NodeId N = 0; N != C.NumNodes && Node == InvalidNode; ++N) {
      BitVector Through = Clean.In[N];
      Through &= Clean.Out[N];
      Through.reset(C.Gen[N]);
      if (Through.any()) {
        Node = N;
        Item = static_cast<unsigned>(Through.findFirst());
      }
    }
    ASSERT_NE(Node, InvalidNode) << "fig11 liveness passes nothing through";
    C.Kill[Node].set(Item);
    AnalysisRun Bad = runAnalysis(C, *P.Ifg);
    EXPECT_FALSE(Bad.ok()) << C.Spec.Name;
    EXPECT_TRUE(Bad.Diags.contains(CheckId::Diff, Node))
        << C.Spec.Name << " node " << Node << ":\n"
        << Bad.Diags.renderText();
  }
}

// Flipping one bit of a solved In or Out row, at any node, is a
// violation at that node, for every built-in.
TEST(SpecCompile, FlippedSolutionBitIsCaught) {
  test::Pipeline P = test::Pipeline::fromSource(fig11Source());
  for (const auto &[Name, Text] : builtinAnalysisSpecs()) {
    CompiledAnalysis C = compile(Text, P);
    AnalysisRun R = runAnalysis(C, *P.Ifg);
    ASSERT_TRUE(R.ok()) << Name << ":\n" << R.Diags.renderText();
    ASSERT_GE(R.UniverseSize, 1u) << Name;
    EXPECT_TRUE(checkAnalysisFixedPoint(C, *P.Ifg, R.In, R.Out).empty());
    for (NodeId Node = 0; Node != C.NumNodes; ++Node) {
      unsigned Item = Node % R.UniverseSize;
      for (std::vector<BitVector> *Side : {&R.In, &R.Out}) {
        flipBit((*Side)[Node], Item);
        DiagnosticSet D = checkAnalysisFixedPoint(C, *P.Ifg, R.In, R.Out);
        EXPECT_TRUE(D.contains(CheckId::Diff, Node))
            << Name << " node " << Node << (Side == &R.In ? " in" : " out");
        flipBit((*Side)[Node], Item);
      }
    }
  }
}

TEST(SpecCompile, PipelineRunsExtraAnalyses) {
  PipelineOptions Opts;
  Opts.ExtraAnalyses = {"liveness", "reaching"};
  PipelineResult R = compilePipeline(fig11Source(), Opts);
  ASSERT_TRUE(R.ok()) << R.Diags.renderText();
  ASSERT_EQ(R.Analyses.size(), 2u);
  EXPECT_EQ(R.Analyses[0].Name, "liveness");
  EXPECT_EQ(R.Analyses[1].Name, "reaching");
  EXPECT_GT(R.stageMicros(PipelineStage::Analyze), 0.0);

  // Failures merge into the pipeline diagnostics with a stage prefix.
  Opts.ExtraAnalyses = {"universe galaxies\ngen take\n"};
  PipelineResult Bad = compilePipeline(fig11Source(), Opts);
  EXPECT_FALSE(Bad.ok());
  bool Prefixed = false;
  for (const Diagnostic &D : Bad.Diags.all())
    Prefixed |= D.Message.rfind("analyze(", 0) == 0;
  EXPECT_TRUE(Prefixed);
}

TEST(SpecCompile, ExtraAnalysesArePartOfTheCacheKey) {
  PipelineOptions Plain, WithAnalyses;
  WithAnalyses.ExtraAnalyses = {"liveness"};
  EXPECT_NE(Plain.canonical(), WithAnalyses.canonical());
  EXPECT_NE(pipelineCacheKey(fig11Source(), Plain),
            pipelineCacheKey(fig11Source(), WithAnalyses));
  // The incremental strategy knob still shares one entry, analyses
  // included.
  PipelineOptions Incremental = WithAnalyses;
  Incremental.Incremental = true;
  EXPECT_EQ(WithAnalyses.canonical(), Incremental.canonical());
}

TEST(SpecCompile, BatchServerServesAnalysesDeterministically) {
  const char *Source =
      "distribute x\\narray z\\ndo i = 1, n\\n  z(i) = x(i)\\nenddo\\n";
  auto Line = [&](const char *Extra) {
    return std::string("{\"id\": \"job\", \"source\": \"") + Source +
           "\", \"options\": {\"analyses\": [\"liveness\", \"reaching\"]" +
           Extra + "}}";
  };
  ServiceConfig SerialCfg;
  SerialCfg.Workers = 0;
  SerialCfg.CacheCapacity = 0;
  BatchServer Serial(SerialCfg);
  std::vector<std::string> A = Serial.run({Line("")});
  std::vector<std::string> B =
      Serial.run({Line(", \"incremental\": true")});
  ASSERT_EQ(A.size(), 1u);
  ASSERT_EQ(B.size(), 1u);
  // Same id, same payload: the strategy knobs may not change one byte.
  EXPECT_EQ(A[0], B[0]);
  EXPECT_NE(A[0].find("\"analyses\":"), std::string::npos);
  EXPECT_NE(A[0].find("\"name\":\"liveness\""), std::string::npos);
  EXPECT_NE(A[0].find("\"hash\":"), std::string::npos);

  // Malformed analyses option is a per-request error, not a crash.
  std::vector<std::string> Bad = Serial.run(
      {"{\"id\": \"b\", \"source\": \"v = 1\\n\", \"options\": "
       "{\"analyses\": \"liveness\"}}"});
  ASSERT_EQ(Bad.size(), 1u);
  EXPECT_NE(Bad[0].find("must be an array of strings"), std::string::npos);
}
