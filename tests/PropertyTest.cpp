//===- tests/PropertyTest.cpp - Randomized invariant sweeps -----------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Experiment E7 at scale: seeded random programs swept through the whole
/// pipeline. For every program the static verifier must accept the
/// GIVE-N-TAKE placement (C1/C3/O1), and the trace simulator must run
/// both the GIVE-N-TAKE plan and every baseline without dynamic
/// violations across several branch-outcome seeds. Parameterized gtest
/// keeps each seed an individually reported test.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "baseline/Baselines.h"
#include "baseline/LazyCodeMotion.h"
#include "comm/CommGen.h"
#include "fuzz/Clone.h"
#include "fuzz/Mutator.h"
#include "gen/RandomProgram.h"
#include "ir/AstPrinter.h"
#include "service/BatchServer.h"
#include "service/Pipeline.h"
#include "service/StageCache.h"
#include "sim/TraceSimulator.h"

#include <gtest/gtest.h>

#include <map>
#include <random>

using namespace gnt;
using namespace gnt::test;

namespace {

class RandomPrograms : public ::testing::TestWithParam<unsigned> {};

Program makeProgram(unsigned Seed, unsigned Stmts = 40,
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
  IntervalFlowGraph Ifg;
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

void simulateClean(const Built &B, const CommPlan &Plan, const char *What,
                   unsigned &WastedOut) {
  for (unsigned BranchSeed = 1; BranchSeed != 4; ++BranchSeed) {
    SimConfig C;
    C.Params["n"] = 5;
    C.BranchSeed = BranchSeed;
    SimStats S = simulate(B.Prog, Plan, C);
    EXPECT_TRUE(S.ok()) << What << " branch seed " << BranchSeed << ": "
                        << (S.Errors.empty() ? "" : S.Errors.front());
    WastedOut += static_cast<unsigned>(S.Wasted);
  }
}

} // namespace

/// The generated source parses back to an identical program.
TEST_P(RandomPrograms, PrintParseRoundTrip) {
  Program Prog = makeProgram(GetParam());
  std::string Printed = AstPrinter().print(Prog);
  ParseResult PR = parseProgram(Printed);
  ASSERT_TRUE(PR.success()) << (PR.Errors.empty() ? "" : PR.Errors.front())
                            << "\n" << Printed;
  EXPECT_EQ(Printed, AstPrinter().print(PR.Prog));
}

/// The static verifier accepts the GIVE-N-TAKE placement.
TEST_P(RandomPrograms, StaticInvariantsHold) {
  for (double GotoProb : {0.1, 0.0}) {
    auto B = buildProgram(makeProgram(GetParam(), 40, GotoProb));
    ASSERT_TRUE(B.has_value());
    CommPlan Plan = generateComm(B->Prog, B->G, B->Ifg);
    GntVerifyResult V = Plan.verify();
    EXPECT_TRUE(V.ok()) << V.firstViolation();
    for (const Diagnostic &D : V.Diags.all())
      if (D.Severity == DiagSeverity::Note)
        ADD_FAILURE() << "optimality note: " << D.render();
  }
}

/// Dynamic C1/C3 hold for the GIVE-N-TAKE plan and all baselines, with
/// and without gotos out of loops (the goto-free configuration keeps the
/// AFTER problems exact, exercising different placement shapes).
TEST_P(RandomPrograms, DynamicInvariantsHold) {
  for (double GotoProb : {0.1, 0.0}) {
    auto B = buildProgram(makeProgram(GetParam(), 40, GotoProb));
    ASSERT_TRUE(B.has_value());
    unsigned Wasted = 0;
    CommPlan Gnt = generateComm(B->Prog, B->G, B->Ifg);
    simulateClean(*B, Gnt, "give-n-take", Wasted);
    CommPlan Naive = naivePlacement(B->Prog, B->G, B->Ifg);
    simulateClean(*B, Naive, "naive", Wasted);
    CommPlan Vec = vectorizedPlacement(B->Prog, B->G, B->Ifg);
    simulateClean(*B, Vec, "vectorized", Wasted);
    CommPlan Lcm = lcmPlacement(B->Prog, B->G, B->Ifg);
    simulateClean(*B, Lcm, "lcm", Wasted);
  }
}

/// All four option combinations stay correct.
TEST_P(RandomPrograms, OptionCombinationsHold) {
  auto B = buildProgram(makeProgram(GetParam(), /*Stmts=*/25));
  ASSERT_TRUE(B.has_value());
  for (bool Atomic : {false, true}) {
    for (bool Hoist : {false, true}) {
      for (bool Owner : {false, true}) {
        CommOptions Opts;
        Opts.Atomic = Atomic;
        Opts.HoistZeroTrip = Hoist;
        Opts.OwnerComputes = Owner;
        CommPlan Plan = generateComm(B->Prog, B->G, B->Ifg, Opts);
        GntVerifyResult V = Plan.verify();
        EXPECT_TRUE(V.ok())
            << "atomic=" << Atomic << " hoist=" << Hoist
            << " owner=" << Owner << ": "
            << V.firstViolation();
        unsigned Wasted = 0;
        simulateClean(*B, Plan, "options", Wasted);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms, ::testing::Range(1u, 31u));

//===----------------------------------------------------------------------===//
// Lane independence and arena/classic differential
//===----------------------------------------------------------------------===//
//
// 100 seeds x 2 goto probabilities = 200 random programs, each solved
// for both problem directions (READ is BEFORE, WRITE is AFTER with jump
// poisoning). Every GntResult field — the ten Figure 13 variables plus
// both EAGER and LAZY placements — must be byte-identical between the
// arena solver and the classic per-equation oracle, and the same holds
// for synthetic universes of up to 1,100 bits over each seed's graph.
// Because every equation is a bitwise AND/OR/ANDNOT, an item's solution
// is also a function of its own init column alone: a problem cut down
// to any subset of the items (a shard of the universe) or to one
// representative per distinct column must reproduce exactly the
// matching columns of the full solve. (The suite keeps its
// historical name; the sharded and compressed solvers it once checked
// are gone, the lane property they relied on is still checked here.)

namespace {

class ShardInvariance : public ::testing::TestWithParam<unsigned> {};

/// The 20 dataflow variables of \p R in declaration order, by name.
std::vector<std::pair<const char *, const std::vector<BitVector> *>>
gntFields(const GntResult &R) {
  std::vector<std::pair<const char *, const std::vector<BitVector> *>> Out;
  forEachGntField(R, [&](const char *Name, const std::vector<BitVector> &V) {
    Out.emplace_back(Name, &V);
  });
  return Out;
}

/// \p P restricted to \p Items, in that order: lane K of the result is
/// item Items[K] of \p P.
GntProblem selectItems(const GntProblem &P,
                       const std::vector<unsigned> &Items) {
  const unsigned N = static_cast<unsigned>(P.TakeInit.size());
  GntProblem Sub(N, static_cast<unsigned>(Items.size()), P.Dir);
  Sub.NoHoistHeaders = P.NoHoistHeaders;
  for (unsigned Node = 0; Node != N; ++Node)
    for (unsigned K = 0; K != Items.size(); ++K) {
      if (P.TakeInit[Node].test(Items[K]))
        Sub.TakeInit[Node].set(K);
      if (P.GiveInit[Node].test(Items[K]))
        Sub.GiveInit[Node].set(K);
      if (P.StealInit[Node].test(Items[K]))
        Sub.StealInit[Node].set(K);
    }
  return Sub;
}

/// Expects bit Item of every field row of \p Full to equal bit Lane of
/// the same row of \p Sub, for every (Item, Lane) pair of \p Lanes.
void expectLanesMatch(const GntResult &Full, const GntResult &Sub,
                      const std::vector<std::pair<unsigned, unsigned>> &Lanes,
                      const char *Problem, const std::string &How) {
  auto A = gntFields(Full);
  auto B = gntFields(Sub);
  for (std::size_t F = 0; F != A.size(); ++F)
    for (std::size_t N = 0; N != A[F].second->size(); ++N)
      for (const auto &[Item, Lane] : Lanes)
        if ((*A[F].second)[N].test(Item) != (*B[F].second)[N].test(Lane)) {
          ADD_FAILURE() << Problem << " " << A[F].first << " node " << N
                        << " item " << Item << " (" << How << ")";
          return;
        }
}

/// Solves \p Run's oriented problem cut into \p Shards contiguous item
/// ranges, each on its own, and compares every range with the full
/// solve.
void expectShardsMatch(const GntRun &Run, unsigned Shards,
                       const char *Problem, const std::string &How) {
  const unsigned U = Run.OrientedProblem.UniverseSize;
  for (unsigned S = 0; S != Shards; ++S) {
    std::vector<unsigned> Items;
    std::vector<std::pair<unsigned, unsigned>> Lanes;
    for (unsigned Item = U * S / Shards; Item != U * (S + 1) / Shards;
         ++Item) {
      Lanes.emplace_back(Item, static_cast<unsigned>(Items.size()));
      Items.push_back(Item);
    }
    GntResult Sub = solveGiveNTake(Run.OrientedIfg,
                                   selectItems(Run.OrientedProblem, Items));
    expectLanesMatch(Run.Result, Sub, Lanes, Problem,
                     How + " shard " + std::to_string(S));
  }
}

/// Solves \p Run's oriented problem over one representative item per
/// distinct (TAKE, GIVE, STEAL) init column and compares every item
/// with its representative's lane; items whose column is empty must
/// be bottom in every variable.
void expectDedupedMatches(const GntRun &Run, const char *Problem,
                          const std::string &How) {
  const GntProblem &P = Run.OrientedProblem;
  std::map<std::string, unsigned> LaneOf;
  std::vector<unsigned> Reps;
  std::vector<std::pair<unsigned, unsigned>> Lanes;
  std::vector<unsigned> Empty;
  for (unsigned Item = 0; Item != P.UniverseSize; ++Item) {
    std::string Column;
    for (const std::vector<BitVector> *Init :
         {&P.TakeInit, &P.GiveInit, &P.StealInit})
      for (const BitVector &Row : *Init)
        Column += Row.test(Item) ? '1' : '0';
    if (Column.find('1') == std::string::npos)
      Empty.push_back(Item);
    auto [It, New] =
        LaneOf.try_emplace(Column, static_cast<unsigned>(Reps.size()));
    if (New)
      Reps.push_back(Item);
    Lanes.emplace_back(Item, It->second);
  }
  GntResult Sub =
      solveGiveNTake(Run.OrientedIfg, selectItems(P, Reps));
  expectLanesMatch(Run.Result, Sub, Lanes, Problem, How + " deduped");
  for (const auto &[Name, Field] : gntFields(Run.Result))
    for (std::size_t N = 0; N != Field->size(); ++N)
      for (unsigned Item : Empty)
        EXPECT_FALSE((*Field)[N].test(Item))
            << Problem << " " << Name << " node " << N << " empty item "
            << Item << " (" << How << ")";
}

void expectResultsIdentical(const GntResult &Want, const GntResult &Got,
                            const char *Problem, const std::string &How) {
  auto A = gntFields(Want);
  auto B = gntFields(Got);
  ASSERT_EQ(A.size(), B.size());
  for (std::size_t F = 0; F != A.size(); ++F) {
    ASSERT_EQ(A[F].second->size(), B[F].second->size())
        << Problem << " " << A[F].first << " (" << How << ")";
    for (std::size_t N = 0; N != A[F].second->size(); ++N)
      EXPECT_TRUE((*A[F].second)[N] == (*B[F].second)[N])
          << Problem << " " << A[F].first << " node " << N << " (" << How
          << ")";
  }
}

} // namespace

/// Solving any contiguous range of items on its own reproduces the
/// matching columns of the full solve bit for bit.
TEST_P(ShardInvariance, ShardedSolveMatchesSerial) {
  for (double GotoProb : {0.1, 0.0}) {
    auto B = buildProgram(makeProgram(GetParam(), 40, GotoProb));
    ASSERT_TRUE(B.has_value());
    CommPlan Plan = generateComm(B->Prog, B->G, B->Ifg);
    ASSERT_TRUE(Plan.ReadRun.has_value());
    ASSERT_TRUE(Plan.WriteRun.has_value());
    unsigned Items = Plan.ReadProblem.UniverseSize;
    for (unsigned Shards : {1u, 2u, 7u, std::max(Items, 1u)}) {
      std::string How = "goto=" + std::to_string(GotoProb) +
                        " shards=" + std::to_string(Shards);
      expectShardsMatch(*Plan.ReadRun, Shards, "READ", How);
      expectShardsMatch(*Plan.WriteRun, Shards, "WRITE", How);
    }
  }
}

/// The fused arena evaluator agrees with the classic one-equation-at-a-
/// time evaluator on every field.
TEST_P(ShardInvariance, ArenaMatchesClassicOracle) {
  for (double GotoProb : {0.1, 0.0}) {
    auto B = buildProgram(makeProgram(GetParam(), 40, GotoProb));
    ASSERT_TRUE(B.has_value());
    CommPlan Plan = generateComm(B->Prog, B->G, B->Ifg);
    for (const std::optional<GntRun> *Slot : {&Plan.ReadRun, &Plan.WriteRun}) {
      ASSERT_TRUE(Slot->has_value());
      const GntRun &Run = **Slot;
      GntResult Classic =
          solveGiveNTakeClassic(Run.OrientedIfg, Run.OrientedProblem);
      const char *Problem =
          Run.OrientedProblem.Dir == Direction::Before ? "READ" : "WRITE";
      expectResultsIdentical(Classic, Run.Result, Problem,
                             "goto=" + std::to_string(GotoProb));
    }
  }
}

/// Items with identical init columns have identical solutions: the
/// problem deduplicated to one representative per column reproduces
/// the full solve, and never-touched items solve to bottom.
TEST_P(ShardInvariance, CompressedSolveMatchesSerial) {
  for (double GotoProb : {0.1, 0.0}) {
    auto B = buildProgram(makeProgram(GetParam(), 40, GotoProb));
    ASSERT_TRUE(B.has_value());
    CommPlan Plan = generateComm(B->Prog, B->G, B->Ifg);
    ASSERT_TRUE(Plan.ReadRun.has_value());
    ASSERT_TRUE(Plan.WriteRun.has_value());
    std::string How = "goto=" + std::to_string(GotoProb);
    expectDedupedMatches(*Plan.ReadRun, "READ", How);
    expectDedupedMatches(*Plan.WriteRun, "WRITE", How);
  }
}

/// The column property on the production pipeline: every solve behind
/// an audited compile — the READ/WRITE runs and the PRE run over the
/// expression universe — is reproduced by its deduplicated problem, so
/// the rendered output and its resultSignature depend only on the
/// distinct item columns.
TEST_P(ShardInvariance, CompressionIsInvisibleInResultSignature) {
  std::string Source = AstPrinter().print(makeProgram(GetParam(), 30));
  PipelineOptions Comm;
  Comm.Audit = true;
  PipelineResult R = compilePipeline(Source, Comm);
  ASSERT_TRUE(R.ok()) << R.Diags.renderText();
  ASSERT_TRUE(R.Plan != nullptr);
  ASSERT_TRUE(R.Plan->ReadRun.has_value());
  expectDedupedMatches(*R.Plan->ReadRun, "READ", "pipeline");
  if (R.Plan->WriteRun)
    expectDedupedMatches(*R.Plan->WriteRun, "WRITE", "pipeline");
  PipelineOptions Pre = Comm;
  Pre.Mode = PipelineMode::Pre;
  PipelineResult PR = compilePipeline(Source, Pre);
  ASSERT_TRUE(PR.ok()) << PR.Diags.renderText();
  expectDedupedMatches(PR.Pre->Run, "PRE", "pipeline");
  EXPECT_EQ(resultSignature(compilePipeline(Source, Comm)),
            resultSignature(R));
}

namespace {

/// \p Base's graph shape and NoHoist headers with a seeded synthetic
/// \p Universe-bit universe: every node takes, gives and steals a random
/// selection whose size grows with the universe, so every word of a
/// row, the partial tail word included, carries bits.
GntProblem wideProblem(const GntProblem &Base, unsigned Universe,
                       unsigned Seed) {
  std::mt19937 Rng(Seed);
  const unsigned N = static_cast<unsigned>(Base.TakeInit.size());
  GntProblem P(N, Universe, Base.Dir);
  P.NoHoistHeaders = Base.NoHoistHeaders;
  for (unsigned Node = 0; Node != N; ++Node) {
    for (unsigned D = 0, E = Rng() % (2 + Universe / 8); D != E; ++D)
      P.TakeInit[Node].set(Rng() % Universe);
    for (unsigned D = 0, E = Rng() % (2 + Universe / 16); D != E; ++D)
      P.GiveInit[Node].set(Rng() % Universe);
    for (unsigned D = 0, E = Rng() % (2 + Universe / 32); D != E; ++D)
      P.StealInit[Node].set(Rng() % Universe);
  }
  return P;
}

} // namespace

/// Wide universes over each seed's graph, BEFORE and AFTER: 1 to 1,100
/// bits (one partial word up to 18 words, with word-multiple and
/// one-past sizes), arena vs classic on all 20 fields. Arena rows are
/// packed, so a word loop that ran past its row would corrupt the
/// neighbouring row and fail here.
TEST_P(ShardInvariance, KernelShardCompressStealGridMatchesClassic) {
  auto B = buildProgram(makeProgram(GetParam(), 40, 0.1));
  ASSERT_TRUE(B.has_value());
  CommPlan Plan = generateComm(B->Prog, B->G, B->Ifg);
  for (const GntProblem *Base : {&Plan.ReadProblem, &Plan.WriteProblem})
    for (unsigned Universe : {1u, 63u, 64u, 65u, 129u, 520u, 1100u}) {
      GntRun Run = orientGiveNTake(
          B->Ifg, wideProblem(*Base, Universe, GetParam() * 7919 + Universe));
      GntResult Classic =
          solveGiveNTakeClassic(Run.OrientedIfg, Run.OrientedProblem);
      GntResult Arena = solveGiveNTake(Run.OrientedIfg, Run.OrientedProblem);
      expectResultsIdentical(
          Classic, Arena,
          Base->Dir == Direction::Before ? "BEFORE" : "AFTER",
          "universe=" + std::to_string(Universe));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardInvariance, ::testing::Range(1u, 101u));

//===----------------------------------------------------------------------===//
// Incrementality equivalence battery
//===----------------------------------------------------------------------===//
//
// The contract behind PipelineOptions::Incremental (and behind excluding
// it from the service cache key): for ANY compile history, compiling a
// source through a warm stage cache with incremental solving must be
// byte-identical — result signature, rendered service payload, and all
// 20 solver variables — to a cold compile of the same source. 100 seeds
// each walk an edit script (whitespace-only edit, array rename,
// structural mutations covering statement insert/delete and loop-body
// edits, a revert to the base program, and option flips) against one
// persistent stage cache.

namespace {

class IncrementalEquivalence : public ::testing::TestWithParam<unsigned> {};

/// One step of the edit script: a label for failure messages, the
/// source to compile, and the options to compile it with.
struct EditStep {
  std::string Label;
  std::string Source;
  PipelineOptions Opts;
};

/// A whitespace-only variant: indentation and blank lines change the
/// parse key but not the canonical AST, so everything from the CFG
/// stage on must hit.
std::string whitespaceVariant(const std::string &Source) {
  std::string Out = "\n";
  for (char C : Source) {
    Out += C;
    if (C == '\n')
      Out += "  ";
  }
  Out += "\n\n";
  return Out;
}

/// Renames the first declared array everywhere (a semantic edit that
/// changes item identities but not program shape).
std::string renameVariant(const std::string &Source) {
  ParseResult PR = parseProgram(Source);
  if (!PR.success() || PR.Prog.getArrays().empty())
    return std::string();
  const std::string &Old = PR.Prog.getArrays().begin()->first;
  fuzz::ArrayRenameMap Rename{{Old, "zz_" + Old}};
  return AstPrinter().print(fuzz::cloneProgram(PR.Prog, Rename));
}

std::vector<EditStep> editScript(unsigned Seed, const PipelineOptions &Base) {
  // Goto-free base: partial (masked) incremental re-solves are only
  // legal without JUMP/SYNTHETIC edges, so this exercises the dirty-
  // interval path; mutants may introduce gotos and fall back to full
  // solves, which the equivalence must survive too.
  std::string BaseSrc = AstPrinter().print(makeProgram(Seed, 30, 0.0));
  std::vector<EditStep> Steps;
  Steps.push_back({"base", BaseSrc, Base});
  Steps.push_back({"whitespace", whitespaceVariant(BaseSrc), Base});
  std::string Renamed = renameVariant(BaseSrc);
  if (!Renamed.empty())
    Steps.push_back({"rename", Renamed, Base});
  // Structural mutations (statement insert/delete/duplicate, loop-body
  // rewrites, wraps, goto insertion) from the fuzzer's mutator; each
  // draw is deterministic in (source, seed).
  for (unsigned Draw = 0; Draw != 3; ++Draw) {
    std::mt19937 Rng(Seed * 7919u + Draw);
    std::string Mutant = fuzz::mutateSource(BaseSrc, Rng);
    if (!Mutant.empty() && Mutant != BaseSrc)
      Steps.push_back({"mutant" + std::to_string(Draw), Mutant, Base});
  }
  // Revert: a previously seen AST must still match cold.
  Steps.push_back({"revert", BaseSrc, Base});
  // Option flips against the same warm cache: different solve keys,
  // same frontend artifacts.
  PipelineOptions Owner = Base;
  Owner.Comm.OwnerComputes = true;
  Steps.push_back({"flip-owner-computes", BaseSrc, Owner});
  PipelineOptions Atomic = Base;
  Atomic.Comm.Atomic = true;
  Steps.push_back({"flip-atomic", BaseSrc, Atomic});
  PipelineOptions Pre = Base;
  Pre.Mode = PipelineMode::Pre;
  Steps.push_back({"flip-pre", BaseSrc, Pre});
  return Steps;
}

/// Byte-compares the solver runs of two results (when both carry one).
void expectRunsIdentical(const PipelineResult &Want,
                         const PipelineResult &Got,
                         const std::string &How) {
  if (!Want.Plan || !Got.Plan)
    return;
  auto Check = [&](const std::optional<GntRun> &W,
                   const std::optional<GntRun> &G, const char *Problem) {
    ASSERT_EQ(W.has_value(), G.has_value()) << Problem << " (" << How << ")";
    if (W)
      expectResultsIdentical(W->Result, G->Result, Problem, How);
  };
  Check(Want.Plan->ReadRun, Got.Plan->ReadRun, "READ");
  Check(Want.Plan->WriteRun, Got.Plan->WriteRun, "WRITE");
}

} // namespace

/// The battery: every step's incremental compile is byte-identical to a
/// cold compile.
TEST_P(IncrementalEquivalence, EditSweepMatchesColdCompile) {
  PipelineOptions Base;
  Base.Annotate = true;
  Base.Incremental = true;
  StageCache Warm; // One warm cache across the whole edit script.
  for (const EditStep &Step : editScript(GetParam(), Base)) {
    PipelineResult Inc = gnt::Pipeline(Step.Opts).compile(Step.Source, &Warm);
    PipelineOptions ColdOpts = Step.Opts;
    ColdOpts.Incremental = false;
    PipelineResult Cold = gnt::Pipeline(ColdOpts).compile(Step.Source);
    EXPECT_EQ(resultSignature(Inc), resultSignature(Cold)) << Step.Label;
    EXPECT_EQ(Inc.Annotated, Cold.Annotated) << Step.Label;
    EXPECT_EQ(renderResultPayload(Inc), renderResultPayload(Cold))
        << Step.Label;
    expectRunsIdentical(Cold, Inc, Step.Label);
  }
  // The sweep must actually have exercised the machinery: the
  // whitespace and revert steps guarantee downstream hits, and every
  // comm-mode solve ran through the incremental context.
  StageCacheStats S = Warm.statsSnapshot();
  EXPECT_GT(S.hits(CacheStage::Cfg), 0u);
  EXPECT_GT(S.hits(CacheStage::Solve), 0u);
  EXPECT_TRUE(S.Inc.any());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalEquivalence,
                         ::testing::Range(1u, 101u));
