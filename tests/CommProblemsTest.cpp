//===- tests/CommProblemsTest.cpp - Indexed STEAL_init construction ---------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// buildCommProblems visits, per reference, only the items it can change
/// (an index by array, by indirection array and by dependent scalar) and
/// ORs memoized overlap rows into the WRITE steals. This differential
/// test keeps the all-pairs construction it replaced as a test-local
/// reference and requires identical READ and WRITE problems over the
/// generated families, the corpus and examples, and a handwritten
/// program covering every steal rule.
///
//===----------------------------------------------------------------------===//

#include "Battery.h"

#include "cfg/CfgBuilder.h"
#include "comm/CommGen.h"
#include "comm/RefAnalysis.h"
#include "interval/IntervalFlowGraph.h"

#include <gtest/gtest.h>

using namespace gnt;
using namespace gnt::test;

namespace {

/// The all-pairs construction buildCommProblems replaced, verbatim:
/// every (use, item) and every (definition, item) pair is tested.
void allPairsCommProblems(const RefAnalysisResult &Refs, const Cfg &G,
                          const IntervalFlowGraph &Ifg,
                          const CommOptions &Opts, GntProblem &Read,
                          GntProblem &Write) {
  unsigned U = Refs.Items.size();
  Read = GntProblem(G.size(), U, Direction::Before);
  Write = GntProblem(G.size(), U, Direction::After);

  for (NodeId N = 0; N != G.size(); ++N) {
    const NodeRefs &R = Refs.PerNode[N];
    // READ: references consume.
    for (unsigned Use : R.Uses)
      Read.TakeInit[N].set(Use);
    // WRITE: references to overlapping data steal pending write-backs —
    // the written values must reach their owners before any processor
    // re-fetches them (Figure 3's placement).
    for (unsigned Use : R.Uses)
      for (unsigned I = 0; I != U; ++I)
        if (Refs.Items.item(I).mayOverlap(Refs.Items.item(Use)))
          Write.StealInit[N].set(I);

    for (unsigned DI = 0; DI != R.Defs.size(); ++DI) {
      unsigned Def = R.Defs[DI];
      bool IsReduction = DI < R.DefOps.size() && R.DefOps[DI] != 0;
      // READ: a plain local definition produces the defined section for
      // free (non-owner-computes). A reduction gives nothing: the local
      // partial value is not the global value.
      if (!Opts.OwnerComputes && !IsReduction)
        Read.GiveInit[N].set(Def);
      // WRITE: the definition must be written (or reduced) back.
      if (!Opts.OwnerComputes)
        Write.TakeInit[N].set(Def);
    }

    // Any array definition (distributed or not) steals READ items that
    // overlap the written section or are subscripted through the written
    // array.
    for (const RawDef &D : Refs.ArrayDefs[N]) {
      for (unsigned I = 0; I != U; ++I) {
        const Item &It = Refs.Items.item(I);
        bool Steals = false;
        if (It.Array == D.Array) {
          // Same array: stolen unless it is exactly the defined (and
          // hence freshly given) non-volatile direct section.
          Item DefItem;
          DefItem.Array = D.Array;
          DefItem.Sec = D.Sec;
          DefItem.Volatile = D.Opaque;
          Steals = It.mayOverlap(DefItem);
          // The definition itself is given, not stolen — except for
          // reductions, which update the owner without making the global
          // value locally available.
          if (Steals && !D.Reduction && !D.Opaque && !It.Volatile &&
              !It.isIndirect() && It.Sec == D.Sec)
            Steals = false;
        }
        // Writing the indirection array invalidates items subscripted
        // through it, e.g. a def of a(...) steals x(a(...)).
        if (!Steals && It.isIndirect() && It.IndirectArray == D.Array)
          Steals = D.Opaque || It.Sec.mayOverlap(D.Sec);
        if (Steals)
          Read.StealInit[N].set(I);
      }
    }

    // Indirection-array and scalar invalidation applies to pending
    // write-backs as well: the item's identity changes.
    for (const RawDef &D : Refs.ArrayDefs[N])
      for (unsigned I = 0; I != U; ++I) {
        const Item &It = Refs.Items.item(I);
        if (It.isIndirect() && It.IndirectArray == D.Array &&
            (D.Opaque || It.Sec.mayOverlap(D.Sec)))
          Write.StealInit[N].set(I);
      }
  }

  // Reassigning a scalar a section depends on breaks the value number.
  for (const auto &[Scalar, Nodes] : Refs.ScalarAssigns) {
    for (unsigned I = 0; I != U; ++I) {
      const Item &It = Refs.Items.item(I);
      bool Depends = false;
      for (const std::string &Sym : It.DependsOn)
        Depends |= Sym == Scalar;
      if (!Depends)
        continue;
      for (NodeId N : Nodes) {
        Read.StealInit[N].set(I);
        Write.StealInit[N].set(I);
      }
    }
  }

  // Zero-trip hoisting opt-out (Section 4.1): every loop is treated
  // pessimistically — no consumption hoisted above it, no in-body
  // production counted as available past it.
  if (!Opts.HoistZeroTrip)
    for (NodeId N = 0; N != G.size(); ++N)
      if (N != Ifg.root() && Ifg.isHeader(N)) {
        Read.NoHoistHeaders.push_back(N);
        Write.NoHoistHeaders.push_back(N);
      }
}

std::string compareProblems(const GntProblem &A, const GntProblem &B) {
  if (A.Dir != B.Dir)
    return "Dir differs";
  if (A.UniverseSize != B.UniverseSize)
    return "UniverseSize differs";
  if (A.NoHoistHeaders != B.NoHoistHeaders)
    return "NoHoistHeaders differs";
  const std::pair<const char *, const std::vector<BitVector> GntProblem::*>
      Rows[] = {{"TakeInit", &GntProblem::TakeInit},
                {"GiveInit", &GntProblem::GiveInit},
                {"StealInit", &GntProblem::StealInit}};
  for (const auto &[Name, Field] : Rows) {
    const std::vector<BitVector> &RA = A.*Field, &RB = B.*Field;
    if (RA.size() != RB.size())
      return std::string(Name) + " has a different node count";
    for (NodeId N = 0; N != RA.size(); ++N)
      if (!(RA[N] == RB[N]))
        return std::string(Name) + " differs at node " + std::to_string(N);
  }
  return {};
}

/// Builds \p P and compares both constructions under every combination
/// of OwnerComputes and HoistZeroTrip. Returns the number of
/// READ/WRITE problem pairs compared.
unsigned checkProgram(const std::string &Name, const Program &P) {
  CfgBuildResult CR = buildCfg(P);
  EXPECT_TRUE(CR.success()) << Name;
  if (!CR.success())
    return 0;
  auto IR = IntervalFlowGraph::build(CR.G);
  EXPECT_TRUE(IR.success()) << Name;
  if (!IR.success())
    return 0;
  RefAnalysisResult Refs = analyzeReferences(P, CR.G);
  unsigned Pairs = 0;
  for (bool Owner : {false, true})
    for (bool Hoist : {false, true}) {
      CommOptions O;
      O.OwnerComputes = Owner;
      O.HoistZeroTrip = Hoist;
      GntProblem Read, Write, RefRead, RefWrite;
      buildCommProblems(Refs, CR.G, *IR.Ifg, O, Read, Write);
      allPairsCommProblems(Refs, CR.G, *IR.Ifg, O, RefRead, RefWrite);
      std::string Where = Name + " owner-computes=" + std::to_string(Owner) +
                          " hoist-zero-trip=" + std::to_string(Hoist);
      EXPECT_EQ(compareProblems(Read, RefRead), "") << Where << " READ";
      EXPECT_EQ(compareProblems(Write, RefWrite), "") << Where << " WRITE";
      ++Pairs;
    }
  return Pairs;
}

void checkGenerated(unsigned Stmts, unsigned Seeds) {
  unsigned Pairs = 0;
  for (const BatteryProgram &B : generatedBattery(Stmts, Seeds))
    Pairs += checkProgram(B.Name, B.Prog);
  EXPECT_EQ(Pairs, NumGenBuckets * Seeds * 4);
}

} // namespace

TEST(CommProblems, MatchesAllPairsOn30StatementFamilies) {
  checkGenerated(30, 12);
}

TEST(CommProblems, MatchesAllPairsOn200StatementFamilies) {
  checkGenerated(200, 6);
}

TEST(CommProblems, MatchesAllPairsOn1600StatementFamilies) {
  checkGenerated(1600, 2);
}

TEST(CommProblems, MatchesAllPairsOnCorpusAndExamples) {
  for (const BatteryProgram &B : fileBattery())
    checkProgram(B.Name, B.Prog);
}

TEST(CommProblems, MatchesAllPairsOnEveryStealRule) {
  // x(x(i)) is indirect through its own array; the stores to a and x
  // steal items subscripted through them; y is reduced with + and *;
  // the subscripts on m are volatile, and reassigning k steals the
  // sections whose bounds depend on it.
  ParseResult PR = parseProgram(R"(
distribute x, y, z
array a, u
k = 4
do i = 1, n
  u(i) = x(x(i)) + x(a(i)) + z(i + k)
  a(i) = u(i)
  x(i + 1) = x(a(i + 1))
  y(a(i)) = y(a(i)) + u(i)
  y(i) = y(i) * 2
  m = m + 1
  z(m) = x(m) + z(m + 1)
enddo
k = k + 1
do j = 1, k
  u(j) = z(j + k) + x(2 * j) + y(j)
  x(2 * j + 1) = z(j)
enddo
a(n) = 0
x(a(1)) = 0
u(1) = x(x(1))
)");
  ASSERT_TRUE(PR.success()) << PR.Errors.front();
  EXPECT_EQ(checkProgram("steal-rules", PR.Prog), 4u);

  // The program reaches every rule it is meant to cover.
  CfgBuildResult CR = buildCfg(PR.Prog);
  ASSERT_TRUE(CR.success());
  RefAnalysisResult Refs = analyzeReferences(PR.Prog, CR.G);
  bool SelfIndirect = false, ThroughA = false, Volatile = false,
       Reduction = false, StoreToA = false;
  for (unsigned I = 0; I != Refs.Items.size(); ++I) {
    const Item &It = Refs.Items.item(I);
    SelfIndirect |= It.IndirectArray == It.Array;
    ThroughA |= It.IndirectArray == "a";
    Volatile |= It.Volatile;
    Reduction |= It.ReductionOp != 0;
  }
  for (const std::vector<RawDef> &Defs : Refs.ArrayDefs)
    for (const RawDef &D : Defs)
      StoreToA |= D.Array == "a";
  EXPECT_TRUE(SelfIndirect && ThroughA && Volatile && Reduction && StoreToA);
  EXPECT_EQ(Refs.ScalarAssigns.count("k"), 1u);
  EXPECT_EQ(Refs.ScalarAssigns.count("m"), 1u);
}
