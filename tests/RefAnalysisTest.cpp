//===- tests/RefAnalysisTest.cpp - Section analysis unit tests --------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The value-numbered section universe (paper Section 2/4.1): subscript
/// normalization against loop nests, indirect references, volatile
/// (mutated-scalar) subscripts, and the derived TAKE/GIVE/STEAL_init
/// sets.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "comm/CommGen.h"
#include "comm/RefAnalysis.h"

#include <gtest/gtest.h>

using namespace gnt;
using namespace gnt::test;

namespace {

RefAnalysisResult analyze(Pipeline &P) {
  EXPECT_TRUE(P.Ifg.has_value());
  return analyzeReferences(P.Prog, P.G);
}

} // namespace

TEST(RefAnalysis, DirectSectionNormalization) {
  Pipeline P = Pipeline::fromSource(R"(
distribute x
array u
do k = 1, n
  u(k) = x(k + 10)
enddo
)");
  RefAnalysisResult R = analyze(P);
  ASSERT_EQ(R.Items.size(), 1u);
  EXPECT_EQ(R.Items.item(0).Key, "x(11:n+10)");
  EXPECT_FALSE(R.Items.item(0).Volatile);
  EXPECT_FALSE(R.Items.item(0).isIndirect());
}

TEST(RefAnalysis, StridedAndReversedSections) {
  Pipeline P = Pipeline::fromSource(R"(
distribute x, y
array u
do k = 1, n
  u(k) = x(2 * k) + y(n - k)
enddo
)");
  RefAnalysisResult R = analyze(P);
  EXPECT_GE(R.Items.lookup("x(2:2*n:2)"), 0);
  // Negative coefficient: bounds swap so lo <= hi.
  EXPECT_GE(R.Items.lookup("y(0:n-1)"), 0);
}

TEST(RefAnalysis, TriangularBounds) {
  Pipeline P = Pipeline::fromSource(R"(
distribute x
array u
do i = 1, n
  do j = 1, i
    u(j) = x(j)
  enddo
enddo
)");
  RefAnalysisResult R = analyze(P);
  // j in [1, i], i in [1, n]: the section expands to (1:n).
  EXPECT_GE(R.Items.lookup("x(1:n)"), 0);
}

TEST(RefAnalysis, IndirectValueNumbering) {
  Pipeline P = Pipeline::fromSource(R"(
distribute x
array a, u
do k = 1, n
  u(k) = x(a(k))
enddo
do l = 1, n
  u(l) = x(a(l))
enddo
)");
  RefAnalysisResult R = analyze(P);
  // The Figure 2 caption's claim: both refs share one value number.
  ASSERT_EQ(R.Items.size(), 1u);
  EXPECT_EQ(R.Items.item(0).Key, "x(a(1:n))");
  EXPECT_TRUE(R.Items.item(0).isIndirect());
  EXPECT_EQ(R.Items.item(0).IndirectArray, "a");
}

TEST(RefAnalysis, DistributedIndirectionArrayIsAlsoConsumed) {
  Pipeline P = Pipeline::fromSource(R"(
distribute x, a
array u
do k = 1, n
  u(k) = x(a(k))
enddo
)");
  RefAnalysisResult R = analyze(P);
  // Both x(a(1:n)) and a(1:n) are consumed.
  EXPECT_GE(R.Items.lookup("x(a(1:n))"), 0);
  EXPECT_GE(R.Items.lookup("a(1:n)"), 0);
}

TEST(RefAnalysis, MutatedScalarSubscriptIsVolatile) {
  Pipeline P = Pipeline::fromSource(R"(
distribute x
array u
m = 1
u(1) = x(m)
m = 2
u(2) = x(m)
)");
  RefAnalysisResult R = analyze(P);
  // Two distinct volatile items: the value number cannot be shared.
  unsigned Volatile = 0;
  for (unsigned I = 0; I != R.Items.size(); ++I)
    Volatile += R.Items.item(I).Volatile;
  EXPECT_EQ(Volatile, 2u);
}

TEST(RefAnalysis, ParameterSubscriptIsStable) {
  Pipeline P = Pipeline::fromSource(R"(
distribute x
array u
u(1) = x(m)
u(2) = x(m)
)");
  RefAnalysisResult R = analyze(P);
  // m is never assigned: both refs share one stable item.
  ASSERT_EQ(R.Items.size(), 1u);
  EXPECT_FALSE(R.Items.item(0).Volatile);
}

TEST(RefAnalysis, DegenerateStrideSectionSharesItem) {
  // x(2*i) over i = 1..1 is the one element x(2), whose stride does not
  // show in its key: it and a plain x(2) are one item.
  Pipeline P = Pipeline::fromSource(R"(
distribute x
array y
do i = 1, 1
  y(i) = x(2*i)
enddo
y(3) = x(2)
)");
  RefAnalysisResult R = analyze(P);
  ASSERT_EQ(R.Items.size(), 1u);
  EXPECT_EQ(R.Items.item(0).Key, "x(2)");
  CommPlan Plan = generateComm(P.Prog, P.G, *P.Ifg);
  auto Counts = Plan.staticCounts();
  EXPECT_EQ(Counts[CommOpKind::ReadSend], 1u);
  EXPECT_EQ(Counts[CommOpKind::ReadRecv], 1u);
}

TEST(RefAnalysis, StealFromOverlappingDefinition) {
  Pipeline P = Pipeline::fromSource(R"(
distribute x
array u
u(1) = x(6)
x(2) = 0
x(100) = 0
)");
  ASSERT_TRUE(P.Ifg.has_value());
  CommPlan Plan = generateComm(P.Prog, P.G, *P.Ifg);
  int Use = Plan.Refs.Items.lookup("x(6)");
  ASSERT_GE(Use, 0);
  // Find the defining nodes.
  unsigned Steals = 0;
  for (NodeId Id = 0; Id != P.G.size(); ++Id)
    Steals += Plan.ReadProblem.StealInit[Id].test(Use);
  // x(2) and x(100) are provably disjoint from x(6): no steals at all.
  EXPECT_EQ(Steals, 0u);
}

TEST(RefAnalysis, StealFromMayOverlapDefinition) {
  Pipeline P = Pipeline::fromSource(R"(
distribute x
array u
do k = 1, n
  u(k) = x(k)
enddo
x(m) = 0
)");
  ASSERT_TRUE(P.Ifg.has_value());
  CommPlan Plan = generateComm(P.Prog, P.G, *P.Ifg);
  int Use = Plan.Refs.Items.lookup("x(1:n)");
  ASSERT_GE(Use, 0);
  unsigned Steals = 0;
  for (NodeId Id = 0; Id != P.G.size(); ++Id)
    Steals += Plan.ReadProblem.StealInit[Id].test(Use);
  // x(m) may alias any element of x(1:n).
  EXPECT_EQ(Steals, 1u);
}

TEST(RefAnalysis, IndirectionArrayStoreStealsIndirectItems) {
  Pipeline P = Pipeline::fromSource(R"(
distribute x
array a, u
do k = 1, n
  u(k) = x(a(k))
enddo
a(3) = 7
)");
  ASSERT_TRUE(P.Ifg.has_value());
  CommPlan Plan = generateComm(P.Prog, P.G, *P.Ifg);
  int Use = Plan.Refs.Items.lookup("x(a(1:n))");
  ASSERT_GE(Use, 0);
  unsigned Steals = 0;
  for (NodeId Id = 0; Id != P.G.size(); ++Id)
    Steals += Plan.ReadProblem.StealInit[Id].test(Use);
  // Modifying the indirection array invalidates x(a(1:n)) even though a
  // itself is not distributed (paper Section 4.1).
  EXPECT_EQ(Steals, 1u);
}

TEST(RefAnalysis, ScalarAssignStealsDependentSections) {
  Pipeline P = Pipeline::fromSource(R"(
distribute x
array u
u(1) = x(m + 1)
m = m + 5
u(2) = x(m + 1)
)");
  ASSERT_TRUE(P.Ifg.has_value());
  CommPlan Plan = generateComm(P.Prog, P.G, *P.Ifg);
  // Volatile items, each stolen at the scalar assignment.
  bool AnySteal = false;
  for (NodeId Id = 0; Id != P.G.size(); ++Id)
    AnySteal |= Plan.ReadProblem.StealInit[Id].any();
  EXPECT_TRUE(AnySteal);
  GntVerifyResult V = Plan.verify();
  EXPECT_TRUE(V.ok()) << V.firstViolation();
}

TEST(RefAnalysis, UsesInConditionsAndBounds) {
  Pipeline P = Pipeline::fromSource(R"(
distribute x, y
array u
if (x(1) > 0) then
  do i = 1, y(2)
    u(i) = 0
  enddo
endif
)");
  RefAnalysisResult R = analyze(P);
  EXPECT_GE(R.Items.lookup("x(1)"), 0);
  EXPECT_GE(R.Items.lookup("y(2)"), 0);
  // The condition's use sits on the Branch node, the bound's on the
  // LoopHeader node.
  bool BranchUse = false, HeaderUse = false;
  for (NodeId Id = 0; Id != P.G.size(); ++Id) {
    if (P.G.node(Id).Kind == NodeKind::Branch && !R.PerNode[Id].Uses.empty())
      BranchUse = true;
    if (P.G.node(Id).Kind == NodeKind::LoopHeader &&
        !R.PerNode[Id].Uses.empty())
      HeaderUse = true;
  }
  EXPECT_TRUE(BranchUse);
  EXPECT_TRUE(HeaderUse);
}

TEST(RefAnalysis, DefsRecordedForDistributedArrays) {
  Pipeline P = Pipeline::fromSource(R"(
distribute x
array u
do i = 1, n
  x(i) = u(i)
enddo
)");
  RefAnalysisResult R = analyze(P);
  unsigned Defs = 0;
  for (const NodeRefs &NR : R.PerNode)
    Defs += NR.Defs.size();
  EXPECT_EQ(Defs, 1u);
  EXPECT_GE(R.Items.lookup("x(1:n)"), 0);
}
