//===- tests/ReductionTest.cpp - Reduction communication tests --------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The paper's Section 6: "We generate READs, WRITEs, and WRITEs combined
/// with different reduction operations (such as summation)". A reduction
/// `a(s) = a(s) op ...` accumulates locally: the self-reference needs no
/// READ, the definition gives nothing for free, and the write-back
/// combines at the owner.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "comm/CommGen.h"
#include "sim/TraceSimulator.h"

#include <gtest/gtest.h>

using namespace gnt;
using namespace gnt::test;

namespace {

CommPlan planFor(Pipeline &P, CommOptions Opts = {}) {
  EXPECT_TRUE(P.Ifg.has_value());
  return generateComm(P.Prog, P.G, *P.Ifg, Opts);
}

} // namespace

TEST(Reduction, IrregularAccumulationNeedsNoRead) {
  // The classic irregular kernel (cf. the paper's Fortran D heritage):
  // scatter-add through an indirection array.
  Pipeline P = Pipeline::fromSource(R"(
distribute x
array c, u
do i = 1, n
  x(c(i)) = x(c(i)) + u(i)
enddo
)");
  CommPlan Plan = planFor(P);
  auto Counts = Plan.staticCounts();
  // No READ at all: the self-reference accumulates locally.
  EXPECT_EQ(Counts[CommOpKind::ReadSend], 0u);
  EXPECT_EQ(Counts[CommOpKind::ReadRecv], 0u);
  // One reduction write-back pair, hoisted after the loop.
  EXPECT_EQ(Counts[CommOpKind::WriteSend], 1u);
  EXPECT_EQ(Counts[CommOpKind::WriteRecv], 1u);

  std::string Out = Plan.annotate(P.Prog);
  SCOPED_TRACE(Out);
  EXPECT_NE(Out.find("Write_Send[+]{x(c(1:n))}"), std::string::npos);
  EXPECT_GT(Out.find("Write_Send[+]"), Out.find("enddo"));

  GntVerifyResult V = Plan.verify();
  EXPECT_TRUE(V.ok()) << V.firstViolation();
  SimConfig C;
  C.Params["n"] = 32;
  SimStats S = simulate(P.Prog, Plan, C);
  EXPECT_TRUE(S.ok()) << (S.Errors.empty() ? "" : S.Errors.front());
  EXPECT_EQ(S.Messages, 1u);
}

TEST(Reduction, ProductReductionRendersItsOperator) {
  Pipeline P = Pipeline::fromSource(R"(
distribute x
array u
do i = 1, n
  x(5) = x(5) * u(i)
enddo
)");
  CommPlan Plan = planFor(P);
  std::string Out = Plan.annotate(P.Prog);
  EXPECT_NE(Out.find("Write_Send[*]{x(5)}"), std::string::npos);

  // The self-reference must be the same expression as the target:
  // x(k + 1) and x(1 + k) print differently, so the second statement
  // is a plain store.
  Pipeline Q = Pipeline::fromSource(R"(
distribute x, y
do k = 1, n
  x(k) = x(k) + 1
  y(k + 1) = y(1 + k) + 1
enddo
)");
  Out = planFor(Q).annotate(Q.Prog);
  SCOPED_TRACE(Out);
  EXPECT_NE(Out.find("Write_Send[+]{x(1:n)}"), std::string::npos);
  EXPECT_NE(Out.find("Write_Send{y(2:n+1)}"), std::string::npos);
  EXPECT_EQ(Out.find("Write_Send[+]{y("), std::string::npos);
}

TEST(Reduction, ReadAfterReductionRequiresCommunication) {
  // Unlike a plain definition, a reduction does not satisfy a later read
  // "for free": the reduced global value lives at the owner.
  Pipeline P = Pipeline::fromSource(R"(
distribute x
array u, w
do i = 1, n
  x(i) = x(i) + u(i)
enddo
do j = 1, n
  w(j) = x(j)
enddo
)");
  CommPlan Plan = planFor(P);
  auto Counts = Plan.staticCounts();
  // The j loop's read of x(1:n) must fetch the reduced values.
  EXPECT_EQ(Counts[CommOpKind::ReadSend], 1u);
  EXPECT_EQ(Counts[CommOpKind::ReadRecv], 1u);
  std::string Out = Plan.annotate(P.Prog);
  SCOPED_TRACE(Out);
  // Ordering: the reduction write-back precedes the read.
  EXPECT_LT(Out.find("Write_Send[+]"), Out.find("Read_Send"));

  SimConfig C;
  C.Params["n"] = 16;
  SimStats S = simulate(P.Prog, Plan, C);
  EXPECT_TRUE(S.ok()) << (S.Errors.empty() ? "" : S.Errors.front());
  EXPECT_EQ(S.Messages, 2u); // One write-back, one read.
}

TEST(Reduction, PlainDefinitionStillGivesForFree) {
  // Contrast case: the same shape without the self-reference is a plain
  // store, which does satisfy the later read for free.
  Pipeline P = Pipeline::fromSource(R"(
distribute x
array u, w
do i = 1, n
  x(i) = u(i)
enddo
do j = 1, n
  w(j) = x(j)
enddo
)");
  CommPlan Plan = planFor(P);
  auto Counts = Plan.staticCounts();
  EXPECT_EQ(Counts[CommOpKind::ReadSend], 0u);
  EXPECT_EQ(Counts[CommOpKind::WriteSend], 1u);
}

TEST(Reduction, MixedDefinitionKindsFallBackToPlainWrites) {
  Pipeline P = Pipeline::fromSource(R"(
distribute x
array u
do i = 1, n
  x(5) = x(5) + u(i)
enddo
x(5) = 0
)");
  CommPlan Plan = planFor(P);
  std::string Out = Plan.annotate(P.Prog);
  // An item with both reduction and plain definitions cannot be combined
  // at the owner: rendered as plain writes.
  EXPECT_EQ(Out.find("Write_Send[+]"), std::string::npos);
  EXPECT_NE(Out.find("Write_Send{x(5)}"), std::string::npos);
}

TEST(Reduction, ReductionSelfReferenceOtherOperandsStillRead) {
  // Only the self-reference is exempt; other distributed operands of the
  // reduction still need READs.
  Pipeline P = Pipeline::fromSource(R"(
distribute x, y
array u
do i = 1, n
  x(5) = x(5) + y(i)
enddo
)");
  CommPlan Plan = planFor(P);
  auto Counts = Plan.staticCounts();
  EXPECT_EQ(Counts[CommOpKind::ReadSend], 1u); // y(1:n).
  std::string Out = Plan.annotate(P.Prog);
  EXPECT_NE(Out.find("Read_Send{y(1:n)}"), std::string::npos);
}

TEST(Reduction, AtomicReductionWrite) {
  Pipeline P = Pipeline::fromSource(R"(
distribute x
array c, u
do i = 1, n
  x(c(i)) = x(c(i)) + u(i)
enddo
)");
  CommOptions Opts;
  Opts.Atomic = true;
  CommPlan Plan = planFor(P, Opts);
  std::string Out = Plan.annotate(P.Prog);
  EXPECT_NE(Out.find("Write[+]{x(c(1:n))}"), std::string::npos);
}
