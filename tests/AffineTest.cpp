//===- tests/AffineTest.cpp - Affine expression and section tests -----------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Affine.h"
#include "ir/AstBuilder.h"

#include <gtest/gtest.h>

#include <limits>
#include <random>

using namespace gnt;
using namespace gnt::build;

TEST(Affine, Constants) {
  AffineExpr C = AffineExpr::constant(42);
  EXPECT_TRUE(C.isAffine());
  EXPECT_TRUE(C.isConstant());
  EXPECT_EQ(C.getConstant(), 42);
  EXPECT_EQ(C.toString(), "42");
}

TEST(Affine, SymbolsAndArithmetic) {
  AffineExpr I = AffineExpr::symbol("i");
  AffineExpr N = AffineExpr::symbol("n");
  AffineExpr E = I + N + AffineExpr::constant(5);
  EXPECT_EQ(E.coeffOf("i"), 1);
  EXPECT_EQ(E.coeffOf("n"), 1);
  EXPECT_EQ(E.getConstTerm(), 5);
  EXPECT_EQ(E.toString(), "i+n+5");

  AffineExpr D = E - I;
  EXPECT_EQ(D.coeffOf("i"), 0);
  EXPECT_FALSE(D.usesSymbol("i"));
  EXPECT_EQ(D.toString(), "n+5");

  AffineExpr M = I * AffineExpr::constant(3);
  EXPECT_EQ(M.coeffOf("i"), 3);
  EXPECT_EQ(M.toString(), "3*i");

  AffineExpr Neg = M.negate();
  EXPECT_EQ(Neg.coeffOf("i"), -3);
  EXPECT_EQ(Neg.toString(), "-3*i");

  EXPECT_EQ(I.negate().toString(), "-i");
  EXPECT_EQ((N - I).toString(), "-i+n");
  EXPECT_EQ((I * AffineExpr::constant(2) - AffineExpr::constant(1)).toString(),
            "2*i-1");
  EXPECT_EQ((N - AffineExpr::constant(5)).toString(), "n-5");
  AffineExpr Zero = I - I;
  EXPECT_TRUE(Zero.isConstant());
  EXPECT_TRUE(Zero.getTerms().empty());
  EXPECT_EQ(Zero.toString(), "0");
}

TEST(Affine, OverflowIsNonAffine) {
  const long long Max = std::numeric_limits<long long>::max();
  const long long Min = std::numeric_limits<long long>::min();
  AffineExpr I = AffineExpr::symbol("i");
  AffineExpr Big = AffineExpr::constant(4000000000LL);
  AffineExpr MaxC = AffineExpr::constant(Max);
  // x(4000000000 * 4000000000 * i) and x(MAX + i + MAX).
  EXPECT_FALSE((Big * Big * I).isAffine());
  EXPECT_FALSE((MaxC + I + MaxC).isAffine());
  EXPECT_FALSE((AffineExpr::constant(Min) - I - AffineExpr::constant(1))
                   .isAffine());
  EXPECT_FALSE((AffineExpr::constant(Min) * I).negate().isAffine());
  EXPECT_FALSE(AffineExpr::constant(Min).negate().isAffine());
  EXPECT_FALSE((I * MaxC).substitute("i", AffineExpr::constant(2)).isAffine());
  EXPECT_FALSE(AffineExpr::constant(Max).differenceFrom(
                   AffineExpr::constant(-1)).has_value());
  // Results that fit stay exact, and LLONG_MIN renders its magnitude.
  AffineExpr MinI = AffineExpr::constant(Min) * I;
  EXPECT_EQ(MinI.coeffOf("i"), Min);
  EXPECT_EQ(MinI.toString(), "-9223372036854775808*i");
  EXPECT_EQ((AffineExpr::symbol("a") + MinI).toString(),
            "a-9223372036854775808*i");
  EXPECT_EQ((I + AffineExpr::constant(Min)).toString(),
            "i-9223372036854775808");
  EXPECT_EQ(AffineExpr::constant(Min).differenceFrom(AffineExpr::constant(0)),
            Min);
}

TEST(Affine, NonAffineProducts) {
  AffineExpr I = AffineExpr::symbol("i");
  AffineExpr N = AffineExpr::symbol("n");
  EXPECT_FALSE((I * N).isAffine());
  EXPECT_FALSE((AffineExpr() + I).isAffine());
}

TEST(Affine, FromExpr) {
  // k + 10
  ExprPtr E = add(var("k"), lit(10));
  AffineExpr A = AffineExpr::fromExpr(E.get());
  EXPECT_TRUE(A.isAffine());
  EXPECT_EQ(A.coeffOf("k"), 1);
  EXPECT_EQ(A.getConstTerm(), 10);

  // 2*i - 1
  ExprPtr E2 = sub(bin(BinaryExpr::Op::Mul, lit(2), var("i")), lit(1));
  AffineExpr A2 = AffineExpr::fromExpr(E2.get());
  EXPECT_EQ(A2.coeffOf("i"), 2);
  EXPECT_EQ(A2.getConstTerm(), -1);

  // Indirect subscripts are not affine.
  ExprPtr E3 = aref("a", var("k"));
  EXPECT_FALSE(AffineExpr::fromExpr(E3.get()).isAffine());

  // Calls are not affine.
  std::vector<ExprPtr> Args;
  Args.push_back(var("i"));
  ExprPtr E4 = call("test", std::move(Args));
  EXPECT_FALSE(AffineExpr::fromExpr(E4.get()).isAffine());
}

TEST(Affine, Substitute) {
  // i + 10 with i := [lo = 1] gives 11.
  AffineExpr E = AffineExpr::symbol("i") + AffineExpr::constant(10);
  AffineExpr S = E.substitute("i", AffineExpr::constant(1));
  EXPECT_TRUE(S.isConstant());
  EXPECT_EQ(S.getConstant(), 11);

  // 2*i + n with i := n + 1 gives 3n + 2.
  AffineExpr E2 = AffineExpr::symbol("i") * AffineExpr::constant(2) +
                  AffineExpr::symbol("n");
  AffineExpr S2 =
      E2.substitute("i", AffineExpr::symbol("n") + AffineExpr::constant(1));
  EXPECT_EQ(S2.coeffOf("n"), 3);
  EXPECT_EQ(S2.getConstTerm(), 2);
}

TEST(Affine, DifferenceFrom) {
  AffineExpr N5 = AffineExpr::symbol("n") + AffineExpr::constant(5);
  AffineExpr N2 = AffineExpr::symbol("n") + AffineExpr::constant(2);
  auto D = N5.differenceFrom(N2);
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(*D, 3);

  AffineExpr M = AffineExpr::symbol("m");
  EXPECT_FALSE(N5.differenceFrom(M).has_value());

  // Property: differenceFrom answers exactly as (A - B) does. Operands
  // draw terms from a small symbol pool, so terms are shared (with equal
  // or different coefficients) or one-sided; B is often A shifted by a
  // constant or with one term changed, and either side may be
  // non-affine.
  std::mt19937 Rng(1009);
  const char *const Syms[] = {"i", "j", "n", "m"};
  auto coeff = [&] { return static_cast<long long>(Rng() % 7) - 3; };
  auto randomExpr = [&] {
    if (Rng() % 12 == 0)
      return AffineExpr();
    AffineExpr E =
        AffineExpr::constant(static_cast<long long>(Rng() % 41) - 20);
    for (const char *S : Syms)
      if (Rng() % 2)
        E = E + AffineExpr::symbol(S) * AffineExpr::constant(coeff());
    return E;
  };
  unsigned Constant = 0, Symbolic = 0, NonAffine = 0;
  for (unsigned Trial = 0; Trial != 20000; ++Trial) {
    AffineExpr A = randomExpr(), B;
    switch (Rng() % 4) {
    case 0:
      B = randomExpr();
      break;
    case 1:
      B = A + AffineExpr::constant(coeff());
      break;
    case 2:
      B = A + AffineExpr::symbol(Syms[Rng() % 4]) *
                  AffineExpr::constant(coeff());
      break;
    case 3:
      B = A.substitute(Syms[Rng() % 4], randomExpr());
      break;
    }
    AffineExpr Diff = A - B;
    std::optional<long long> D = A.differenceFrom(B);
    ASSERT_EQ(D.has_value(), Diff.isConstant())
        << A.toString() << " vs " << B.toString();
    if (D) {
      ASSERT_EQ(*D, Diff.getConstant())
          << A.toString() << " vs " << B.toString();
    }
    Constant += D.has_value();
    NonAffine += !A.isAffine() || !B.isAffine();
    Symbolic += !D && A.isAffine() && B.isAffine();
  }
  EXPECT_GT(Constant, 2000u);
  EXPECT_GT(Symbolic, 2000u);
  EXPECT_GT(NonAffine, 1000u);
}

TEST(Section, Printing) {
  AffineExpr N = AffineExpr::symbol("n");
  Section S(AffineExpr::constant(1), N);
  EXPECT_EQ(S.toString(), "(1:n)");
  Section El = Section::element(AffineExpr::constant(7));
  EXPECT_EQ(El.toString(), "(7)");
  Section Str(AffineExpr::constant(1), N, 2);
  EXPECT_EQ(Str.toString(), "(1:n:2)");
  EXPECT_EQ(Section::unknown().toString(), "(?)");
  // A one-element section prints no stride.
  Section One(AffineExpr::constant(2), AffineExpr::constant(2), 2);
  EXPECT_EQ(One.toString(), "(2)");
}

TEST(Section, EmptyAndOverlap) {
  AffineExpr N = AffineExpr::symbol("n");
  Section Empty(AffineExpr::constant(5), AffineExpr::constant(1));
  EXPECT_TRUE(Empty.isProvablyEmpty());

  // (1:n) and (n+1:2n) are provably disjoint: lo2 - hi1 = 1 > 0.
  Section A(AffineExpr::constant(1), N);
  Section B(N + AffineExpr::constant(1), N + N);
  EXPECT_FALSE(A.mayOverlap(B));
  EXPECT_FALSE(B.mayOverlap(A));

  // (1:n) and (6:n+5) may overlap (they do for n >= 6).
  Section C(AffineExpr::constant(6), N + AffineExpr::constant(5));
  EXPECT_TRUE(A.mayOverlap(C));

  // (1:n) vs (m:m) is unknown-relative: must assume overlap.
  Section D = Section::element(AffineExpr::symbol("m"));
  EXPECT_TRUE(A.mayOverlap(D));

  // Unknown sections overlap everything.
  EXPECT_TRUE(Section::unknown().mayOverlap(A));
  EXPECT_TRUE(A.mayOverlap(Section::unknown()));

  // Interleaved strides never touch: (1:n:2) vs (2:n:2).
  Section Odd(AffineExpr::constant(1), N, 2);
  Section Even(AffineExpr::constant(2), N, 2);
  EXPECT_FALSE(Odd.mayOverlap(Even));
  EXPECT_TRUE(Odd.mayOverlap(Odd));

  // Empty sections overlap nothing.
  EXPECT_FALSE(Empty.mayOverlap(A));
}
