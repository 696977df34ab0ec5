//===- tests/ParserTest.cpp - Lexer/parser/printer tests --------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "ir/AstPrinter.h"

#include <gtest/gtest.h>

using namespace gnt;

namespace {

/// The paper's Figure 11 program (with concrete statements where the
/// paper elides them).
const char *Fig11 = R"(
distribute x, y
array a, b, w, z
do i = 1, n
  y(a(i)) = 0
  if (test(i)) goto 77
enddo
do j = 1, n
  w(j) = 0
enddo
77 do k = 1, n
  z(k) = x(k + 10) + y(b(k))
enddo
)";

} // namespace

TEST(Parser, Fig11Parses) {
  ParseResult R = parseProgram(Fig11);
  ASSERT_TRUE(R.success()) << (R.Errors.empty() ? "" : R.Errors.front());
  ASSERT_EQ(R.Prog.getBody().size(), 3u);
  EXPECT_TRUE(R.Prog.isDistributed("x"));
  EXPECT_TRUE(R.Prog.isDistributed("y"));
  EXPECT_FALSE(R.Prog.isDistributed("a"));
  EXPECT_FALSE(R.Prog.isDistributed("test"));

  const auto *Loop1 = dyn_cast<DoStmt>(R.Prog.getBody()[0].get());
  ASSERT_NE(Loop1, nullptr);
  EXPECT_EQ(Loop1->getIndexVar(), "i");
  ASSERT_EQ(Loop1->getBody().size(), 2u);

  const auto *Loop3 = dyn_cast<DoStmt>(R.Prog.getBody()[2].get());
  ASSERT_NE(Loop3, nullptr);
  EXPECT_EQ(Loop3->getLabel(), 77u);
}

TEST(Parser, IndirectReferencesResolveToArrayRefs) {
  ParseResult R = parseProgram(Fig11);
  ASSERT_TRUE(R.success());

  // y(a(i)) on an assignment LHS: both y and a must be ArrayRefExpr.
  const auto *Loop1 = cast<DoStmt>(R.Prog.getBody()[0].get());
  const auto *A = cast<AssignStmt>(Loop1->getBody()[0].get());
  const auto *LHS = dyn_cast<ArrayRefExpr>(A->getLHS());
  ASSERT_NE(LHS, nullptr);
  EXPECT_EQ(LHS->getArray(), "y");
  const auto *Sub = dyn_cast<ArrayRefExpr>(LHS->getSubscript());
  ASSERT_NE(Sub, nullptr);
  EXPECT_EQ(Sub->getArray(), "a");

  // test(i) stays a CallExpr (undeclared name).
  const auto *If = cast<IfStmt>(Loop1->getBody()[1].get());
  EXPECT_EQ(If->getCond()->getKind(), Expr::Kind::Call);

  // x(k+10) and y(b(k)) in the k-loop RHS are array references.
  const auto *Loop3 = cast<DoStmt>(R.Prog.getBody()[2].get());
  const auto *KAssign = cast<AssignStmt>(Loop3->getBody()[0].get());
  const auto *RHS = dyn_cast<BinaryExpr>(KAssign->getRHS());
  ASSERT_NE(RHS, nullptr);
  EXPECT_EQ(RHS->getLHS()->getKind(), Expr::Kind::ArrayRef);
  EXPECT_EQ(RHS->getRHS()->getKind(), Expr::Kind::ArrayRef);
}

TEST(Parser, PrintRoundTrip) {
  ParseResult R = parseProgram(Fig11);
  ASSERT_TRUE(R.success());
  std::string Printed = AstPrinter().print(R.Prog);
  // Re-parsing the printed form must give the same printed form again.
  ParseResult R2 = parseProgram(Printed);
  ASSERT_TRUE(R2.success()) << (R2.Errors.empty() ? "" : R2.Errors.front());
  EXPECT_EQ(Printed, AstPrinter().print(R2.Prog));
  // Structure survived.
  EXPECT_NE(Printed.find("if (test(i)) goto 77"), std::string::npos);
  EXPECT_NE(Printed.find("77 do k = 1, n"), std::string::npos);
  EXPECT_NE(Printed.find("x(k + 10) + y(b(k))"), std::string::npos);
}

TEST(Parser, IfThenElse) {
  ParseResult R = parseProgram(R"(
array u
if (n > 0) then
  u(1) = 1
else
  u(2) = 2
endif
)");
  ASSERT_TRUE(R.success());
  const auto *If = dyn_cast<IfStmt>(R.Prog.getBody()[0].get());
  ASSERT_NE(If, nullptr);
  EXPECT_TRUE(If->hasElse());
  EXPECT_EQ(If->getThen().size(), 1u);
  EXPECT_EQ(If->getElse().size(), 1u);
  const auto *Cond = dyn_cast<BinaryExpr>(If->getCond());
  ASSERT_NE(Cond, nullptr);
  EXPECT_EQ(Cond->getOp(), BinaryExpr::Op::Gt);
}

TEST(Parser, OperatorsAndPrecedence) {
  ParseResult R = parseProgram("v = 1 + 2 * 3 - (4 + 5) / 3\n");
  ASSERT_TRUE(R.success());
  const auto *A = cast<AssignStmt>(R.Prog.getBody()[0].get());
  EXPECT_EQ(AstPrinter::printExpr(A->getRHS()), "1 + 2 * 3 - (4 + 5) / 3");
}

TEST(Parser, NotEqualOperator) {
  ParseResult R = parseProgram("if (i /= j) then\nv = 1\nendif\n");
  ASSERT_TRUE(R.success());
  const auto *If = cast<IfStmt>(R.Prog.getBody()[0].get());
  EXPECT_EQ(cast<BinaryExpr>(If->getCond())->getOp(), BinaryExpr::Op::Ne);
}

TEST(Parser, CommentsAndBlankLines) {
  ParseResult R = parseProgram(R"(
! leading comment
v = 1   ! trailing comment

! comment between statements

w = 2
)");
  ASSERT_TRUE(R.success());
  EXPECT_EQ(R.Prog.getBody().size(), 2u);
}

TEST(Parser, ErrorRecovery) {
  ParseResult R = parseProgram(R"(
v =
w = 2
)");
  EXPECT_FALSE(R.success());
  ASSERT_FALSE(R.Errors.empty());
  EXPECT_NE(R.Errors.front().find("line 2"), std::string::npos);
  // The parser recovered and still saw the next statement.
  EXPECT_EQ(R.Prog.getBody().size(), 1u);
}

TEST(Parser, MissingEnddo) {
  ParseResult R = parseProgram("do i = 1, n\nv = 1\n");
  EXPECT_FALSE(R.success());
}

TEST(Parser, UnexpectedCharacter) {
  ParseResult R = parseProgram("v = 1 @ 2\n");
  EXPECT_FALSE(R.success());
}

TEST(Parser, LhsSubscriptDeclaresArray) {
  // q is undeclared but subscripted on an LHS, so q(i) elsewhere is an
  // array reference, not a call.
  ParseResult R = parseProgram("do i = 1, n\nq(i) = 1\nv = q(i)\nenddo\n");
  ASSERT_TRUE(R.success());
  const auto *Loop = cast<DoStmt>(R.Prog.getBody()[0].get());
  const auto *Use = cast<AssignStmt>(Loop->getBody()[1].get());
  EXPECT_EQ(Use->getRHS()->getKind(), Expr::Kind::ArrayRef);
}

namespace {

/// \p Depth nested `do` loops around one assignment.
std::string doNest(unsigned Depth, const std::string &Body = "v = 1") {
  std::string S;
  for (unsigned I = 0; I != Depth; ++I)
    S += "do i = 1, n\n";
  S += Body + "\n";
  for (unsigned I = 0; I != Depth; ++I)
    S += "enddo\n";
  return S;
}

/// \p Depth nested `if` blocks around one assignment.
std::string ifNest(unsigned Depth) {
  std::string S;
  for (unsigned I = 0; I != Depth; ++I)
    S += "if (n > 0) then\n";
  S += "v = 1\n";
  for (unsigned I = 0; I != Depth; ++I)
    S += "endif\n";
  return S;
}

std::string parens(unsigned Depth) {
  return "v = " + std::string(Depth, '(') + "1" + std::string(Depth, ')') +
         "\n";
}

std::string negations(unsigned Depth) {
  return "v = " + std::string(Depth, '-') + "1\n";
}

/// `1+1+...` with \p Ops operators.
std::string sumChain(unsigned Ops) {
  std::string S = "1";
  for (unsigned I = 0; I != Ops; ++I)
    S += "+1";
  return S;
}

/// The parse fails with exactly one error, the nesting bound's.
void expectTooDeep(const std::string &Source, const char *Shape) {
  ParseResult R = parseProgram(Source);
  ASSERT_EQ(R.Errors.size(), 1u) << Shape;
  EXPECT_NE(R.Errors.front().find("nesting deeper than " +
                                  std::to_string(MaxNestingDepth)),
            std::string::npos)
      << Shape << ": " << R.Errors.front();
}

} // namespace

TEST(Parser, NestingDepthIsBounded) {
  // Inputs whose recursive parse or AST walks once exhausted the stack.
  expectTooDeep(doNest(12000), "do nest");
  expectTooDeep(ifNest(20000), "if nest");
  expectTooDeep(parens(200000), "parentheses");
  expectTooDeep(negations(200000), "unary minus");
  expectTooDeep("x(1) = " + sumChain(149999) + "\n", "+ chain");

  // One level past the bound, in each shape.
  const unsigned Max = MaxNestingDepth;
  expectTooDeep(doNest(Max + 1), "do nest");
  expectTooDeep(ifNest(Max + 1), "if nest");
  expectTooDeep(parens(Max + 1), "parentheses");
  expectTooDeep(negations(Max + 1), "unary minus");
  expectTooDeep("v = " + sumChain(Max + 1) + "\n", "+ chain");
  // Statement nesting and expression nesting share the bound.
  expectTooDeep(doNest(200, "v = " + sumChain(Max - 199)),
                "chain in a loop nest");
  expectTooDeep(doNest(Max, "x(1) = 1"), "subscript");

  // Exactly at the bound, each shape parses.
  for (const std::string &Source :
       {doNest(Max), ifNest(Max), parens(Max), negations(Max),
        "x(1) = " + sumChain(Max) + "\n",
        doNest(200, "v = " + sumChain(Max - 200)),
        doNest(Max - 1, "x(1) = 1")}) {
    ParseResult R = parseProgram(Source);
    EXPECT_TRUE(R.success()) << Source.substr(0, 40) << ": "
                             << (R.Errors.empty() ? "" : R.Errors.front());
  }
}
