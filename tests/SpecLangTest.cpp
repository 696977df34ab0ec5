//===- tests/SpecLangTest.cpp - Analysis-spec language tests ----------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Unit tests for the declarative analysis-spec language: parsing,
/// the set-expression evaluator, and — one test per rule — the spec
/// linter's structured rejection of every documented malformed-spec
/// class.
///
//===----------------------------------------------------------------------===//

#include "analysis/SpecLang.h"

#include <gtest/gtest.h>

using namespace gnt;

namespace {

/// True when some CheckId::Spec error message mentions \p Rule (the
/// stable rule identifier the message starts with, after the optional
/// "line N: " prefix).
bool hasRule(const DiagnosticSet &Diags, const std::string &Rule) {
  for (const Diagnostic &D : Diags.all())
    if (D.Severity == DiagSeverity::Error && D.Check == CheckId::Spec &&
        D.Message.find(Rule + ":") != std::string::npos)
      return true;
  return false;
}

/// Parses + lints, expecting rejection by exactly the given rule.
void expectRejected(const std::string &Text, const std::string &Rule) {
  SpecParseResult R = parseAndLintAnalysisSpec(Text);
  EXPECT_FALSE(R.ok()) << "spec unexpectedly accepted:\n" << Text;
  EXPECT_TRUE(hasRule(R.Diags, Rule))
      << "no `" << Rule << "` diagnostic in:\n"
      << R.Diags.renderText();
}

BitVector bits(unsigned U, std::initializer_list<unsigned> Set) {
  BitVector V(U);
  for (unsigned B : Set)
    V.set(B);
  return V;
}

} // namespace

TEST(SpecLang, BuiltinLivenessFieldsRoundTrip) {
  const char *Text = builtinAnalysisSpecText("liveness");
  ASSERT_NE(Text, nullptr);
  SpecParseResult R = parseAndLintAnalysisSpec(Text);
  ASSERT_TRUE(R.ok()) << R.Diags.renderText();
  EXPECT_EQ(R.Spec->Name, "liveness");
  EXPECT_EQ(R.Spec->Universe, SpecUniverse::Items);
  EXPECT_EQ(R.Spec->Direction, FlowDirection::Backward);
  EXPECT_EQ(R.Spec->Meet, Confluence::Any);
  EXPECT_EQ(R.Spec->Start, AnalysisSpec::StartAnchor::Exit);
  EXPECT_TRUE(R.Spec->BoundarySet);
  EXPECT_FALSE(R.Spec->BoundaryAll);
  EXPECT_FALSE(R.Spec->IncludeSyntheticEdges);
  ASSERT_TRUE(R.Spec->GenExpr && R.Spec->KillExpr);
  EXPECT_FALSE(R.Spec->Transfer);
}

TEST(SpecLang, ExpressionPrecedenceAndParens) {
  // `take | give & steal` parses as take | (give & steal): & binds
  // tighter. With take={0}, give={1}, steal={1,2} the result is {0,1};
  // the parenthesized (take | give) & steal is {1}.
  BitVector In(3), Take = bits(3, {0}), Give = bits(3, {1}),
            Steal = bits(3, {1, 2});
  SpecParseResult Flat = parseAndLintAnalysisSpec(
      "universe items\ntransfer out = take | give & steal\n");
  ASSERT_TRUE(Flat.ok()) << Flat.Diags.renderText();
  EXPECT_EQ(evalSetExpr(*Flat.Spec->Transfer, 3, In, Take, Give, Steal),
            bits(3, {0, 1}));

  SpecParseResult Paren = parseAndLintAnalysisSpec(
      "universe items\ntransfer out = (take | give) & steal\n");
  ASSERT_TRUE(Paren.ok()) << Paren.Diags.renderText();
  EXPECT_EQ(evalSetExpr(*Paren.Spec->Transfer, 3, In, Take, Give, Steal),
            bits(3, {1}));

  // Difference and complement: (all - steal) == ~steal.
  SpecParseResult Diff = parseAndLintAnalysisSpec(
      "universe items\ntransfer out = all - steal\n");
  ASSERT_TRUE(Diff.ok()) << Diff.Diags.renderText();
  EXPECT_EQ(evalSetExpr(*Diff.Spec->Transfer, 3, In, Take, Give, Steal),
            bits(3, {0}));
}

TEST(SpecLang, RejectsUnknownUniverse) {
  expectRejected("universe galaxies\ngen take\n", "unknown-universe");
}

TEST(SpecLang, RejectsUnknownKey) {
  expectRejected("universe items\nflux capacitor\ngen take\n", "unknown-key");
}

TEST(SpecLang, RejectsDuplicateKey) {
  expectRejected("universe items\nuniverse exprs\ngen take\n",
                 "duplicate-key");
  // Transfer + sugar is the same rule: two ways to state one function.
  expectRejected("universe items\ngen take\ntransfer out = in\n",
                 "duplicate-key");
}

TEST(SpecLang, RejectsBadValue) {
  expectRejected("universe items\ndirection sideways\ngen take\n",
                 "bad-value");
  expectRejected("universe items\nconfluence some\ngen take\n", "bad-value");
  expectRejected("universe items\nboundary most\ngen take\n", "bad-value");
}

TEST(SpecLang, RejectsTransferSyntax) {
  expectRejected("universe items\ntransfer out = take |\n",
                 "transfer-syntax");
  expectRejected("universe items\ntransfer out = (take\n", "transfer-syntax");
  expectRejected("universe items\ntransfer out = blorp\n", "transfer-syntax");
  expectRejected("universe items\ntransfer in = take\n", "transfer-syntax");
  // Nesting past MaxSpecExprDepth, which once exhausted the stack.
  std::string Chain = "in";
  for (unsigned I = 0; I != 99999; ++I)
    Chain += "|in";
  for (const std::string &Deep :
       {std::string(200000, '~') + "in",
        std::string(200000, '(') + "in" + std::string(200000, ')'), Chain})
    expectRejected("universe items\ntransfer out = " + Deep + "\n",
                   "transfer-syntax");
}

TEST(SpecLang, NestingAtTheBoundParses) {
  const unsigned Max = MaxSpecExprDepth;
  std::string Chain = "in";
  for (unsigned I = 0; I != Max; ++I)
    Chain += "|in";
  for (const std::string &Expr :
       {std::string(Max, '~') + "in",
        std::string(Max, '(') + "in" + std::string(Max, ')'), Chain}) {
    SpecParseResult R =
        parseAndLintAnalysisSpec("universe items\ntransfer out = " + Expr);
    EXPECT_TRUE(R.ok()) << R.Diags.renderText();
    R = parseAndLintAnalysisSpec("universe items\ntransfer out = (" + Expr +
                                 ")");
    EXPECT_TRUE(hasRule(R.Diags, "transfer-syntax")) << R.Diags.renderText();
  }
}

TEST(SpecLang, RejectsInInsideGenKillSugar) {
  expectRejected("universe items\ngen in | take\n", "transfer-syntax");
  expectRejected("universe items\ngen take\nkill in\n", "transfer-syntax");
}

TEST(SpecLang, RejectsMissingTransfer) {
  expectRejected("universe items\ndirection forward\n", "missing-transfer");
}

TEST(SpecLang, RejectsNonMonotoneTransfer) {
  // ~in drops a fact because it arrived: the canonical violation. The
  // witness names a concrete corner.
  SpecParseResult R =
      parseAndLintAnalysisSpec("universe items\ntransfer out = ~in\n");
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(hasRule(R.Diags, "non-monotone")) << R.Diags.renderText();
  bool Witness = false;
  for (const Diagnostic &D : R.Diags.all())
    Witness |= D.Message.find("take=") != std::string::npos;
  EXPECT_TRUE(Witness) << "non-monotone diagnostic carries no witness corner";

  // A conditional drop is still a drop: in - (in & take) is fine
  // lane-wise, but (take - in) maps in=0 above in=1 when take=1.
  expectRejected("universe items\ntransfer out = take - in\n",
                 "non-monotone");
}

TEST(SpecLang, RejectsAllConfluenceWithoutBoundary) {
  expectRejected("universe items\nconfluence all\ngen give\n",
                 "all-confluence-no-boundary");
  // Stating the boundary — either value — satisfies the rule.
  SpecParseResult R = parseAndLintAnalysisSpec(
      "universe items\nconfluence all\nboundary empty\ngen give\n");
  EXPECT_TRUE(R.ok()) << R.Diags.renderText();
}

TEST(SpecLang, RejectsStartDirectionMismatch) {
  expectRejected(
      "universe items\ndirection backward\nstart entry\ngen take\n",
      "start-direction-mismatch");
  expectRejected(
      "universe items\ndirection forward\nstart exit\ngen give\n",
      "start-direction-mismatch");
}

TEST(SpecLang, DiagnosticsCarryLineNumbersAndFixHints) {
  SpecParseResult R = parseAndLintAnalysisSpec(
      "direction forward\nuniverse galaxies\ngen take\n");
  ASSERT_FALSE(R.ok());
  bool LineAndHint = false;
  for (const Diagnostic &D : R.Diags.all())
    LineAndHint |= D.Message.rfind("line 2:", 0) == 0 && !D.FixHint.empty();
  EXPECT_TRUE(LineAndHint) << R.Diags.renderText();
}

TEST(SpecLang, CommentsAndBlankLinesAreIgnored) {
  SpecParseResult R = parseAndLintAnalysisSpec(
      "# a liveness-flavoured spec\n\n"
      "universe items   # the comm universe\n"
      "direction backward\n\n"
      "gen take\n");
  EXPECT_TRUE(R.ok()) << R.Diags.renderText();
}

TEST(SpecLang, EveryBuiltinParsesAndLintsClean) {
  const auto &Builtins = builtinAnalysisSpecs();
  ASSERT_EQ(Builtins.size(), 4u);
  EXPECT_EQ(Builtins[0].first, "liveness");
  EXPECT_EQ(Builtins[1].first, "availability");
  EXPECT_EQ(Builtins[2].first, "very-busy");
  EXPECT_EQ(Builtins[3].first, "reaching");
  for (const auto &[Name, Text] : Builtins) {
    SpecParseResult R = parseAndLintAnalysisSpec(Text);
    EXPECT_TRUE(R.ok()) << Name << ":\n" << R.Diags.renderText();
    EXPECT_EQ(R.Spec->Name, Name);
    EXPECT_NE(builtinAnalysisSpecText(Name), nullptr);
  }
  EXPECT_EQ(builtinAnalysisSpecText("no-such-analysis"), nullptr);
}
