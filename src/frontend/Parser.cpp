//===- frontend/Parser.cpp - FMini recursive descent parser ----------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include "frontend/Lexer.h"
#include "support/Support.h"

#include <algorithm>
#include <cstddef>
#include <set>

using namespace gnt;

namespace {

class Parser {
public:
  Parser(std::vector<Token> Toks, ParseResult &Result)
      : Toks(std::move(Toks)), Result(Result) {}

  void run() {
    Result.Prog.getBody() = parseLines(/*Terminators=*/{});
    expect(Token::Kind::Eof, "end of input");
    resolveArrays();
  }

private:
  const Token &cur() const { return Toks[Pos]; }
  const Token &peek(unsigned N = 1) const {
    return Toks[std::min(Pos + N, Toks.size() - 1)];
  }
  bool at(Token::Kind K) const { return cur().TheKind == K; }

  void advance() {
    if (!at(Token::Kind::Eof))
      ++Pos;
  }

  void error(const std::string &Msg) {
    if (TooDeep)
      return; // The depth error is the only one reported.
    Result.Errors.push_back("line " + itostr(cur().Loc.Line) + ": " + Msg);
  }

  /// Reports input nested past MaxNestingDepth and abandons the parse:
  /// the cursor jumps to end of input, so every open construct unwinds
  /// without reading further, and later errors are suppressed.
  std::nullptr_t tooDeep() {
    error("nesting deeper than " + itostr(MaxNestingDepth) + " levels");
    TooDeep = true;
    Pos = Toks.size() - 1;
    return nullptr;
  }

  /// Nesting levels left for the expressions of a statement at the
  /// current body depth.
  unsigned exprBudget() const { return MaxNestingDepth - Depth; }

  bool expect(Token::Kind K, const char *What) {
    if (at(K)) {
      advance();
      return true;
    }
    error(std::string("expected ") + What);
    // Recover: skip to end of line.
    while (!at(Token::Kind::Newline) && !at(Token::Kind::Eof))
      advance();
    return false;
  }

  void expectNewline() {
    if (at(Token::Kind::Newline)) {
      advance();
      return;
    }
    if (at(Token::Kind::Eof))
      return;
    error("expected end of statement");
    while (!at(Token::Kind::Newline) && !at(Token::Kind::Eof))
      advance();
    if (at(Token::Kind::Newline))
      advance();
  }

  /// True if the current token starts one of \p Terminators.
  static bool isTerminator(Token::Kind K,
                           const std::set<Token::Kind> &Terminators) {
    return Terminators.count(K) != 0;
  }

  StmtList parseLines(const std::set<Token::Kind> &Terminators) {
    StmtList List;
    while (true) {
      while (at(Token::Kind::Newline))
        advance();
      if (at(Token::Kind::Eof) || isTerminator(cur().TheKind, Terminators))
        return List;

      unsigned Label = 0;
      if (at(Token::Kind::Number) && cur().AtLineStart) {
        Label = static_cast<unsigned>(cur().Value);
        advance();
      }

      if (at(Token::Kind::KwDistribute) || at(Token::Kind::KwArray)) {
        bool Distributed = at(Token::Kind::KwDistribute);
        advance();
        parseDecl(Distributed);
        expectNewline();
        continue;
      }

      StmtPtr S = parseStmt();
      if (!S) {
        // Error recovery: resynchronize at the next line.
        while (!at(Token::Kind::Newline) && !at(Token::Kind::Eof))
          advance();
        expectNewline();
        continue;
      }
      if (Label)
        S->setLabel(Label);
      List.push_back(std::move(S));
      expectNewline();
    }
  }

  /// Parses a do/if body, one nesting level below the current one.
  StmtList parseBody(const std::set<Token::Kind> &Terminators) {
    if (Depth == MaxNestingDepth) {
      tooDeep();
      return {};
    }
    ++Depth;
    StmtList Body = parseLines(Terminators);
    --Depth;
    return Body;
  }

  void parseDecl(bool Distributed) {
    while (true) {
      if (!at(Token::Kind::Ident)) {
        error("expected array name in declaration");
        return;
      }
      Result.Prog.declareArray(cur().Text, Distributed);
      advance();
      if (!at(Token::Kind::Comma))
        return;
      advance();
    }
  }

  StmtPtr parseStmt() {
    SourceLoc Loc = cur().Loc;
    switch (cur().TheKind) {
    case Token::Kind::KwDo:
      return parseDo(Loc);
    case Token::Kind::KwIf:
      return parseIf(Loc);
    case Token::Kind::KwGoto: {
      advance();
      if (!at(Token::Kind::Number)) {
        error("expected label after goto");
        return nullptr;
      }
      unsigned Target = static_cast<unsigned>(cur().Value);
      advance();
      return std::make_unique<GotoStmt>(Target, Loc);
    }
    case Token::Kind::KwContinue:
      advance();
      return std::make_unique<ContinueStmt>(Loc);
    case Token::Kind::Ident:
      return parseAssign(Loc);
    default:
      error("expected statement");
      return nullptr;
    }
  }

  StmtPtr parseDo(SourceLoc Loc) {
    advance(); // do
    if (!at(Token::Kind::Ident)) {
      error("expected loop index variable");
      return nullptr;
    }
    std::string Idx = cur().Text;
    advance();
    if (!expect(Token::Kind::Assign, "'='"))
      return nullptr;
    ExprPtr Lo = parseExpr(exprBudget());
    if (!expect(Token::Kind::Comma, "','"))
      return nullptr;
    ExprPtr Hi = parseExpr(exprBudget());
    expectNewline();
    StmtList Body = parseBody({Token::Kind::KwEnddo});
    expect(Token::Kind::KwEnddo, "'enddo'");
    if (!Lo || !Hi)
      return nullptr;
    return std::make_unique<DoStmt>(Idx, std::move(Lo), std::move(Hi),
                                    std::move(Body), Loc);
  }

  StmtPtr parseIf(SourceLoc Loc) {
    advance(); // if
    if (!expect(Token::Kind::LParen, "'('"))
      return nullptr;
    ExprPtr Cond = parseExpr(exprBudget());
    if (!expect(Token::Kind::RParen, "')'"))
      return nullptr;
    if (at(Token::Kind::KwGoto)) {
      advance();
      if (!at(Token::Kind::Number)) {
        error("expected label after goto");
        return nullptr;
      }
      unsigned Target = static_cast<unsigned>(cur().Value);
      advance();
      StmtList Then;
      Then.push_back(std::make_unique<GotoStmt>(Target, Loc));
      return std::make_unique<IfStmt>(std::move(Cond), std::move(Then),
                                      StmtList(), Loc);
    }
    if (!expect(Token::Kind::KwThen, "'then' or 'goto'"))
      return nullptr;
    expectNewline();
    StmtList Then = parseBody({Token::Kind::KwElse, Token::Kind::KwEndif});
    StmtList Else;
    if (at(Token::Kind::KwElse)) {
      advance();
      expectNewline();
      Else = parseBody({Token::Kind::KwEndif});
    }
    expect(Token::Kind::KwEndif, "'endif'");
    if (!Cond)
      return nullptr;
    return std::make_unique<IfStmt>(std::move(Cond), std::move(Then),
                                    std::move(Else), Loc);
  }

  StmtPtr parseAssign(SourceLoc Loc) {
    std::string Name = cur().Text;
    advance();
    ExprPtr LHS;
    if (at(Token::Kind::LParen)) {
      if (exprBudget() == 0)
        return tooDeep();
      advance();
      ExprPtr Sub = parseExpr(exprBudget() - 1);
      if (!expect(Token::Kind::RParen, "')'"))
        return nullptr;
      if (!Sub)
        return nullptr;
      LHS = std::make_unique<ArrayRefExpr>(Name, std::move(Sub), Loc);
      LhsArrays.insert(Name);
    } else {
      LHS = std::make_unique<VarExpr>(Name, Loc);
    }
    if (!expect(Token::Kind::Assign, "'='"))
      return nullptr;
    ExprPtr RHS = parseExpr(exprBudget());
    if (!RHS)
      return nullptr;
    return std::make_unique<AssignStmt>(std::move(LHS), std::move(RHS), Loc);
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //
  // Each routine may use \p Budget nesting levels and reports in
  // \p Height how many the expression it returns takes: 0 for a leaf,
  // one more than the highest operand for an operator or parenthesized
  // group. An operand is parsed with one level less than its operator.
  //===--------------------------------------------------------------------===//

  ExprPtr parseExpr(unsigned Budget) {
    unsigned Height = 0;
    return parseExpr(Budget, Height);
  }

  ExprPtr parseExpr(unsigned Budget, unsigned &Height) {
    return parseCompare(Budget, Height);
  }

  ExprPtr parseCompare(unsigned Budget, unsigned &Height) {
    ExprPtr L = parseAdditive(Budget, Height);
    if (!L)
      return nullptr;
    BinaryExpr::Op Op;
    switch (cur().TheKind) {
    case Token::Kind::Lt:
      Op = BinaryExpr::Op::Lt;
      break;
    case Token::Kind::Le:
      Op = BinaryExpr::Op::Le;
      break;
    case Token::Kind::Gt:
      Op = BinaryExpr::Op::Gt;
      break;
    case Token::Kind::Ge:
      Op = BinaryExpr::Op::Ge;
      break;
    case Token::Kind::EqEq:
      Op = BinaryExpr::Op::Eq;
      break;
    case Token::Kind::Ne:
      Op = BinaryExpr::Op::Ne;
      break;
    default:
      return L;
    }
    if (Height >= Budget)
      return tooDeep();
    SourceLoc Loc = cur().Loc;
    advance();
    unsigned RHeight = 0;
    ExprPtr R = parseAdditive(Budget - 1, RHeight);
    if (!R)
      return nullptr;
    Height = std::max(Height, RHeight) + 1;
    return std::make_unique<BinaryExpr>(Op, std::move(L), std::move(R), Loc);
  }

  ExprPtr parseAdditive(unsigned Budget, unsigned &Height) {
    ExprPtr L = parseMultiplicative(Budget, Height);
    while (L && (at(Token::Kind::Plus) || at(Token::Kind::Minus))) {
      // The chain so far becomes the left operand of a new node.
      if (Height >= Budget)
        return tooDeep();
      BinaryExpr::Op Op = at(Token::Kind::Plus) ? BinaryExpr::Op::Add
                                                : BinaryExpr::Op::Sub;
      SourceLoc Loc = cur().Loc;
      advance();
      unsigned RHeight = 0;
      ExprPtr R = parseMultiplicative(Budget - 1, RHeight);
      if (!R)
        return nullptr;
      Height = std::max(Height, RHeight) + 1;
      L = std::make_unique<BinaryExpr>(Op, std::move(L), std::move(R), Loc);
    }
    return L;
  }

  ExprPtr parseMultiplicative(unsigned Budget, unsigned &Height) {
    ExprPtr L = parseUnary(Budget, Height);
    while (L && (at(Token::Kind::Star) || at(Token::Kind::Slash))) {
      if (Height >= Budget)
        return tooDeep();
      BinaryExpr::Op Op = at(Token::Kind::Star) ? BinaryExpr::Op::Mul
                                                : BinaryExpr::Op::Div;
      SourceLoc Loc = cur().Loc;
      advance();
      unsigned RHeight = 0;
      ExprPtr R = parseUnary(Budget - 1, RHeight);
      if (!R)
        return nullptr;
      Height = std::max(Height, RHeight) + 1;
      L = std::make_unique<BinaryExpr>(Op, std::move(L), std::move(R), Loc);
    }
    return L;
  }

  ExprPtr parseUnary(unsigned Budget, unsigned &Height) {
    if (at(Token::Kind::Minus)) {
      if (Budget == 0)
        return tooDeep();
      SourceLoc Loc = cur().Loc;
      advance();
      ExprPtr Operand = parseUnary(Budget - 1, Height);
      if (!Operand)
        return nullptr;
      ++Height;
      return std::make_unique<UnaryExpr>(std::move(Operand), Loc);
    }
    return parsePrimary(Budget, Height);
  }

  ExprPtr parsePrimary(unsigned Budget, unsigned &Height) {
    SourceLoc Loc = cur().Loc;
    Height = 0;
    if (at(Token::Kind::Number)) {
      long long V = cur().Value;
      advance();
      return std::make_unique<IntLitExpr>(V, Loc);
    }
    if (at(Token::Kind::LParen)) {
      if (Budget == 0)
        return tooDeep();
      advance();
      ExprPtr E = parseExpr(Budget - 1, Height);
      if (!expect(Token::Kind::RParen, "')'"))
        return nullptr;
      ++Height;
      return E;
    }
    if (at(Token::Kind::Ident)) {
      std::string Name = cur().Text;
      advance();
      if (!at(Token::Kind::LParen))
        return std::make_unique<VarExpr>(Name, Loc);
      if (Budget == 0)
        return tooDeep();
      advance();
      std::vector<ExprPtr> Args;
      if (!at(Token::Kind::RParen)) {
        while (true) {
          unsigned ArgHeight = 0;
          ExprPtr A = parseExpr(Budget - 1, ArgHeight);
          if (!A)
            return nullptr;
          Height = std::max(Height, ArgHeight);
          Args.push_back(std::move(A));
          if (!at(Token::Kind::Comma))
            break;
          advance();
        }
      }
      if (!expect(Token::Kind::RParen, "')'"))
        return nullptr;
      ++Height;
      // One-argument applications of names are resolved to array
      // references or intrinsic calls after the whole program is seen;
      // record a call for now and rewrite in resolveArrays().
      return std::make_unique<CallExpr>(Name, std::move(Args), Loc);
    }
    error("expected expression");
    return nullptr;
  }

  //===--------------------------------------------------------------------===//
  // Post-pass: resolve name(expr) between array refs and calls.
  //===--------------------------------------------------------------------===//

  /// Rewrites CallExpr nodes whose callee is a declared array (or a name
  /// subscripted on some assignment LHS) into ArrayRefExpr nodes.
  void resolveArrays() {
    for (const std::string &Name : LhsArrays)
      Result.Prog.declareArray(Name, /*Distributed=*/false);
    rewriteStmts(Result.Prog.getBody());
  }

  bool isArrayName(const std::string &Name) const {
    return Result.Prog.getArrays().count(Name) != 0;
  }

  void rewriteExpr(ExprPtr &E) {
    if (!E)
      return;
    switch (E->getKind()) {
    case Expr::Kind::IntLit:
    case Expr::Kind::Var:
      return;
    case Expr::Kind::ArrayRef:
      rewriteExpr(static_cast<ArrayRefExpr *>(E.get())->getSubscriptPtr());
      return;
    case Expr::Kind::Unary:
      rewriteExpr(static_cast<UnaryExpr *>(E.get())->getOperandPtr());
      return;
    case Expr::Kind::Binary: {
      auto *B = static_cast<BinaryExpr *>(E.get());
      rewriteExpr(B->getLHSPtr());
      rewriteExpr(B->getRHSPtr());
      return;
    }
    case Expr::Kind::Call: {
      auto *C = static_cast<CallExpr *>(E.get());
      for (ExprPtr &A : C->getArgsRef())
        rewriteExpr(A);
      if (!isArrayName(C->getCallee()))
        return;
      // A declared array used with a subscript list: FMini arrays are
      // one-dimensional; anything else must be rejected rather than
      // silently treated as an opaque call (which would drop the
      // reference from the communication analysis).
      if (C->getArgsRef().size() != 1) {
        error("line " + itostr(E->getLoc().Line) + ": array '" +
              C->getCallee() + "' used with " +
              itostr(static_cast<long long>(C->getArgsRef().size())) +
              " subscripts; FMini arrays are one-dimensional");
        return;
      }
      E = std::make_unique<ArrayRefExpr>(C->getCallee(),
                                         std::move(C->getArgsRef().front()),
                                         E->getLoc());
      return;
    }
    }
  }

  void rewriteStmts(StmtList &List) {
    for (StmtPtr &S : List) {
      switch (S->getKind()) {
      case Stmt::Kind::Assign: {
        auto *A = static_cast<AssignStmt *>(S.get());
        rewriteExpr(A->getLHSPtr());
        rewriteExpr(A->getRHSPtr());
        break;
      }
      case Stmt::Kind::Do: {
        auto *D = static_cast<DoStmt *>(S.get());
        rewriteExpr(D->getLoPtr());
        rewriteExpr(D->getHiPtr());
        rewriteStmts(D->getBodyRef());
        break;
      }
      case Stmt::Kind::If: {
        auto *If = static_cast<IfStmt *>(S.get());
        rewriteExpr(If->getCondPtr());
        rewriteStmts(If->getThenRef());
        rewriteStmts(If->getElseRef());
        break;
      }
      case Stmt::Kind::Goto:
      case Stmt::Kind::Continue:
        break;
      }
    }
  }

  std::vector<Token> Toks;
  size_t Pos = 0;
  ParseResult &Result;
  std::set<std::string> LhsArrays;
  /// Do/if bodies around the statement being parsed.
  unsigned Depth = 0;
  /// Set once the input nested past MaxNestingDepth.
  bool TooDeep = false;
};

} // namespace

ParseResult gnt::parseProgram(const std::string &Source) {
  ParseResult Result;
  std::vector<Token> Toks = lex(Source, Result.Errors);
  Parser P(std::move(Toks), Result);
  P.run();
  return Result;
}
