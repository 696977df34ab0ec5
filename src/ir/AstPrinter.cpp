//===- ir/AstPrinter.cpp - FMini source printer ----------------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/AstPrinter.h"

#include "support/Support.h"

using namespace gnt;

static const char *binOpSpelling(BinaryExpr::Op Op) {
  switch (Op) {
  case BinaryExpr::Op::Add:
    return "+";
  case BinaryExpr::Op::Sub:
    return "-";
  case BinaryExpr::Op::Mul:
    return "*";
  case BinaryExpr::Op::Div:
    return "/";
  case BinaryExpr::Op::Lt:
    return "<";
  case BinaryExpr::Op::Le:
    return "<=";
  case BinaryExpr::Op::Gt:
    return ">";
  case BinaryExpr::Op::Ge:
    return ">=";
  case BinaryExpr::Op::Eq:
    return "==";
  case BinaryExpr::Op::Ne:
    return "!=";
  }
  gntUnreachable("covered switch");
}

static unsigned binOpPrecedence(BinaryExpr::Op Op) {
  switch (Op) {
  case BinaryExpr::Op::Mul:
  case BinaryExpr::Op::Div:
    return 3;
  case BinaryExpr::Op::Add:
  case BinaryExpr::Op::Sub:
    return 2;
  default:
    return 1;
  }
}

/// Appends \p E to \p Out, parenthesized when its operator binds more
/// loosely than \p ParentPrec.
static void appendExpr(std::string &Out, const Expr *E, unsigned ParentPrec) {
  switch (E->getKind()) {
  case Expr::Kind::IntLit:
    appendInt(Out, cast<IntLitExpr>(E)->getValue());
    return;
  case Expr::Kind::Var:
    Out += cast<VarExpr>(E)->getName();
    return;
  case Expr::Kind::ArrayRef: {
    const auto *A = cast<ArrayRefExpr>(E);
    Out += A->getArray();
    Out += '(';
    appendExpr(Out, A->getSubscript(), 0);
    Out += ')';
    return;
  }
  case Expr::Kind::Unary:
    Out += '-';
    appendExpr(Out, cast<UnaryExpr>(E)->getOperand(), 4);
    return;
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    unsigned Prec = binOpPrecedence(B->getOp());
    bool Paren = Prec < ParentPrec;
    if (Paren)
      Out += '(';
    appendExpr(Out, B->getLHS(), Prec);
    Out += ' ';
    Out += binOpSpelling(B->getOp());
    Out += ' ';
    appendExpr(Out, B->getRHS(), Prec + 1);
    if (Paren)
      Out += ')';
    return;
  }
  case Expr::Kind::Call: {
    const auto *C = cast<CallExpr>(E);
    Out += C->getCallee();
    Out += '(';
    bool First = true;
    for (const ExprPtr &A : C->getArgs()) {
      if (!First)
        Out += ", ";
      First = false;
      appendExpr(Out, A.get(), 0);
    }
    Out += ')';
    return;
  }
  }
  gntUnreachable("covered switch");
}

/// Appends the two-space indentation of nesting level \p Level.
static void appendIndent(std::string &Out, unsigned Level) {
  Out.append(static_cast<size_t>(Level) * 2, ' ');
}

std::string AstPrinter::printExpr(const Expr *E) {
  std::string Out;
  appendExpr(Out, E, 0);
  return Out;
}

void AstPrinter::emitAnnotations(const Stmt *S, EmitWhere W, unsigned Level,
                                 std::string &Out) const {
  if (!Ann)
    return;
  for (const std::string &Line : Ann(S, W)) {
    appendIndent(Out, Level);
    Out += Line;
    Out += '\n';
  }
}

void AstPrinter::printStmt(const Stmt *S, unsigned Level,
                           std::string &Out) const {
  emitAnnotations(S, EmitWhere::Before, Level, Out);

  // Indentation and the statement's label, if any.
  auto head = [&] {
    appendIndent(Out, Level);
    if (S->getLabel() != 0) {
      appendInt(Out, S->getLabel());
      Out += ' ';
    }
  };

  switch (S->getKind()) {
  case Stmt::Kind::Assign: {
    const auto *A = cast<AssignStmt>(S);
    head();
    appendExpr(Out, A->getLHS(), 0);
    Out += " = ";
    appendExpr(Out, A->getRHS(), 0);
    Out += '\n';
    break;
  }
  case Stmt::Kind::Do: {
    const auto *D = cast<DoStmt>(S);
    head();
    Out += "do ";
    Out += D->getIndexVar();
    Out += " = ";
    appendExpr(Out, D->getLo(), 0);
    Out += ", ";
    appendExpr(Out, D->getHi(), 0);
    Out += '\n';
    emitAnnotations(S, EmitWhere::BodyStart, Level + 1, Out);
    printStmts(D->getBody(), Level + 1, Out);
    emitAnnotations(S, EmitWhere::BodyEnd, Level + 1, Out);
    appendIndent(Out, Level);
    Out += "enddo\n";
    break;
  }
  case Stmt::Kind::If: {
    const auto *If = cast<IfStmt>(S);
    // `if (c) goto L` prints in its compact one-line form when there is
    // nothing to place inside its branches.
    bool CompactGoto = !If->hasElse() && If->getThen().size() == 1 &&
                       isa<GotoStmt>(If->getThen().front().get());
    if (CompactGoto && Ann) {
      const Stmt *G = If->getThen().front().get();
      CompactGoto = Ann(If, EmitWhere::ThenEntry).empty() &&
                    Ann(If, EmitWhere::ThenExit).empty() &&
                    Ann(If, EmitWhere::ElseEntry).empty() &&
                    Ann(If, EmitWhere::ElseExit).empty() &&
                    Ann(G, EmitWhere::Before).empty() &&
                    Ann(G, EmitWhere::After).empty();
    }
    head();
    Out += "if (";
    appendExpr(Out, If->getCond(), 0);
    if (CompactGoto) {
      const auto *G = cast<GotoStmt>(If->getThen().front().get());
      Out += ") goto ";
      appendInt(Out, G->getTarget());
      Out += '\n';
      break;
    }
    Out += ") then\n";
    emitAnnotations(S, EmitWhere::ThenEntry, Level + 1, Out);
    printStmts(If->getThen(), Level + 1, Out);
    emitAnnotations(S, EmitWhere::ThenExit, Level + 1, Out);
    bool NeedElse = If->hasElse();
    if (!NeedElse && Ann)
      NeedElse = !Ann(S, EmitWhere::ElseEntry).empty() ||
                 !Ann(S, EmitWhere::ElseExit).empty();
    if (NeedElse) {
      appendIndent(Out, Level);
      Out += "else\n";
      emitAnnotations(S, EmitWhere::ElseEntry, Level + 1, Out);
      printStmts(If->getElse(), Level + 1, Out);
      emitAnnotations(S, EmitWhere::ElseExit, Level + 1, Out);
    }
    appendIndent(Out, Level);
    Out += "endif\n";
    break;
  }
  case Stmt::Kind::Goto:
    head();
    Out += "goto ";
    appendInt(Out, cast<GotoStmt>(S)->getTarget());
    Out += '\n';
    break;
  case Stmt::Kind::Continue:
    head();
    Out += "continue\n";
    break;
  }

  emitAnnotations(S, EmitWhere::After, Level, Out);
}

void AstPrinter::printStmts(const StmtList &List, unsigned Level,
                            std::string &Out) const {
  for (const StmtPtr &S : List)
    printStmt(S.get(), Level, Out);
}

std::string AstPrinter::printStmts(const StmtList &List,
                                   unsigned Level) const {
  std::string Out;
  printStmts(List, Level, Out);
  return Out;
}

std::string AstPrinter::print(const Program &P) const {
  std::string Out;
  std::vector<std::string> Dist, Local;
  for (const auto &[Name, Info] : P.getArrays())
    (Info.Distributed ? Dist : Local).push_back(Name);
  if (!Dist.empty())
    Out += "distribute " + join(Dist, ", ") + "\n";
  if (!Local.empty())
    Out += "array " + join(Local, ", ") + "\n";
  printStmts(P.getBody(), 0, Out);
  return Out;
}
