//===- pre/ExprPre.cpp - Classical PRE on GIVE-N-TAKE ------------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "pre/ExprPre.h"

#include "ir/AstPrinter.h"
#include "support/Support.h"

#include <map>
#include <set>

using namespace gnt;

namespace {

/// True for expressions PRE may evaluate speculatively: arithmetic
/// without division (the paper's "unless the computation may change the
/// meaning of the program, for example by introducing a division by
/// zero").
bool isSpeculable(const Expr *E) {
  switch (E->getKind()) {
  case Expr::Kind::IntLit:
  case Expr::Kind::Var:
    return true;
  case Expr::Kind::ArrayRef:
    return isSpeculable(cast<ArrayRefExpr>(E)->getSubscript());
  case Expr::Kind::Unary:
    return isSpeculable(cast<UnaryExpr>(E)->getOperand());
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    if (B->getOp() == BinaryExpr::Op::Div)
      return false;
    switch (B->getOp()) {
    case BinaryExpr::Op::Add:
    case BinaryExpr::Op::Sub:
    case BinaryExpr::Op::Mul:
      break;
    default:
      return false; // Comparisons are not worth a temporary.
    }
    return isSpeculable(B->getLHS()) && isSpeculable(B->getRHS());
  }
  case Expr::Kind::Call:
    return false; // Opaque calls may have arbitrary behavior.
  }
  gntUnreachable("covered switch");
}

/// Collects the scalar and array names an expression depends on.
void collectOperands(const Expr *E, std::set<std::string> &Scalars,
                     std::set<std::string> &Arrays) {
  forEachExpr(E, [&](const Expr *Sub) {
    if (const auto *V = dyn_cast<VarExpr>(Sub))
      Scalars.insert(V->getName());
    else if (const auto *A = dyn_cast<ArrayRefExpr>(Sub))
      Arrays.insert(A->getArray());
  });
}

class PreAnalyzer {
public:
  PreAnalyzer(const Program &P, const Cfg &G, ExprPreResult &R)
      : P(P), G(G), R(R) {
    collectStmtNodes();
  }

  GntProblem buildProblem() {
    walk(P.getBody());
    // With the item universe known, place the steals.
    GntProblem Prob(G.size(), static_cast<unsigned>(R.Exprs.size()));
    for (const auto &[Node, Items] : Takes)
      for (unsigned I : Items)
        Prob.TakeInit[Node].set(I);
    for (unsigned I = 0; I != R.Exprs.size(); ++I) {
      const Deps &D = ItemDeps[I];
      // Assignments to operands kill the expression.
      for (const auto &[Node, Killed] : Kills)
        for (const std::string &Name : Killed)
          if (D.Scalars.count(Name) || D.Arrays.count(Name))
            Prob.StealInit[Node].set(I);
      // Loops kill index-dependent expressions per iteration (latch) and
      // at their boundary (header).
      for (const auto &[Idx, Nodes] : LoopKillNodes)
        if (D.Scalars.count(Idx))
          for (NodeId Node : Nodes)
            Prob.StealInit[Node].set(I);
    }
    R.Occurrences.assign(R.Exprs.size(), 0);
    for (const auto &[Node, Items] : Takes)
      for (unsigned I : Items)
        ++R.Occurrences[I];
    return Prob;
  }

private:
  struct Deps {
    std::set<std::string> Scalars, Arrays;
  };

  void collectStmtNodes() {
    for (NodeId Id = 0; Id != G.size(); ++Id) {
      const CfgNode &N = G.node(Id);
      if (!N.S)
        continue;
      switch (N.Kind) {
      case NodeKind::Stmt:
      case NodeKind::Branch:
        StmtNode[N.S] = Id;
        break;
      case NodeKind::LoopHeader:
        HeaderNode[N.S] = Id;
        break;
      case NodeKind::LoopLatch:
        LatchNode[N.S] = Id;
        break;
      default:
        break;
      }
    }
  }

  unsigned internExpr(const Expr *E) {
    std::string Key = AstPrinter::printExpr(E);
    auto It = ByKey.find(Key);
    if (It != ByKey.end())
      return It->second;
    unsigned Id = static_cast<unsigned>(R.Exprs.size());
    R.Exprs.push_back(Key);
    ByKey.emplace(Key, Id);
    Deps D;
    collectOperands(E, D.Scalars, D.Arrays);
    ItemDeps.push_back(std::move(D));
    return Id;
  }

  /// Registers every maximal speculable binary expression in \p E as an
  /// occurrence at \p Node (classic lexical PRE granularity).
  void scanExpr(const Expr *E, NodeId Node) {
    if (!E)
      return;
    if (E->getKind() == Expr::Kind::Binary && isSpeculable(E)) {
      Takes[Node].push_back(internExpr(E));
      return; // Subexpressions are covered by the enclosing temporary.
    }
    switch (E->getKind()) {
    case Expr::Kind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      scanExpr(B->getLHS(), Node);
      scanExpr(B->getRHS(), Node);
      break;
    }
    case Expr::Kind::Unary:
      scanExpr(cast<UnaryExpr>(E)->getOperand(), Node);
      break;
    case Expr::Kind::ArrayRef:
      scanExpr(cast<ArrayRefExpr>(E)->getSubscript(), Node);
      break;
    case Expr::Kind::Call:
      for (const ExprPtr &A : cast<CallExpr>(E)->getArgs())
        scanExpr(A.get(), Node);
      break;
    default:
      break;
    }
  }

  void walk(const StmtList &List) {
    for (const StmtPtr &SP : List) {
      const Stmt *S = SP.get();
      switch (S->getKind()) {
      case Stmt::Kind::Assign: {
        const auto *A = cast<AssignStmt>(S);
        NodeId Node = StmtNode.at(S);
        scanExpr(A->getRHS(), Node);
        if (const auto *LHS = dyn_cast<ArrayRefExpr>(A->getLHS())) {
          scanExpr(LHS->getSubscript(), Node);
          Kills[Node].insert(LHS->getArray());
        } else if (const auto *V = dyn_cast<VarExpr>(A->getLHS())) {
          Kills[Node].insert(V->getName());
        }
        break;
      }
      case Stmt::Kind::Do: {
        const auto *D = cast<DoStmt>(S);
        NodeId H = HeaderNode.at(S);
        scanExpr(D->getLo(), H);
        scanExpr(D->getHi(), H);
        // The index is rebound every iteration and on loop entry/exit.
        auto &KillSites = LoopKillNodes[D->getIndexVar()];
        KillSites.push_back(H);
        auto LIt = LatchNode.find(S);
        if (LIt != LatchNode.end())
          KillSites.push_back(LIt->second);
        walk(D->getBody());
        break;
      }
      case Stmt::Kind::If: {
        const auto *If = cast<IfStmt>(S);
        scanExpr(If->getCond(), StmtNode.at(S));
        walk(If->getThen());
        walk(If->getElse());
        break;
      }
      case Stmt::Kind::Goto:
      case Stmt::Kind::Continue:
        break;
      }
    }
  }

  const Program &P;
  const Cfg &G;
  ExprPreResult &R;
  std::map<const Stmt *, NodeId> StmtNode, HeaderNode, LatchNode;
  std::map<std::string, unsigned> ByKey;
  std::vector<Deps> ItemDeps;
  std::map<NodeId, std::vector<unsigned>> Takes;
  std::map<NodeId, std::set<std::string>> Kills;
  std::map<std::string, std::vector<NodeId>> LoopKillNodes;
};

} // namespace

GntProblem gnt::buildExprPreProblem(const Program &P, const Cfg &G,
                                    std::vector<std::string> &ExprNames) {
  ExprPreResult R;
  PreAnalyzer A(P, G, R);
  GntProblem Prob = A.buildProblem();
  ExprNames = std::move(R.Exprs);
  return Prob;
}

ExprPreResult gnt::runExprPre(const Program &P, const Cfg &G,
                              const IntervalFlowGraph &Ifg,
                              GntIncrementalContext *Inc) {
  ExprPreResult R;
  PreAnalyzer A(P, G, R);
  R.Problem = A.buildProblem();
  R.Run = Inc ? runGiveNTakeIncremental(Ifg, R.Problem, Inc->Pre, Inc->Stats)
              : runGiveNTake(Ifg, R.Problem);

  // LAZY placements are the classical PRE insertions; an insertion that
  // coincides with an occurrence stays an ordinary evaluation whose
  // result is kept in the temporary.
  for (NodeId Node = 0; Node != G.size(); ++Node) {
    const CfgNode &CN = G.node(Node);
    const BitVector &In = R.Run.resAtEntry(Urgency::Lazy, Node);
    const BitVector &Out = R.Run.resAtExit(Urgency::Lazy, Node);
    for (unsigned I : In)
      R.Insertions.push_back({I, CN.EmitStmt, CN.Where});
    for (unsigned I : Out)
      R.Insertions.push_back(
          {I, CN.EmitStmt,
           CN.Where == EmitWhere::Before ? EmitWhere::After : CN.Where});
    // Occurrences covered by an upstream temporary become redundant.
    BitVector Covered = R.Problem.TakeInit[Node];
    Covered &= R.Run.Result.Lazy.GivenIn[Node];
    for (unsigned I : Covered)
      R.Redundant.push_back({Node, I});
  }
  return R;
}

std::string ExprPreResult::annotate(const Program &P) const {
  std::map<std::pair<const Stmt *, EmitWhere>, std::vector<std::string>>
      Lines;
  for (const PreInsertion &Ins : Insertions)
    Lines[{Ins.S, Ins.Where}].push_back("t" + itostr(Ins.Item) + " = " +
                                        Exprs[Ins.Item]);
  AstPrinter Printer([&Lines](const Stmt *S, EmitWhere W) {
    auto It = Lines.find({S, W});
    return It == Lines.end() ? std::vector<std::string>() : It->second;
  });
  return Printer.print(P);
}

GntVerifyResult ExprPreResult::verify() const {
  return verifyGntRun(Run, Exprs);
}
