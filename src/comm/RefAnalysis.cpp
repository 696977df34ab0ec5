//===- comm/RefAnalysis.cpp - Reference analysis for communication ----------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "comm/RefAnalysis.h"

#include "support/Support.h"

#include <algorithm>
#include <set>

using namespace gnt;

namespace {

/// One enclosing loop: index variable and its (raw affine) bounds.
struct LoopBinding {
  std::string Idx;
  AffineExpr Lo, Hi;
};

class Analyzer {
public:
  Analyzer(const Program &P, const Cfg &G, RefAnalysisResult &R)
      : P(P), G(G), R(R) {
    R.PerNode.assign(G.size(), {});
    R.ArrayDefs.assign(G.size(), {});
    collectStmtNodes();
    collectMutatedScalars();
  }

  void run() { walk(P.getBody()); }

private:
  /// Builds the statement -> evaluating-node map from the CFG.
  void collectStmtNodes() {
    for (NodeId Id = 0; Id != G.size(); ++Id) {
      const CfgNode &N = G.node(Id);
      if (!N.S)
        continue;
      switch (N.Kind) {
      case NodeKind::Stmt:
      case NodeKind::Branch:
      case NodeKind::LoopHeader:
        R.StmtNode[N.S] = Id;
        break;
      default:
        break;
      }
    }
  }

  /// A scalar is mutated if it is assigned anywhere or serves as a loop
  /// index (whose value is only meaningful inside its loop).
  void collectMutatedScalars() {
    forEachStmt(P.getBody(), [&](const Stmt *S) {
      if (const auto *A = dyn_cast<AssignStmt>(S)) {
        if (const auto *V = dyn_cast<VarExpr>(A->getLHS()))
          Mutated.insert(V->getName());
      } else if (const auto *D = dyn_cast<DoStmt>(S)) {
        Mutated.insert(D->getIndexVar());
      }
    });
  }

  NodeId nodeOf(const Stmt *S) const {
    auto It = R.StmtNode.find(S);
    assert(It != R.StmtNode.end() && "statement without CFG node");
    return It->second;
  }

  //===--------------------------------------------------------------------===//
  // Subscript normalization
  //===--------------------------------------------------------------------===//

  /// Expands an affine subscript over the enclosing loops: each in-scope
  /// index variable is replaced by its bound range, innermost first (so
  /// triangular bounds referencing outer indices resolve too).
  Section expandAffine(const AffineExpr &A, bool &UsesMutated) const {
    AffineExpr Lo = A, Hi = A;
    unsigned VaryingIndices = 0;
    long long StrideCoeff = 1;
    for (auto It = Loops.rbegin(); It != Loops.rend(); ++It) {
      long long CLo = Lo.coeffOf(It->Idx);
      if (CLo != 0)
        Lo = Lo.substitute(It->Idx, CLo > 0 ? It->Lo : It->Hi);
      long long CHi = Hi.coeffOf(It->Idx);
      if (CHi != 0)
        Hi = Hi.substitute(It->Idx, CHi > 0 ? It->Hi : It->Lo);
      if (A.coeffOf(It->Idx) != 0) {
        ++VaryingIndices;
        StrideCoeff = A.coeffOf(It->Idx);
      }
    }
    long long Stride = 1;
    if (VaryingIndices == 1 && StrideCoeff != 0)
      Stride = StrideCoeff;
    if (!Lo.isAffine() || !Hi.isAffine() ||
        (Stride < 0 && __builtin_sub_overflow(0, Stride, &Stride)))
      return Section::unknown();
    // Any remaining mutated symbol makes the value number unstable.
    for (const AffineExpr *E : {&Lo, &Hi})
      for (const auto &[Sym, C] : E->getTerms())
        if (C != 0 && Mutated.count(Sym))
          UsesMutated = true;
    return Section(std::move(Lo), std::move(Hi), Stride);
  }

  void recordDependsOn(Item &I, const Section &S) const {
    for (const AffineExpr *E : {&S.Lo, &S.Hi})
      for (const auto &Term : E->getTerms())
        I.DependsOn.push_back(Term.first);
    std::sort(I.DependsOn.begin(), I.DependsOn.end());
    I.DependsOn.erase(std::unique(I.DependsOn.begin(), I.DependsOn.end()),
                      I.DependsOn.end());
  }

  /// Builds the item for a reference `Array(Sub)` in the current loop
  /// context. Only volatile items get their Key here, numbered per
  /// occurrence; ItemTable::intern renders the others.
  Item makeItem(const std::string &Array, const Expr *Sub) {
    Item I;
    I.Array = Array;
    I.Sec = Section::unknown();
    I.Volatile = true;

    // A direct affine subscript, or one-level indirect x(a(affine)).
    // Anything deeper or non-affine stays opaque, unique per occurrence.
    AffineExpr A = AffineExpr::fromExpr(Sub);
    if (!A.isAffine())
      if (const auto *AR = dyn_cast<ArrayRefExpr>(Sub)) {
        A = AffineExpr::fromExpr(AR->getSubscript());
        if (A.isAffine())
          I.IndirectArray = AR->getArray();
      }
    if (A.isAffine()) {
      bool UsesMutated = false;
      I.Sec = expandAffine(A, UsesMutated);
      I.Volatile = UsesMutated || !I.Sec.isKnown();
      recordDependsOn(I, I.Sec);
    }
    if (I.Volatile) {
      I.appendStructure(I.Key);
      I.Key += '#';
      appendInt(I.Key, VolatileCounter++);
    }
    return I;
  }

  //===--------------------------------------------------------------------===//
  // Walks
  //===--------------------------------------------------------------------===//

  /// True if \p A has the shape `arr(sub) = arr(sub) op ...` for an
  /// associative op; returns the operator character and the RHS leaf that
  /// is the self-reference.
  char detectReduction(const AssignStmt *A, const Expr *&SelfRef) {
    const auto *LHS = dyn_cast<ArrayRefExpr>(A->getLHS());
    const auto *B = dyn_cast<BinaryExpr>(A->getRHS());
    if (!LHS || !B)
      return 0;
    char Op;
    switch (B->getOp()) {
    case BinaryExpr::Op::Add:
      Op = '+';
      break;
    case BinaryExpr::Op::Mul:
      Op = '*';
      break;
    default:
      return 0;
    }
    for (const Expr *Side : {B->getLHS(), B->getRHS()}) {
      if (sameExpr(Side, LHS)) {
        SelfRef = Side;
        return Op;
      }
    }
    return 0;
  }

  /// True when \p A and \p B are the same expression tree, i.e. they
  /// print the same.
  static bool sameExpr(const Expr *A, const Expr *B) {
    if (A->getKind() != B->getKind())
      return false;
    switch (A->getKind()) {
    case Expr::Kind::IntLit:
      return cast<IntLitExpr>(A)->getValue() ==
             cast<IntLitExpr>(B)->getValue();
    case Expr::Kind::Var:
      return cast<VarExpr>(A)->getName() == cast<VarExpr>(B)->getName();
    case Expr::Kind::ArrayRef: {
      const auto *L = cast<ArrayRefExpr>(A), *R = cast<ArrayRefExpr>(B);
      return L->getArray() == R->getArray() &&
             sameExpr(L->getSubscript(), R->getSubscript());
    }
    case Expr::Kind::Unary:
      return sameExpr(cast<UnaryExpr>(A)->getOperand(),
                      cast<UnaryExpr>(B)->getOperand());
    case Expr::Kind::Binary: {
      const auto *L = cast<BinaryExpr>(A), *R = cast<BinaryExpr>(B);
      return L->getOp() == R->getOp() && sameExpr(L->getLHS(), R->getLHS()) &&
             sameExpr(L->getRHS(), R->getRHS());
    }
    case Expr::Kind::Call: {
      const auto &LA = cast<CallExpr>(A)->getArgs();
      const auto &RA = cast<CallExpr>(B)->getArgs();
      if (cast<CallExpr>(A)->getCallee() != cast<CallExpr>(B)->getCallee() ||
          LA.size() != RA.size())
        return false;
      for (size_t I = 0; I != LA.size(); ++I)
        if (!sameExpr(LA[I].get(), RA[I].get()))
          return false;
      return true;
    }
    }
    gntUnreachable("covered switch");
  }

  /// scanUses, but ignores the subtree rooted at \p Skip (the reduction
  /// self-reference).
  void scanUsesSkipping(const Expr *E, NodeId N, const Expr *Skip) {
    if (!E || E == Skip)
      return;
    switch (E->getKind()) {
    case Expr::Kind::IntLit:
    case Expr::Kind::Var:
      return;
    case Expr::Kind::ArrayRef: {
      const auto *AR = cast<ArrayRefExpr>(E);
      if (P.isDistributed(AR->getArray()))
        R.PerNode[N].Uses.push_back(
            R.Items.intern(makeItem(AR->getArray(), AR->getSubscript())));
      scanUsesSkipping(AR->getSubscript(), N, Skip);
      return;
    }
    case Expr::Kind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      scanUsesSkipping(B->getLHS(), N, Skip);
      scanUsesSkipping(B->getRHS(), N, Skip);
      return;
    }
    case Expr::Kind::Unary:
      scanUsesSkipping(cast<UnaryExpr>(E)->getOperand(), N, Skip);
      return;
    case Expr::Kind::Call:
      for (const ExprPtr &A : cast<CallExpr>(E)->getArgs())
        scanUsesSkipping(A.get(), N, Skip);
      return;
    }
  }

  /// Records every distributed-array read inside \p E as a use at \p N.
  void scanUses(const Expr *E, NodeId N) {
    if (!E)
      return;
    switch (E->getKind()) {
    case Expr::Kind::IntLit:
    case Expr::Kind::Var:
      return;
    case Expr::Kind::ArrayRef: {
      const auto *AR = cast<ArrayRefExpr>(E);
      if (P.isDistributed(AR->getArray()))
        R.PerNode[N].Uses.push_back(
            R.Items.intern(makeItem(AR->getArray(), AR->getSubscript())));
      scanUses(AR->getSubscript(), N);
      return;
    }
    case Expr::Kind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      scanUses(B->getLHS(), N);
      scanUses(B->getRHS(), N);
      return;
    }
    case Expr::Kind::Unary:
      scanUses(cast<UnaryExpr>(E)->getOperand(), N);
      return;
    case Expr::Kind::Call:
      for (const ExprPtr &A : cast<CallExpr>(E)->getArgs())
        scanUses(A.get(), N);
      return;
    }
  }

  void walk(const StmtList &List) {
    for (const StmtPtr &SP : List) {
      const Stmt *S = SP.get();
      switch (S->getKind()) {
      case Stmt::Kind::Assign: {
        const auto *A = cast<AssignStmt>(S);
        NodeId N = nodeOf(S);
        // Reductions `a(s) = a(s) op ...` accumulate locally; the
        // self-reference leaf is skipped when scanning uses.
        const Expr *SelfRef = nullptr;
        char ReduceOp = detectReduction(A, SelfRef);
        scanUsesSkipping(A->getRHS(), N, SelfRef);
        if (const auto *LHS = dyn_cast<ArrayRefExpr>(A->getLHS())) {
          scanUses(LHS->getSubscript(), N);
          Item D = makeItem(LHS->getArray(), LHS->getSubscript());
          R.ArrayDefs[N].push_back({LHS->getArray(), D.Sec,
                                    D.Volatile || D.isIndirect(),
                                    ReduceOp != 0});
          if (P.isDistributed(LHS->getArray())) {
            unsigned Id = R.Items.intern(std::move(D));
            R.Items.noteDefinitionKind(Id, ReduceOp);
            R.PerNode[N].Defs.push_back(Id);
            R.PerNode[N].DefOps.push_back(ReduceOp);
          }
        } else if (const auto *V = dyn_cast<VarExpr>(A->getLHS())) {
          R.ScalarAssigns[V->getName()].push_back(N);
        }
        break;
      }
      case Stmt::Kind::Do: {
        const auto *D = cast<DoStmt>(S);
        NodeId N = nodeOf(S);
        scanUses(D->getLo(), N);
        scanUses(D->getHi(), N);
        Loops.push_back({D->getIndexVar(), AffineExpr::fromExpr(D->getLo()),
                         AffineExpr::fromExpr(D->getHi())});
        walk(D->getBody());
        Loops.pop_back();
        break;
      }
      case Stmt::Kind::If: {
        const auto *If = cast<IfStmt>(S);
        NodeId N = nodeOf(S);
        scanUses(If->getCond(), N);
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
  RefAnalysisResult &R;
  std::vector<LoopBinding> Loops;
  std::set<std::string> Mutated;
  unsigned VolatileCounter = 0;
};

} // namespace

RefAnalysisResult gnt::analyzeReferences(const Program &P, const Cfg &G) {
  RefAnalysisResult R;
  Analyzer A(P, G, R);
  A.run();
  return R;
}
