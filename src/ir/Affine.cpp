//===- ir/Affine.cpp - Symbolic affine expressions -------------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Affine.h"

#include "ir/Ast.h"
#include "support/Support.h"

#include <sstream>

using namespace gnt;

AffineExpr AffineExpr::constant(long long C) {
  AffineExpr E;
  E.Affine = true;
  E.Const = C;
  return E;
}

AffineExpr AffineExpr::symbol(const std::string &Name) {
  AffineExpr E;
  E.Affine = true;
  E.Terms[Name] = 1;
  return E;
}

AffineExpr AffineExpr::operator+(const AffineExpr &RHS) const {
  if (!Affine || !RHS.Affine)
    return AffineExpr();
  AffineExpr R = *this;
  R.Const += RHS.Const;
  for (const auto &[Sym, C] : RHS.Terms) {
    long long NewC = R.coeffOf(Sym) + C;
    if (NewC == 0)
      R.Terms.erase(Sym);
    else
      R.Terms[Sym] = NewC;
  }
  return R;
}

AffineExpr AffineExpr::negate() const {
  if (!Affine)
    return AffineExpr();
  AffineExpr R = *this;
  R.Const = -R.Const;
  for (auto &[Sym, C] : R.Terms)
    C = -C;
  return R;
}

AffineExpr AffineExpr::operator-(const AffineExpr &RHS) const {
  return *this + RHS.negate();
}

AffineExpr AffineExpr::operator*(const AffineExpr &RHS) const {
  if (!Affine || !RHS.Affine)
    return AffineExpr();
  const AffineExpr *Scalar = nullptr, *Other = nullptr;
  if (isConstant()) {
    Scalar = this;
    Other = &RHS;
  } else if (RHS.isConstant()) {
    Scalar = &RHS;
    Other = this;
  } else {
    return AffineExpr(); // Symbolic product is not affine.
  }
  long long K = Scalar->Const;
  if (K == 0)
    return constant(0);
  AffineExpr R = *Other;
  R.Const *= K;
  for (auto &[Sym, C] : R.Terms)
    C *= K;
  return R;
}

AffineExpr AffineExpr::substitute(const std::string &Sym,
                                  const AffineExpr &Repl) const {
  if (!Affine)
    return AffineExpr();
  long long C = coeffOf(Sym);
  if (C == 0)
    return *this;
  AffineExpr Without = *this;
  Without.Terms.erase(Sym);
  return Without + Repl * constant(C);
}

std::optional<long long> AffineExpr::differenceFrom(const AffineExpr &RHS) const {
  if (!Affine || !RHS.Affine)
    return std::nullopt;
  // Walk both sorted term maps in step, keeping exactly the terms that
  // `*this - RHS` would: a term of *this alone survives as is, a term of
  // RHS alone survives negated unless its coefficient is zero, and a
  // shared term survives unless the coefficients are equal.
  auto L = Terms.begin(), LE = Terms.end();
  auto R = RHS.Terms.begin(), RE = RHS.Terms.end();
  while (L != LE || R != RE) {
    if (R == RE || (L != LE && L->first < R->first))
      return std::nullopt;
    if (L == LE || R->first < L->first) {
      if (R->second != 0)
        return std::nullopt;
      ++R;
      continue;
    }
    if (L->second != R->second)
      return std::nullopt;
    ++L;
    ++R;
  }
  return Const - RHS.Const;
}

bool AffineExpr::operator<(const AffineExpr &RHS) const {
  if (Affine != RHS.Affine)
    return Affine < RHS.Affine;
  if (Const != RHS.Const)
    return Const < RHS.Const;
  return Terms < RHS.Terms;
}

std::string AffineExpr::toString() const {
  if (!Affine)
    return "<nonaffine>";
  std::ostringstream OS;
  bool First = true;
  for (const auto &[Sym, C] : Terms) {
    if (C == 0)
      continue;
    if (First) {
      if (C == -1)
        OS << '-';
      else if (C != 1)
        OS << C << '*';
    } else {
      OS << (C > 0 ? "+" : "-");
      if (C != 1 && C != -1)
        OS << (C > 0 ? C : -C) << '*';
    }
    OS << Sym;
    First = false;
  }
  if (First)
    return itostr(Const);
  if (Const > 0)
    OS << '+' << Const;
  else if (Const < 0)
    OS << Const;
  return OS.str();
}

AffineExpr AffineExpr::fromExpr(const Expr *E) {
  if (!E)
    return AffineExpr();
  switch (E->getKind()) {
  case Expr::Kind::IntLit:
    return constant(cast<IntLitExpr>(E)->getValue());
  case Expr::Kind::Var:
    return symbol(cast<VarExpr>(E)->getName());
  case Expr::Kind::Unary:
    return fromExpr(cast<UnaryExpr>(E)->getOperand()).negate();
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    AffineExpr L = fromExpr(B->getLHS());
    AffineExpr R = fromExpr(B->getRHS());
    switch (B->getOp()) {
    case BinaryExpr::Op::Add:
      return L + R;
    case BinaryExpr::Op::Sub:
      return L - R;
    case BinaryExpr::Op::Mul:
      return L * R;
    default:
      return AffineExpr(); // Division and comparisons are not affine.
    }
  }
  case Expr::Kind::ArrayRef:
  case Expr::Kind::Call:
    return AffineExpr();
  }
  gntUnreachable("covered switch");
}

//===----------------------------------------------------------------------===//
// Section
//===----------------------------------------------------------------------===//

bool Section::isProvablyEmpty() const {
  if (!isKnown())
    return false;
  std::optional<long long> D = Hi.differenceFrom(Lo);
  return D.has_value() && *D < 0;
}

bool Section::mayOverlap(const Section &RHS) const {
  // Unknown sections overlap everything.
  if (!isKnown() || !RHS.isKnown())
    return true;
  if (isProvablyEmpty() || RHS.isProvablyEmpty())
    return false;
  // Provably disjoint if one section ends before the other begins, which
  // we can only decide when the bound difference is a compile-time
  // constant. (Symbols may take any value, so anything else may overlap.)
  std::optional<long long> D1 = RHS.Lo.differenceFrom(Hi); // RHS.Lo - Hi
  if (D1 && *D1 > 0)
    return false;
  std::optional<long long> D2 = Lo.differenceFrom(RHS.Hi); // Lo - RHS.Hi
  if (D2 && *D2 > 0)
    return false;
  // Same-stride sections with constant offset not divisible by the stride
  // interleave without touching, e.g. (1:N:2) vs (2:N:2).
  if (Stride == RHS.Stride && Stride > 1) {
    std::optional<long long> Off = RHS.Lo.differenceFrom(Lo);
    if (Off && (*Off % Stride) != 0)
      return false;
  }
  return true;
}

bool Section::operator<(const Section &RHS) const {
  if (Lo != RHS.Lo)
    return Lo < RHS.Lo;
  if (Hi != RHS.Hi)
    return Hi < RHS.Hi;
  return Stride < RHS.Stride;
}

std::string Section::toString() const {
  if (!isKnown())
    return "(?)";
  if (Lo == Hi)
    return "(" + Lo.toString() + ")";
  std::string R = "(" + Lo.toString() + ":" + Hi.toString();
  if (Stride != 1)
    R += ":" + itostr(Stride);
  return R + ")";
}
