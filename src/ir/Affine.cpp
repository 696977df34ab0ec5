//===- ir/Affine.cpp - Symbolic affine expressions -------------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Affine.h"

#include "ir/Ast.h"
#include "support/Support.h"

#include <charconv>

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
  E.Terms.emplace_back(Name, 1);
  return E;
}

AffineExpr AffineExpr::addScaled(const AffineExpr &RHS, long long K,
                                 const std::string *Drop) const {
  if (!Affine || !RHS.Affine)
    return AffineExpr();
  AffineExpr R = constant(0);
  long long C;
  if (__builtin_mul_overflow(RHS.Const, K, &C) ||
      __builtin_add_overflow(Const, C, &R.Const))
    return AffineExpr();
  R.Terms.reserve(Terms.size() + RHS.Terms.size());
  auto L = Terms.begin(), LE = Terms.end();
  auto Rt = RHS.Terms.begin(), RE = RHS.Terms.end();
  while (L != LE || Rt != RE) {
    bool FromL = Rt == RE || (L != LE && L->first <= Rt->first);
    bool FromR = L == LE || (Rt != RE && Rt->first <= L->first);
    const std::string &Sym = FromL ? L->first : Rt->first;
    C = FromL && !(Drop && Sym == *Drop) ? L->second : 0;
    long long Scaled;
    if (FromR && (__builtin_mul_overflow(Rt->second, K, &Scaled) ||
                  __builtin_add_overflow(C, Scaled, &C)))
      return AffineExpr();
    if (C != 0)
      R.Terms.emplace_back(Sym, C);
    L += FromL;
    Rt += FromR;
  }
  return R;
}

AffineExpr AffineExpr::operator+(const AffineExpr &RHS) const {
  return addScaled(RHS, 1);
}

AffineExpr AffineExpr::operator-(const AffineExpr &RHS) const {
  return addScaled(RHS, -1);
}

AffineExpr AffineExpr::negate() const {
  return constant(0).addScaled(*this, -1);
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
  if (__builtin_mul_overflow(R.Const, K, &R.Const))
    return AffineExpr();
  for (auto &[Sym, C] : R.Terms)
    if (__builtin_mul_overflow(C, K, &C))
      return AffineExpr();
  return R;
}

AffineExpr AffineExpr::substitute(const std::string &Sym,
                                  const AffineExpr &Repl) const {
  if (!Affine)
    return AffineExpr();
  long long C = coeffOf(Sym);
  if (C == 0)
    return *this;
  return addScaled(Repl, C, &Sym);
}

std::optional<long long> AffineExpr::differenceFrom(const AffineExpr &RHS) const {
  // `*this - RHS` is constant exactly when both term lists are equal,
  // since neither holds a zero coefficient.
  long long D;
  if (!Affine || !RHS.Affine || Terms != RHS.Terms ||
      __builtin_sub_overflow(Const, RHS.Const, &D))
    return std::nullopt;
  return D;
}

bool AffineExpr::operator<(const AffineExpr &RHS) const {
  if (Affine != RHS.Affine)
    return Affine < RHS.Affine;
  if (Const != RHS.Const)
    return Const < RHS.Const;
  return Terms < RHS.Terms;
}

namespace {

/// Appends |V| in decimal; LLONG_MIN's magnitude is computed unsigned.
void appendMagnitude(std::string &Out, long long V) {
  unsigned long long M = static_cast<unsigned long long>(V);
  if (V < 0)
    M = 0 - M;
  char Buf[24];
  char *End = std::to_chars(Buf, Buf + sizeof(Buf), M).ptr;
  Out.append(Buf, End);
}

} // namespace

void AffineExpr::appendTo(std::string &Out) const {
  if (!Affine) {
    Out += "<nonaffine>";
    return;
  }
  bool First = true;
  for (const auto &[Sym, C] : Terms) {
    if (C < 0)
      Out += '-';
    else if (!First)
      Out += '+';
    if (C != 1 && C != -1) {
      appendMagnitude(Out, C);
      Out += '*';
    }
    Out += Sym;
    First = false;
  }
  if (First)
    appendInt(Out, Const);
  else if (Const != 0) {
    Out += Const > 0 ? '+' : '-';
    appendMagnitude(Out, Const);
  }
}

std::string AffineExpr::toString() const {
  std::string R;
  appendTo(R);
  return R;
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

void Section::appendTo(std::string &Out) const {
  if (!isKnown()) {
    Out += "(?)";
    return;
  }
  Out += '(';
  Lo.appendTo(Out);
  if (!(Lo == Hi)) {
    Out += ':';
    Hi.appendTo(Out);
    if (Stride != 1) {
      Out += ':';
      appendInt(Out, Stride);
    }
  }
  Out += ')';
}

std::string Section::toString() const {
  std::string R;
  appendTo(R);
  return R;
}
