//===- ir/Affine.h - Symbolic affine expressions and sections --*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small symbolic analysis engine: affine expressions over named scalar
/// symbols (loop indices, size parameters like N) with integer
/// coefficients, and regular array sections built from them.
///
/// This is the reproduction's stand-in for the symbolic analysis of the
/// Rice Fortran D compiler (Havlak's value numbering, acknowledged in the
/// paper). GIVE-N-TAKE itself only consumes the *identity* of items and a
/// conservative overlap relation, both of which this module supplies:
/// subscripts are normalized so that `x(a(k))` for k=1..N and `x(a(l))`
/// for l=1..N canonicalize to the same section, exactly as the paper's
/// Figure 2 caption requires.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_IR_AFFINE_H
#define GNT_IR_AFFINE_H

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace gnt {

class Expr;

/// An affine expression: sum of coefficient*symbol terms plus a constant,
/// or the distinguished non-affine value. Arithmetic whose result does
/// not fit in a long long yields the non-affine value, which callers
/// treat conservatively (an unknown section overlaps everything).
class AffineExpr {
public:
  /// (symbol, coefficient) pairs sorted by symbol, with no zero
  /// coefficient.
  using TermList = std::vector<std::pair<std::string, long long>>;

  /// The non-affine ("don't know") value.
  AffineExpr() : Affine(false), Const(0) {}

  /// Creates the constant expression \p C.
  static AffineExpr constant(long long C);

  /// Creates the expression consisting of the single symbol \p Name.
  static AffineExpr symbol(const std::string &Name);

  /// Analyzes an FMini expression. Returns the non-affine value for
  /// anything that is not an integer affine combination of scalars
  /// (array references, calls, divisions, symbolic products).
  static AffineExpr fromExpr(const Expr *E);

  bool isAffine() const { return Affine; }
  bool isConstant() const { return Affine && Terms.empty(); }

  /// The constant value; only valid if isConstant().
  long long getConstant() const { return Const; }

  /// The constant term of an affine expression.
  long long getConstTerm() const { return Const; }

  /// Coefficient of \p Sym (0 if absent).
  long long coeffOf(const std::string &Sym) const {
    for (const auto &[Name, C] : Terms)
      if (Name == Sym)
        return C;
    return 0;
  }

  /// True if \p Sym occurs with nonzero coefficient.
  bool usesSymbol(const std::string &Sym) const { return coeffOf(Sym) != 0; }

  const TermList &getTerms() const { return Terms; }

  AffineExpr operator+(const AffineExpr &RHS) const;
  AffineExpr operator-(const AffineExpr &RHS) const;
  AffineExpr negate() const;
  /// Multiplication; affine only if either side is constant.
  AffineExpr operator*(const AffineExpr &RHS) const;

  /// Replaces every occurrence of \p Sym with \p Repl.
  AffineExpr substitute(const std::string &Sym, const AffineExpr &Repl) const;

  /// If (this - RHS) is a compile-time constant that fits in a long
  /// long, returns it.
  std::optional<long long> differenceFrom(const AffineExpr &RHS) const;

  bool operator==(const AffineExpr &RHS) const {
    return Affine == RHS.Affine && Const == RHS.Const && Terms == RHS.Terms;
  }
  bool operator!=(const AffineExpr &RHS) const { return !(*this == RHS); }
  bool operator<(const AffineExpr &RHS) const;

  /// Appends the rendering, e.g. "N+5", "2*i-1", "7", or "<nonaffine>",
  /// to \p Out.
  void appendTo(std::string &Out) const;

  /// The rendering appendTo() produces.
  std::string toString() const;

private:
  /// this + K * RHS without this's \p Drop term (when set), merging the
  /// two sorted term lists in one pass.
  AffineExpr addScaled(const AffineExpr &RHS, long long K,
                       const std::string *Drop = nullptr) const;

  bool Affine = true;
  TermList Terms;
  long long Const = 0;
};

/// A regular array section [Lo : Hi : Stride] with symbolic affine bounds.
/// Degenerate single elements are [e : e : 1]. An invalid (unknown)
/// section, produced from non-affine subscripts, compares equal only to
/// itself structurally and overlaps everything.
struct Section {
  AffineExpr Lo;
  AffineExpr Hi;
  long long Stride = 1;

  Section() = default;
  Section(AffineExpr Lo, AffineExpr Hi, long long Stride = 1)
      : Lo(std::move(Lo)), Hi(std::move(Hi)), Stride(Stride) {}

  /// Section holding the single element \p E.
  static Section element(const AffineExpr &E) { return Section(E, E, 1); }

  /// The unknown section (non-affine bounds).
  static Section unknown() { return Section(AffineExpr(), AffineExpr(), 1); }

  bool isKnown() const { return Lo.isAffine() && Hi.isAffine(); }

  /// True when the section is provably empty (Hi < Lo for all parameter
  /// values); only decidable for constant differences.
  bool isProvablyEmpty() const;

  /// Conservative overlap test: returns false only if the two sections
  /// are *provably* disjoint for every value of the symbolic parameters
  /// (assuming every symbol may take any integer value).
  bool mayOverlap(const Section &RHS) const;

  bool operator==(const Section &RHS) const {
    return Lo == RHS.Lo && Hi == RHS.Hi && Stride == RHS.Stride;
  }
  bool operator<(const Section &RHS) const;

  /// Appends "(lo:hi)", "(lo:hi:stride)" or "(e)" for single elements,
  /// Fortran style, to \p Out.
  void appendTo(std::string &Out) const;

  /// The rendering appendTo() produces.
  std::string toString() const;
};

} // namespace gnt

#endif // GNT_IR_AFFINE_H
