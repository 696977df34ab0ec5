//===- analysis/SpecLang.h - User-specified analysis specs ------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small declarative language for user-specified monotone dataflow
/// analyses, turning the generic engine into an analysis server instead
/// of a single hardcoded client. A spec is a handful of `key value`
/// lines (`#` starts a comment, blank lines are ignored):
///
/// \code
///   analysis liveness          # display name (default "user")
///   universe items             # items | exprs | defs
///   direction backward         # forward | backward
///   confluence any             # any (union) | all (intersection)
///   gen take                   # gen/kill sugar over the init sets...
///   kill give | steal
///   transfer out = (in - steal) | take   # ...or one explicit template
///   boundary empty             # empty | all
///   edges real                 # real (non-SYNTHETIC, default) | all
///   start exit                 # optional boundary anchor: entry | exit
/// \endcode
///
/// Set expressions combine the atoms `in`, `take`, `give`, `steal`,
/// `empty`, `all` with `~` (complement), `&`, `|` and `-` (difference);
/// `&` binds tighter than `|`/`-`, which associate left. `gen`/`kill`
/// sugar means Out = (In - kill) | gen and may not mention `in`.
///
/// Specs are statically checked by a linter before anything runs. Every
/// violation is a structured CheckId::Spec Diagnostic whose message
/// starts with a stable rule identifier:
///
///   unknown-universe             universe is not items/exprs/defs
///   unknown-key                  unrecognized key line
///   duplicate-key                key stated twice (or transfer + sugar)
///   bad-value                    malformed value for a known key
///   transfer-syntax              set expression does not parse,
///                                nests deeper than MaxSpecExprDepth,
///                                or `in` inside gen/kill sugar
///   missing-transfer             neither transfer nor gen/kill given
///   non-monotone                 transfer template maps in=1 below
///                                in=0 somewhere (exhaustively checked
///                                lane-wise, with a concrete witness)
///   all-confluence-no-boundary   All confluence without an explicit
///                                boundary line (must-problems start
///                                interior nodes at top; an unstated
///                                boundary is almost always a bug)
///   start-direction-mismatch     start entry with backward flow, or
///                                start exit with forward flow
///
/// The transfer template is lane-wise boolean over four atoms, so the
/// monotonicity lint is exact, not heuristic: all eight (take, give,
/// steal) corners are evaluated at in=0 and in=1 on a 1-bit universe.
///
/// Compilation onto the engines lives in analysis/SpecCompile.h; four
/// built-in specs (liveness, availability, very-busy, reaching) ship as
/// ordinary spec texts in builtinAnalysisSpecs().
///
//===----------------------------------------------------------------------===//

#ifndef GNT_ANALYSIS_SPECLANG_H
#define GNT_ANALYSIS_SPECLANG_H

#include "analysis/DataflowEngine.h"
#include "analysis/Diagnostics.h"
#include "support/BitVector.h"

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace gnt {

/// Which item universe a spec analyzes. The compiler (SpecCompile.h)
/// materializes the per-node TAKE/GIVE/STEAL init sets for each.
enum class SpecUniverse {
  Items, ///< Distributed-array items of the communication READ problem.
  Exprs, ///< Maximal speculable expressions (the PRE universe).
  Defs,  ///< Definition sites of items ("x(i)@n7" granularity).
};

/// "items", "exprs", "defs".
const char *specUniverseName(SpecUniverse U);

/// Deepest set expression the parser accepts: every `~`, parenthesized
/// group and binary operator adds a level above its operands, so a
/// left-associative chain `in|in|...` nests one level per operator.
constexpr unsigned MaxSpecExprDepth = 256;

/// Atoms of the set-expression language.
enum class SpecAtom { In, Take, Give, Steal, Empty, All };

/// One node of a parsed set expression.
struct SpecSetExpr {
  enum class Kind { Atom, Complement, Union, Intersect, Difference };
  Kind K = Kind::Atom;
  SpecAtom Atom = SpecAtom::Empty;            ///< For Kind::Atom.
  std::unique_ptr<SpecSetExpr> LHS;           ///< Operand(s); Complement
  std::unique_ptr<SpecSetExpr> RHS;           ///< uses LHS only.
};

/// Evaluates \p E over a \p U-bit universe. Lane-wise: every operator
/// is a bitwise boolean, so this one evaluator serves both the
/// compile-time Gen/Kill normalization (full-width vectors) and the
/// linter's exact monotonicity check (1-bit vectors).
BitVector evalSetExpr(const SpecSetExpr &E, unsigned U, const BitVector &In,
                      const BitVector &Take, const BitVector &Give,
                      const BitVector &Steal);

/// One parsed analysis spec. Movable, not copyable (owns expression
/// trees); keep the original text around for re-parsing when a copy is
/// genuinely needed.
struct AnalysisSpec {
  std::string Name = "user";
  SpecUniverse Universe = SpecUniverse::Items;
  FlowDirection Direction = FlowDirection::Forward;
  Confluence Meet = Confluence::Any;

  /// Explicit transfer template (`transfer out = ...`), or null when
  /// the gen/kill sugar was used.
  std::unique_ptr<SpecSetExpr> Transfer;
  /// Sugar: Out = (In - KillExpr) | GenExpr. Either may be null
  /// (meaning empty). Mutually exclusive with Transfer.
  std::unique_ptr<SpecSetExpr> GenExpr;
  std::unique_ptr<SpecSetExpr> KillExpr;

  /// Boundary value for no-inflow nodes: all-ones when BoundaryAll,
  /// else empty. BoundarySet records whether the spec said so
  /// explicitly (the All-confluence lint requires it).
  bool BoundaryAll = false;
  bool BoundarySet = false;

  /// `edges all` includes SYNTHETIC edges in the flow; the default
  /// (`edges real`) excludes them, matching the engine's default.
  bool IncludeSyntheticEdges = false;

  /// Optional declared boundary anchor, checked against Direction.
  enum class StartAnchor { Default, Entry, Exit };
  StartAnchor Start = StartAnchor::Default;

  /// The exact source text the spec was parsed from.
  std::string Text;
};

/// Outcome of parsing (and optionally linting) one spec text.
struct SpecParseResult {
  /// Engaged only when the text parsed completely.
  std::optional<AnalysisSpec> Spec;
  DiagnosticSet Diags;
  bool ok() const { return Spec.has_value() && !Diags.hasErrors(); }
};

/// Parses \p Text. Syntax-level rules (unknown-universe, unknown-key,
/// duplicate-key, bad-value, transfer-syntax, missing-transfer) are
/// reported here; semantic lints run in lintAnalysisSpec().
SpecParseResult parseAnalysisSpec(const std::string &Text);

/// Semantic lint of a parsed spec: non-monotone,
/// all-confluence-no-boundary, start-direction-mismatch.
DiagnosticSet lintAnalysisSpec(const AnalysisSpec &Spec);

/// parseAnalysisSpec + lintAnalysisSpec with merged diagnostics — what
/// every production consumer calls.
SpecParseResult parseAndLintAnalysisSpec(const std::string &Text);

/// The built-in specs, in stable order: liveness, availability,
/// very-busy, reaching. Each is an ordinary spec text that parses and
/// lints clean; nothing about them is special-cased downstream.
const std::vector<std::pair<std::string, std::string>> &
builtinAnalysisSpecs();

/// Text of the built-in spec named \p Name, or nullptr.
const char *builtinAnalysisSpecText(const std::string &Name);

} // namespace gnt

#endif // GNT_ANALYSIS_SPECLANG_H
