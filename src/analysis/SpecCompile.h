//===- analysis/SpecCompile.h - Compile specs onto the engines --*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles a linted AnalysisSpec (analysis/SpecLang.h) onto the
/// iterative engine (analysis/DataflowEngine.h) and checks what it
/// returns.
///
/// Compilation first materializes the spec's universe: per-node TAKE /
/// GIVE / STEAL init sets plus display names, built from the same
/// analyses the placement clients use (`items` = the communication READ
/// problem, `exprs` = the PRE expression problem, `defs` = definition
/// sites from reference analysis). It then *normalizes* the transfer
/// template to gen/kill form by evaluating it at the lattice extremes:
///
///   Gen[n]  = f_n(empty)            (produced from nothing)
///   Kill[n] = ~f_n(all)             (dropped even when everything
///                                    arrives)
///
/// For a template that is lane-wise boolean and monotone in `in` — which
/// the linter guarantees — f_n(in) = (in - Kill[n]) | Gen[n] holds
/// exactly: per lane, a monotone boolean function of one variable is one
/// of {0, 1, in}, and the two extreme evaluations distinguish the three.
/// Normalization keeps every user analysis word-parallel.
///
/// Every run is checked: the engine solves the normalized problem once,
/// and one pass over the nodes then checks that the result is a fixed
/// point of the spec itself. At every node In must be the meet over the
/// spec's edges (the boundary at no-inflow nodes), and Out must be the
/// spec's own transfer template evaluated on In with evalSetExpr — not
/// through the Gen/Kill rows the engine read. A wrong row or a solver
/// bug is reported as CheckId::Diff errors. (The check does not show the
/// fixed point is the extremal one; the engine's start values, bottom
/// for Any and top for All confluence, are what make it so.)
///
//===----------------------------------------------------------------------===//

#ifndef GNT_ANALYSIS_SPECCOMPILE_H
#define GNT_ANALYSIS_SPECCOMPILE_H

#include "analysis/DataflowEngine.h"
#include "analysis/Diagnostics.h"
#include "analysis/SpecLang.h"
#include "ir/Ast.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gnt {

class Cfg;

/// A materialized spec universe: per-node init sets and item names.
struct SpecUniverseData {
  unsigned Size = 0;
  std::vector<std::string> Names;      ///< Display name per item.
  std::vector<BitVector> Take;         ///< Per node, sized to Size.
  std::vector<BitVector> Give;
  std::vector<BitVector> Steal;
};

/// Builds the init sets of \p U for \p P. \p G and \p Ifg must be the
/// normalized CFG and its interval flow graph (node ids shared).
SpecUniverseData buildSpecUniverse(SpecUniverse U, const Program &P,
                                   const Cfg &G,
                                   const IntervalFlowGraph &Ifg);

/// One spec compiled against its universe. The engine solves the
/// normalized Gen/Kill rows; the spec and the universe they came from are
/// kept so checkAnalysisFixedPoint can evaluate the spec's own template.
struct CompiledAnalysis {
  AnalysisSpec Spec;
  SpecUniverseData Data;
  unsigned NumNodes = 0;

  /// Normalized transfer: Out = (In - Kill[n]) | Gen[n]. Always sized
  /// NumNodes x Data.Size.
  std::vector<BitVector> Gen;
  std::vector<BitVector> Kill;
};

/// Compiles \p Spec (which must have linted clean) against \p Data.
/// \p NumNodes is the node count of the graph the analysis will run on.
CompiledAnalysis compileAnalysisSpec(AnalysisSpec Spec, SpecUniverseData Data,
                                     unsigned NumNodes);

/// Checks that \p In / \p Out (flow orientation) is a fixed point of
/// \p C's spec over \p Ifg, as described in the file comment. Each
/// violating node side is a CheckId::Diff error (the first ten, then one
/// summary note); empty when the solution holds.
DiagnosticSet checkAnalysisFixedPoint(const CompiledAnalysis &C,
                                      const IntervalFlowGraph &Ifg,
                                      const std::vector<BitVector> &In,
                                      const std::vector<BitVector> &Out);

/// A completed (or failed) user analysis: the solution, the fixed-point
/// check's verdict, and enough metadata to render it.
struct AnalysisRun {
  std::string Name = "user";
  SpecUniverse Universe = SpecUniverse::Items;
  unsigned UniverseSize = 0;
  std::vector<std::string> ItemNames;

  /// Per-node fixed point, in flow orientation. Empty when the spec
  /// never ran.
  std::vector<BitVector> In;
  std::vector<BitVector> Out;

  DataflowStats Stats; ///< Engine convergence statistics.

  /// Spec/lint failures, or Diff errors from the fixed-point check.
  DiagnosticSet Diags;

  bool ok() const { return !Diags.hasErrors(); }

  /// FNV-1a over every In/Out row — the cheap cross-configuration
  /// invariance witness used by the service payload and the fuzzer.
  uint64_t solutionHash() const;

  /// Human-readable per-node rendering of the solution.
  std::string renderText() const;

  /// JSON object: name, universe, ok, hash, per-node sets, and (when
  /// \p IncludeStats) the convergence statistics. Deterministic.
  std::string renderJson(bool IncludeStats) const;
};

/// Solves \p C on the engine and checks the result with
/// checkAnalysisFixedPoint.
AnalysisRun runAnalysis(const CompiledAnalysis &C,
                        const IntervalFlowGraph &Ifg);

/// End-to-end convenience: \p NameOrText is a builtin name (single
/// token: no newline, no space) or a full spec text. Parses, lints,
/// builds the universe, compiles, solves and checks; failures of any
/// stage come back as an AnalysisRun holding only diagnostics.
AnalysisRun runAnalysisSpec(const std::string &NameOrText, const Program &P,
                            const Cfg &G, const IntervalFlowGraph &Ifg);

} // namespace gnt

#endif // GNT_ANALYSIS_SPECCOMPILE_H
