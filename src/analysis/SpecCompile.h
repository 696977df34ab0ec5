//===- analysis/SpecCompile.h - Compile specs onto the engines --*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles a linted AnalysisSpec (analysis/SpecLang.h) onto the two
/// production solvers and runs them against each other.
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
/// Normalization is what lets one compiled form drive both backends and
/// keeps every user analysis word-parallel.
///
/// Every run is differential by construction: the iterative worklist
/// engine (analysis/DataflowEngine.h) solves the problem as the oracle,
/// the flat DataflowMatrix arena sweeps solve it again, and
/// runAnalysis() demands per-node byte identity of both fixed points,
/// reporting any divergence as CheckId::Diff diagnostics. The arena
/// values are the ones shipped.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_ANALYSIS_SPECCOMPILE_H
#define GNT_ANALYSIS_SPECCOMPILE_H

#include "analysis/DataflowEngine.h"
#include "analysis/Diagnostics.h"
#include "analysis/SpecLang.h"
#include "ir/Ast.h"
#include "support/DataflowMatrix.h"

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

/// One spec compiled to normalized gen/kill form. Plain data — copyable,
/// serializable-by-hand — so backends and tests can share instances.
struct CompiledAnalysis {
  std::string Name;
  SpecUniverse Universe = SpecUniverse::Items;
  FlowDirection Direction = FlowDirection::Forward;
  Confluence Meet = Confluence::Any;
  bool IncludeSyntheticEdges = false;

  unsigned NumNodes = 0;
  unsigned UniverseSize = 0;
  std::vector<std::string> ItemNames;

  /// Normalized transfer: Out = (In - Kill[n]) | Gen[n]. Always sized
  /// NumNodes x UniverseSize.
  std::vector<BitVector> Gen;
  std::vector<BitVector> Kill;

  /// Value at no-inflow nodes.
  BitVector Boundary;
};

/// Compiles \p Spec (which must have linted clean) against \p Data.
/// \p NumNodes is the node count of the graph the analysis will run on.
CompiledAnalysis compileAnalysisSpec(const AnalysisSpec &Spec,
                                     const SpecUniverseData &Data,
                                     unsigned NumNodes);

/// Solves \p C on the iterative worklist engine — the differential
/// oracle.
DataflowResult runAnalysisIterative(const CompiledAnalysis &C,
                                    const IntervalFlowGraph &Ifg);

/// Outcome of one arena solve.
struct ArenaSpecResult {
  DataflowMatrix In;  ///< Per-node meet input (flow orientation).
  DataflowMatrix Out; ///< Per-node transfer output.
  unsigned Sweeps = 0; ///< Round-robin sweeps until the fixed point.
};

/// Solves \p C with flat round-robin word sweeps over a DataflowMatrix
/// arena.
ArenaSpecResult runAnalysisArena(const CompiledAnalysis &C,
                                 const IntervalFlowGraph &Ifg);

/// Statistics of one differential run.
struct AnalysisRunStats {
  DataflowStats Iterative; ///< Oracle convergence statistics.
  unsigned ArenaSweeps = 0;
};

/// A completed (or failed) user analysis: the arena solution, the
/// differential verdict, and enough metadata to render it.
struct AnalysisRun {
  std::string Name = "user";
  SpecUniverse Universe = SpecUniverse::Items;
  unsigned UniverseSize = 0;
  std::vector<std::string> ItemNames;

  /// Per-node fixed point (the arena backend's values; byte-identical
  /// to the oracle's whenever ok()). Empty when the spec never ran.
  std::vector<BitVector> In;
  std::vector<BitVector> Out;

  AnalysisRunStats Stats;

  /// Spec/lint failures, or Diff errors from the backend differential.
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

/// Runs \p C on both backends, checks per-node byte identity, and
/// returns the arena solution with the differential verdict.
AnalysisRun runAnalysis(const CompiledAnalysis &C,
                        const IntervalFlowGraph &Ifg);

/// End-to-end convenience: \p NameOrText is a builtin name (single
/// token: no newline, no space) or a full spec text. Parses, lints,
/// builds the universe, compiles, and runs differentially; failures of
/// any stage come back as an AnalysisRun holding only diagnostics.
AnalysisRun runAnalysisSpec(const std::string &NameOrText, const Program &P,
                            const Cfg &G, const IntervalFlowGraph &Ifg);

} // namespace gnt

#endif // GNT_ANALYSIS_SPECCOMPILE_H
