//===- analysis/Auditor.h - GIVE-N-TAKE static auditor ----------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static auditor re-checks a GIVE-N-TAKE run from first principles,
/// independently of the elimination solver that produced it:
///
///  - IFG:  structural lint of the interval flow graph (interval
///          nesting, unique CYCLE/ENTRY edges, no critical edges,
///          SYNTHETIC edge projection consistency, preorder sanity);
///  - C1, C3, O1: balance, sufficiency and no re-production, from
///          dataflow/Verifier's verifyGntRun (the one implementation of
///          these checks), passed through the per-check cap;
///  - O2:   no production that no consumer ever uses (engine-solved
///          production liveness; warnings — conservative placements
///          forced by JUMP-edge projection can trip it legitimately);
///  - O3:   eager placements produce only anticipated items; O3' checks
///          the lazy side plus the exact Eq. 14/15 placement invariants;
///  - DIFF: every dataflow variable compared against the iterative
///          reference solver, plus the LAZY-subset-of-EAGER laws.
///
/// Results come back as a DiagnosticSet plus engine statistics, so both
/// humans (text), tools (JSON) and tests (check IDs + locations) consume
/// the same findings.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_ANALYSIS_AUDITOR_H
#define GNT_ANALYSIS_AUDITOR_H

#include "analysis/DataflowEngine.h"
#include "analysis/Diagnostics.h"
#include "dataflow/GiveNTake.h"

#include <string>
#include <vector>

namespace gnt {

/// Which audit passes to run and how chatty to be.
struct AuditOptions {
  bool CheckStructure = true;    ///< IFG lint.
  bool CheckCorrectness = true;  ///< C1 and C3.
  bool CheckOptimality = true;   ///< O1, O2, O3, O3'.
  bool CheckDifferential = true; ///< Reference-solver comparison.
  /// Per-check diagnostic cap; excess findings are counted, summarized
  /// in one trailing note, and dropped. 0 means unlimited.
  unsigned MaxDiagsPerCheck = 25;
};

/// Work the audit performed, for observability and engine tests.
struct AuditStats {
  unsigned EngineSolves = 0;  ///< Dataflow problems solved.
  DataflowStats Engine;       ///< Statistics summed over those solves.
  unsigned ReferenceSweeps = 0; ///< Iterative oracle sweeps (0 if skipped).
};

/// Outcome of an audit.
struct AuditResult {
  DiagnosticSet Diags;
  AuditStats Stats;
  bool ok() const { return !Diags.hasErrors(); }
};

/// Structural lint of \p Ifg alone (also run by auditGntRun). Works on
/// both orientations; reversed graphs are checked against the reversed
/// invariants.
AuditResult auditIfg(const IntervalFlowGraph &Ifg);

/// Full audit of a solved run. \p ItemNames (parallel to the item
/// universe) makes diagnostics human-readable when available.
AuditResult auditGntRun(const GntRun &Run,
                        const std::vector<std::string> &ItemNames = {},
                        const AuditOptions &Opts = {});

} // namespace gnt

#endif // GNT_ANALYSIS_AUDITOR_H
