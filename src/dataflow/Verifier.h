//===- dataflow/Verifier.h - C1/C3/O1 static checking -----------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Independent validation of a GIVE-N-TAKE run against the paper's
/// correctness criteria. The checks use classic *iterative* dataflow over
/// the oriented graph (deliberately sharing no code with the elimination
/// solver), so they catch errors in the solver itself:
///
///  - C3 sufficiency: every consumer is covered on all incoming paths
///    with no intervening steal — checked per solution (EAGER and LAZY);
///  - C1 balance: along every path, EAGER ("send") and LAZY ("receive")
///    productions of an item strictly alternate and end matched;
///  - O1 no reproduction: no production of an item that is must-available.
///
/// C2 safety is checked dynamically by the trace simulator (src/sim),
/// because deliberate hoisting out of zero-trip loops makes the static
/// criterion configuration-dependent (Section 3.2).
///
/// Findings are reported as structured diagnostics (analysis/Diagnostics).
/// This is the only implementation of C1/C3/O1: analysis/Auditor calls
/// verifyGntRun for them and adds the deeper passes (O2/O3/O3',
/// structural lint, differential re-derivation) in the same vocabulary.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_DATAFLOW_VERIFIER_H
#define GNT_DATAFLOW_VERIFIER_H

#include "analysis/Diagnostics.h"
#include "dataflow/GiveNTake.h"

#include <string>
#include <vector>

namespace gnt {

/// Outcome of verification. Error diagnostics are hard correctness
/// failures; notes report optimality-guideline misses.
struct GntVerifyResult {
  DiagnosticSet Diags;

  bool ok() const { return !Diags.hasErrors(); }
  bool hasNotes() const { return Diags.count(DiagSeverity::Note) != 0; }

  /// Rendered first error diagnostic, or "" (test/CLI convenience).
  std::string firstViolation() const {
    const Diagnostic *D = Diags.first(DiagSeverity::Error);
    return D ? D->render() : std::string();
  }

  /// Rendered first note diagnostic, or "".
  std::string firstNote() const {
    const Diagnostic *D = Diags.first(DiagSeverity::Note);
    return D ? D->render() : std::string();
  }

  void append(const GntVerifyResult &Other) { Diags.append(Other.Diags); }
};

/// Verifies \p Run. \p ItemNames (optional, may be empty) gives items
/// human-readable names in messages.
GntVerifyResult verifyGntRun(const GntRun &Run,
                             const std::vector<std::string> &ItemNames = {});

} // namespace gnt

#endif // GNT_DATAFLOW_VERIFIER_H
