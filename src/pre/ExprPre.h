//===- pre/ExprPre.h - Classical PRE on GIVE-N-TAKE -------------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Sections 1 and 6 claim GIVE-N-TAKE subsumes classical PRE
/// ("a LAZY, BEFORE problem"): common subexpression elimination and loop
/// invariant code motion fall out of the same equations that place
/// communication. This client demonstrates it:
///
///  - items are lexical arithmetic expressions (e.g. `2 * i + c`);
///  - evaluating an expression *consumes* its item;
///  - assigning to an operand *steals* every item mentioning it; a loop
///    kills index-dependent items once per iteration (at its latch) and
///    at its boundary (at its header);
///  - nothing comes for free (GIVE_init is empty) — exactly classical PRE.
///
/// The LAZY solution gives the classical placement; unlike LCM it hoists
/// invariant expressions out of potentially zero-trip DO loops
/// (speculation the paper allows for exception-free computations, so
/// division is never a candidate). The EAGER solution is a speculative
/// "earliest" placement useful for long-latency operations.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_PRE_EXPRPRE_H
#define GNT_PRE_EXPRPRE_H

#include "cfg/Cfg.h"
#include "dataflow/GiveNTake.h"
#include "dataflow/Incremental.h"
#include "dataflow/Verifier.h"

#include <map>
#include <string>
#include <vector>

namespace gnt {

/// One placed temporary computation.
struct PreInsertion {
  unsigned Item;          ///< Expression item id.
  const Stmt *S;          ///< Anchor statement.
  EmitWhere Where;        ///< Anchor position.
};

/// Outcome of expression PRE.
struct ExprPreResult {
  /// Canonical text of each expression item.
  std::vector<std::string> Exprs;

  /// Computations to insert (`t<item> = <expr>`), LAZY placement.
  std::vector<PreInsertion> Insertions;

  /// Original occurrences that become uses of the temporary: (node,
  /// item). Occurrences that are themselves insertion points are not
  /// listed.
  std::vector<std::pair<NodeId, unsigned>> Redundant;

  /// Number of static evaluation sites per item before PRE.
  std::vector<unsigned> Occurrences;

  /// The underlying framework run, for inspection and verification.
  GntRun Run;

  /// The problem fed to the framework.
  GntProblem Problem;

  /// Renders the program with `t<i> = expr` insertion lines.
  std::string annotate(const Program &P) const;

  /// Verifies the placement with the independent C1/C3/O1 checker.
  GntVerifyResult verify() const;
};

/// Runs expression PRE over \p P. \p Inc, when set, routes the solve
/// through runGiveNTakeIncremental with the context's Pre memo slot
/// (dataflow/Incremental.h), whose results are byte-identical to a cold
/// solve by contract.
ExprPreResult runExprPre(const Program &P, const Cfg &G,
                         const IntervalFlowGraph &Ifg,
                         GntIncrementalContext *Inc = nullptr);

/// Builds the expression-PRE problem for \p P over \p G without solving
/// it: items are the maximal speculable expressions (canonical texts
/// returned through \p ExprNames), TAKE_init their evaluation sites,
/// STEAL_init the operand-assignment and loop-index kills, GIVE_init
/// empty. This is the `exprs` universe of the user-specified analysis
/// subsystem (analysis/SpecCompile.h); very-busy-expressions and
/// friends reuse exactly the item granularity PRE places temporaries
/// at.
GntProblem buildExprPreProblem(const Program &P, const Cfg &G,
                               std::vector<std::string> &ExprNames);

} // namespace gnt

#endif // GNT_PRE_EXPRPRE_H
