//===- analysis/ReferenceSolver.h - Iterative Eq. 1-15 oracle ---*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch re-implementation of the GIVE-N-TAKE equations
/// (Figure 13), one BitVector temporary per term, iterated from bottom
/// until a full re-evaluation sweep changes nothing. It visits the
/// equations in the Figure 15 order, so the first sweep reaches the
/// fixed point and the second verifies it; the production arena solver
/// assumes that one pass suffices, this oracle checks it. The
/// auditor's differential check compares the two solutions variable by
/// variable, catching schedule-ordering bugs, stale-read regressions
/// and any drift between the two implementations of the equations.
///
/// The implemented refinements of the production solver are replicated
/// deliberately (they are part of the specification being checked):
/// Eq. 11 subtracts the enclosing loop's STEAL summary from the header
/// in-flow, NoHoist headers drop their GIVE summary and hoisting terms
/// and are opaque to Eq. 11, and ROOT's placement variables stay bottom.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_ANALYSIS_REFERENCESOLVER_H
#define GNT_ANALYSIS_REFERENCESOLVER_H

#include "dataflow/GiveNTake.h"

namespace gnt {

/// Outcome of the iterative reference solve.
struct ReferenceResult {
  GntResult Result;
  unsigned Sweeps = 0;    ///< Full re-evaluation sweeps performed.
  bool Converged = false; ///< False if the sweep cap was hit first.
};

/// Solves \p P over \p Ifg (already oriented; see runGiveNTake) by
/// repeated full re-evaluation of Equations 1-15 until no variable
/// changes, which takes two sweeps. \p MaxSweeps caps the iteration; 0
/// picks a bound that any converging instance satisfies comfortably.
ReferenceResult solveGiveNTakeIterative(const IntervalFlowGraph &Ifg,
                                        const GntProblem &P,
                                        unsigned MaxSweeps = 0);

} // namespace gnt

#endif // GNT_ANALYSIS_REFERENCESOLVER_H
