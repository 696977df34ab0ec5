//===- dataflow/GiveNTake.h - The GIVE-N-TAKE framework ---------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's core contribution: the GIVE-N-TAKE balanced code placement
/// framework. Given per-node initial sets over an abstract item universe —
///
///   TAKE_init(n)  items consumed at n,
///   GIVE_init(n)  items produced "for free" at n (side effects),
///   STEAL_init(n) items whose production is voided at n —
///
/// the solver evaluates Equations 1-15 (Figure 13) with the three-pass
/// elimination schedule of Figure 15, producing the EAGER and LAZY
/// placements RES_in/RES_out for every node. Each equation is evaluated
/// exactly once per node, so the solver runs in O(E) set operations.
///
/// BEFORE problems (produce before consuming, e.g. message receives) run
/// on the forward interval flow graph; AFTER problems (produce after
/// consuming, e.g. writing results back) run on the reversed graph, with
/// every interval that a JUMP edge leaves poisoned via STEAL_init = TOP
/// to prevent unsafe hoisting (Section 5.3).
///
/// The solver runs fused word sweeps over one flat DataflowMatrix arena
/// (solveGiveNTake); dataflow/Incremental.h re-solves only the schedule
/// steps an edit can reach. Both are byte-identical to the iterative
/// reference solver (analysis/ReferenceSolver.h), the differential
/// oracle of the auditor and the property battery.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_DATAFLOW_GIVENTAKE_H
#define GNT_DATAFLOW_GIVENTAKE_H

#include "interval/IntervalFlowGraph.h"
#include "support/BitVector.h"

#include <atomic>
#include <memory>
#include <vector>

namespace gnt {

class DataflowMatrix;

namespace detail {
/// Test-only fault injection: when set, the arena evaluator's fused S4
/// sweep computes Eq. 14 as GIVEN n GIVEN_in instead of
/// GIVEN - GIVEN_in. The reference solver is unaffected, so the audit's
/// differential check, which the fuzz oracle runs on every input, must
/// flag every program with a nonempty placement. Exists solely so
/// gnt-fuzz --inject-fused-sweep-bug and FuzzTest can prove the harness
/// catches and minimizes a real solver bug; never set on a production
/// path.
extern std::atomic<bool> InjectFusedSweepBug;
} // namespace detail

/// Whether items must be produced before or after they are consumed.
enum class Direction { Before, After };

/// Whether to produce as early as possible (e.g. sends) or as late as
/// possible (e.g. receives). For AFTER problems "early" and "late" are
/// relative to the reversed flow of control.
enum class Urgency { Eager, Lazy };

/// Inputs to a GIVE-N-TAKE instance. All vectors are indexed by CFG node
/// id and sized to the item universe.
struct GntProblem {
  Direction Dir = Direction::Before;
  unsigned UniverseSize = 0;
  std::vector<BitVector> TakeInit;
  std::vector<BitVector> GiveInit;
  std::vector<BitVector> StealInit;

  /// Headers treated pessimistically for zero-trip execution: the
  /// Equation 5 hoisting terms are suppressed (consumption from the loop
  /// body is not pulled into the header) and the Equation 2 GIVE summary
  /// is dropped (in-body production does not count as available past the
  /// loop). Unrelated production can still cross such loops. This is the
  /// per-loop opt-out of Sections 4.1 / 5.3.
  std::vector<NodeId> NoHoistHeaders;

  GntProblem() = default;
  GntProblem(unsigned NumNodes, unsigned UniverseSize,
             Direction Dir = Direction::Before)
      : Dir(Dir), UniverseSize(UniverseSize),
        TakeInit(NumNodes, BitVector(UniverseSize)),
        GiveInit(NumNodes, BitVector(UniverseSize)),
        StealInit(NumNodes, BitVector(UniverseSize)) {}
};

/// One placement solution (either EAGER or LAZY): Equations 11-15.
struct GntPlacement {
  std::vector<BitVector> GivenIn;  ///< Eq. 11.
  std::vector<BitVector> Given;    ///< Eq. 12.
  std::vector<BitVector> GivenOut; ///< Eq. 13.
  std::vector<BitVector> ResIn;    ///< Eq. 14: production at node entry.
  std::vector<BitVector> ResOut;   ///< Eq. 15: production at node exit.
};

/// Full solver output, exposing every intermediate dataflow variable so
/// tests can validate the paper's Section 4 worked example directly.
/// All variables are expressed in the *solving* orientation: for AFTER
/// problems, "in" refers to the node exit in program order.
struct GntResult {
  std::vector<BitVector> Steal;    ///< Eq. 1.
  std::vector<BitVector> Give;     ///< Eq. 2.
  std::vector<BitVector> Block;    ///< Eq. 3.
  std::vector<BitVector> TakenOut; ///< Eq. 4.
  std::vector<BitVector> Take;     ///< Eq. 5.
  std::vector<BitVector> TakenIn;  ///< Eq. 6.
  std::vector<BitVector> BlockLoc; ///< Eq. 7.
  std::vector<BitVector> TakeLoc;  ///< Eq. 8.
  std::vector<BitVector> GiveLoc;  ///< Eq. 9.
  std::vector<BitVector> StealLoc; ///< Eq. 10.
  GntPlacement Eager;
  GntPlacement Lazy;

  /// Keep-alive handle for the DataflowMatrix arena backing the field
  /// BitVectors when this result came from the arena solver (the
  /// vectors then borrow their words from the arena instead of owning
  /// copies — see BitVector::borrowWords). Null for results assembled
  /// from standalone BitVectors, e.g. by the reference oracle. Copying
  /// a GntResult deep-copies every BitVector into owned storage either
  /// way, so the handle never outlives its users.
  std::shared_ptr<void> Arena;
};

/// Applies \p Fn("NAME", FieldVector) to every dataflow variable of a
/// GntResult: the ten Figure 13 variables plus the five placement
/// variables of each urgency (20 vectors total). The arena export and
/// the differential test battery iterate fields through this helper, so
/// both stay exhaustive by construction when a field is added.
template <typename ResultT, typename Fn>
void forEachGntField(ResultT &&R, Fn &&F) {
  F("STEAL", R.Steal);
  F("GIVE", R.Give);
  F("BLOCK", R.Block);
  F("TAKEN_out", R.TakenOut);
  F("TAKE", R.Take);
  F("TAKEN_in", R.TakenIn);
  F("BLOCK_loc", R.BlockLoc);
  F("TAKE_loc", R.TakeLoc);
  F("GIVE_loc", R.GiveLoc);
  F("STEAL_loc", R.StealLoc);
  F("EAGER.GIVEN_in", R.Eager.GivenIn);
  F("EAGER.GIVEN", R.Eager.Given);
  F("EAGER.GIVEN_out", R.Eager.GivenOut);
  F("EAGER.RES_in", R.Eager.ResIn);
  F("EAGER.RES_out", R.Eager.ResOut);
  F("LAZY.GIVEN_in", R.Lazy.GivenIn);
  F("LAZY.GIVEN", R.Lazy.Given);
  F("LAZY.GIVEN_out", R.Lazy.GivenOut);
  F("LAZY.RES_in", R.Lazy.ResIn);
  F("LAZY.RES_out", R.Lazy.ResOut);
}

/// Runs the three-pass elimination solver of Figure 15 on \p Ifg. The
/// graph must already be oriented for the problem direction (callers
/// normally use runGiveNTake() below). ROOT's placement variables are
/// pinned to bottom so production lands on real program nodes, matching
/// the paper's worked example.
///
/// The evaluator works on a flat DataflowMatrix arena (one contiguous
/// allocation for all 20 variables) and fuses the equations of each
/// schedule step into a single word loop per node; the result's
/// BitVector fields borrow the arena rows. Values are bit-for-bit
/// identical to the reference solver's (solveGiveNTakeIterative in
/// analysis/ReferenceSolver.h).
GntResult solveGiveNTake(const IntervalFlowGraph &Ifg, const GntProblem &P);

/// A complete, oriented GIVE-N-TAKE run.
struct GntRun {
  /// The graph the solver ran on: \p Forward itself for BEFORE problems,
  /// its reversal for AFTER problems.
  IntervalFlowGraph OrientedIfg;
  /// The problem after AFTER-direction jump poisoning.
  GntProblem OrientedProblem;
  GntResult Result;

  /// Production at the *program-order* entry of node \p N for \p U.
  const BitVector &resAtEntry(Urgency U, NodeId N) const {
    const GntPlacement &P = U == Urgency::Eager ? Result.Eager : Result.Lazy;
    return OrientedProblem.Dir == Direction::Before ? P.ResIn[N]
                                                    : P.ResOut[N];
  }

  /// Production at the *program-order* exit of node \p N for \p U.
  const BitVector &resAtExit(Urgency U, NodeId N) const {
    const GntPlacement &P = U == Urgency::Eager ? Result.Eager : Result.Lazy;
    return OrientedProblem.Dir == Direction::Before ? P.ResOut[N]
                                                    : P.ResIn[N];
  }
};

/// The orientation rule every solve entry point shares: returns a run
/// whose graph is \p Forward for BEFORE problems and its reversal for
/// AFTER problems, whose problem is \p P with every interval a JUMP
/// edge leaves poisoned (STEAL_init = TOP) for AFTER problems, and
/// whose Result is still empty.
GntRun orientGiveNTake(const IntervalFlowGraph &Forward, const GntProblem &P);

/// Orients the problem (orientGiveNTake) and solves it with the arena
/// solver.
GntRun runGiveNTake(const IntervalFlowGraph &Forward, const GntProblem &P);

namespace detail {

/// Node masks selecting which schedule steps the masked re-solve
/// evaluates (dataflow/Incremental.cpp computes them as the dirty
/// closure of the nodes whose init rows changed). Each vector has one
/// char per node; nonzero means "recompute this node's step". A step
/// skipped for node n leaves n's rows exactly as the caller seeded
/// them, so the arena must arrive holding a previously converged
/// solution for the same graph.
struct ArenaSolveMasks {
  const std::vector<char> *S1 = nullptr; ///< Pass 1 gathers + Eq. 1-8.
  const std::vector<char> *S2 = nullptr; ///< Eq. 9-10 at child visit.
  const std::vector<char> *S3 = nullptr; ///< Pass 2, Eq. 11-13.
  const std::vector<char> *S4 = nullptr; ///< Pass 3, Eq. 14-15.

  /// Optional value-level refinement. The step masks above are a
  /// structural over-approximation: they mark every step whose inputs
  /// *could* transitively depend on a changed init row, which on a
  /// straight-line interval chain degenerates to all steps (ROOT's
  /// Eq. 1-2 summaries chain through every sibling's S2 row). With
  /// \p Baseline set to the previously converged arena and
  /// \p ChangedInit to the per-node init-digest change flags, the
  /// evaluator prunes exactly: a candidate step runs only when one of
  /// the rows it reads has actually changed relative to \p Baseline
  /// (tracked by comparing each evaluated step's output rows against
  /// the baseline bytes). Skipping is sound by induction over the
  /// schedule — a skipped step's inputs are byte-equal to the baseline
  /// solve's, so its cloned output rows are exactly what re-evaluation
  /// would write.
  const DataflowMatrix *Baseline = nullptr;
  /// One char per node; nonzero marks nodes whose TAKE/GIVE/STEAL init
  /// rows differ from the baseline solve. Required when \p Baseline is
  /// set.
  const std::vector<char> *ChangedInit = nullptr;
  /// Out-param (may be null): one char per node, set to 1 when any
  /// schedule step for that node was actually evaluated. S2 runs are
  /// attributed to the child whose rows they write.
  std::vector<char> *Ran = nullptr;
};

/// Re-runs the fused evaluator over \p M, restricted to the nodes
/// selected by \p Masks. Unlike a cold solve the arena is NOT
/// zero-initialized first: \p M must hold a complete converged solution
/// for the same (graph, universe) whose non-dirty rows double as the
/// skipped steps' values. Sound only on graphs whose oriented form has
/// no JUMP/SYNTHETIC edges — early reads across those edges must see
/// bottom on a cold solve, which a warm arena cannot provide; callers
/// (runGiveNTakeIncremental) gate on that and fall back to a full
/// solve.
void resolveArenaMasked(const IntervalFlowGraph &Ifg, const GntProblem &P,
                        DataflowMatrix &M, const ArenaSolveMasks &Masks);

/// Exports \p M as a GntResult exactly like the internal arena export:
/// every field BitVector borrows its words and the result keeps the
/// arena alive through GntResult::Arena. \p M must be laid out
/// field-major as 20 x \p NumNodes rows (the layout every arena entry
/// point produces).
GntResult exportGntArena(std::shared_ptr<DataflowMatrix> M,
                         unsigned NumNodes);

} // namespace detail

} // namespace gnt

#endif // GNT_DATAFLOW_GIVENTAKE_H
