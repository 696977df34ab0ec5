//===- dataflow/GiveNTake.cpp - The GIVE-N-TAKE framework -------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Implements the equations of the paper's Figure 13 with the evaluation
/// schedule of Figure 15. The schedule's ordering constraints (Section
/// 5.1) are met as follows:
///
///  - S1 (Eq. 1-8) is evaluated in REVERSEPREORDER, i.e. BACKWARD (every
///    FORWARD/JUMP successor first) and UPWARD (interval members before
///    their headers);
///  - S2 (Eq. 9-10) for the children of n runs in per-interval FORWARD
///    order, interleaved just before S1(n);
///  - S3 (Eq. 11-13) runs in PREORDER;
///  - S4 (Eq. 14-15) is order-free.
///
/// Each equation reads only variables that an earlier step fully
/// computed, so one evaluation per node per equation reaches the fixed
/// point (the framework is "fast" in the Graham/Wegman sense).
///
/// Two evaluators implement the schedule:
///
///  - the arena solver (solveGiveNTake): all 20 dataflow variables live
///    in one flat DataflowMatrix allocation. Each schedule step runs as
///    a few vectorizable word sweeps per node — edge-list gathers into
///    scratch rows, then one fixed-arity fused loop — with no
///    allocation during evaluation. The result's BitVectors borrow the
///    arena rows outright (GntResult::Arena keeps the storage alive),
///    so exporting costs nothing.
///  - the classic solver (solveGiveNTakeClassic): the original
///    one-BitVector-temporary-per-term evaluator, kept as the
///    differential oracle and the bench baseline.
///
/// Both walk the nodes in the same order and read the same stored values
/// at every step, so their results are bit-for-bit identical; the
/// property battery enforces this.
///
//===----------------------------------------------------------------------===//

#include "dataflow/GiveNTake.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "support/DataflowMatrix.h"
#include "support/SimdKernels.h"
#include "support/Support.h"

using namespace gnt;

std::atomic<bool> gnt::detail::InjectFusedSweepBug{false};

//===----------------------------------------------------------------------===//
// Classic evaluator (pre-arena differential oracle and bench baseline)
//===----------------------------------------------------------------------===//

namespace {

/// Union of \p Var over the \p Types-typed successors of \p N.
BitVector unionSuccs(const IntervalFlowGraph &Ifg,
                     const std::vector<BitVector> &Var, NodeId N,
                     std::initializer_list<EdgeType> Types, unsigned U) {
  BitVector R(U);
  for (const IfgEdge &E : Ifg.succs(N))
    for (EdgeType T : Types)
      if (E.Type == T) {
        R |= Var[E.Dst];
        break;
      }
  return R;
}

/// Intersection of \p Var over the \p Types-typed successors of \p N;
/// yields bottom (the empty set) if there are no such successors, as
/// Section 4 specifies.
BitVector meetSuccs(const IntervalFlowGraph &Ifg,
                    const std::vector<BitVector> &Var, NodeId N,
                    std::initializer_list<EdgeType> Types, unsigned U) {
  BitVector R(U);
  bool First = true;
  for (const IfgEdge &E : Ifg.succs(N))
    for (EdgeType T : Types)
      if (E.Type == T) {
        if (First) {
          R = Var[E.Dst];
          First = false;
        } else {
          R &= Var[E.Dst];
        }
        break;
      }
  return R;
}

BitVector unionPreds(const IntervalFlowGraph &Ifg,
                     const std::vector<BitVector> &Var, NodeId N,
                     std::initializer_list<EdgeType> Types, unsigned U) {
  BitVector R(U);
  for (const IfgEdge &E : Ifg.preds(N))
    for (EdgeType T : Types)
      if (E.Type == T) {
        R |= Var[E.Src];
        break;
      }
  return R;
}

BitVector meetPreds(const IntervalFlowGraph &Ifg,
                    const std::vector<BitVector> &Var, NodeId N,
                    std::initializer_list<EdgeType> Types, unsigned U) {
  BitVector R(U);
  bool First = true;
  for (const IfgEdge &E : Ifg.preds(N))
    for (EdgeType T : Types)
      if (E.Type == T) {
        if (First) {
          R = Var[E.Src];
          First = false;
        } else {
          R &= Var[E.Src];
        }
        break;
      }
  return R;
}

} // namespace

GntResult gnt::solveGiveNTakeClassic(const IntervalFlowGraph &Ifg,
                                     const GntProblem &P) {
  const unsigned N = Ifg.size();
  const unsigned U = P.UniverseSize;
  assert(P.TakeInit.size() == N && P.GiveInit.size() == N &&
         P.StealInit.size() == N && "problem not sized to the graph");

  GntResult R;
  auto alloc = [&](std::vector<BitVector> &V) {
    V.assign(N, BitVector(U));
  };
  alloc(R.Steal);
  alloc(R.Give);
  alloc(R.Block);
  alloc(R.TakenOut);
  alloc(R.Take);
  alloc(R.TakenIn);
  alloc(R.BlockLoc);
  alloc(R.TakeLoc);
  alloc(R.GiveLoc);
  alloc(R.StealLoc);
  for (GntPlacement *Pl : {&R.Eager, &R.Lazy}) {
    alloc(Pl->GivenIn);
    alloc(Pl->Given);
    alloc(Pl->GivenOut);
    alloc(Pl->ResIn);
    alloc(Pl->ResOut);
  }

  using ET = EdgeType;
  const std::vector<NodeId> &Pre = Ifg.preorder();

  std::vector<char> NoHoist(N, 0);
  for (NodeId H : P.NoHoistHeaders)
    NoHoist[H] = 1;

  //===------------------------------------------------------------------===//
  // Pass 1 (REVERSEPREORDER): S2 for the children of n, then S1(n).
  //===------------------------------------------------------------------===//
  for (auto It = Pre.rbegin(), E = Pre.rend(); It != E; ++It) {
    NodeId Node = *It;

    for (NodeId C : Ifg.children(Node)) {
      // Eq. 9: GIVE_loc(c) =
      //   (GIVE(c) u TAKE(c) u meet_{p in PREDS^FJ} GIVE_loc(p)) - STEAL(c)
      BitVector GL = meetPreds(Ifg, R.GiveLoc, C, {ET::Forward, ET::Jump}, U);
      GL |= R.Give[C];
      GL |= R.Take[C];
      GL.reset(R.Steal[C]);
      R.GiveLoc[C] = std::move(GL);

      // Eq. 10: STEAL_loc(c) = STEAL(c)
      //   u union_{p in PREDS^FJ} (STEAL_loc(p) - GIVE_loc(p))
      //   u union_{p in PREDS^S} STEAL_loc(p)
      BitVector SL = R.Steal[C];
      for (const IfgEdge &Edge : Ifg.preds(C)) {
        if (Edge.Type == ET::Forward || Edge.Type == ET::Jump) {
          BitVector T = R.StealLoc[Edge.Src];
          T.reset(R.GiveLoc[Edge.Src]);
          SL |= T;
        } else if (Edge.Type == ET::Synthetic) {
          // The jumped-out interval may have been left mid-flight, so its
          // resupplies (GIVE_loc) cannot be subtracted.
          SL |= R.StealLoc[Edge.Src];
        }
      }
      R.StealLoc[C] = std::move(SL);
    }

    // Eq. 1 / Eq. 2: fold the interval summary of the last child into the
    // header's own effects. NoHoist headers keep the STEAL summary (it
    // only blocks) but drop the GIVE summary: production inside a loop
    // that may run zero times must not count as available past it.
    R.Steal[Node] = P.StealInit[Node];
    R.Give[Node] = P.GiveInit[Node];
    if (Ifg.isHeader(Node) && Ifg.lastChild(Node) != InvalidNode) {
      R.Steal[Node] |= R.StealLoc[Ifg.lastChild(Node)];
      if (!NoHoist[Node])
        R.Give[Node] |= R.GiveLoc[Ifg.lastChild(Node)];
    }

    // Eq. 3: BLOCK(n) = STEAL(n) u GIVE(n) u union_{s in SUCCS^E} BLOCK_loc(s)
    R.Block[Node] = unionSuccs(Ifg, R.BlockLoc, Node, {ET::Entry}, U);
    R.Block[Node] |= R.Steal[Node];
    R.Block[Node] |= R.Give[Node];

    // Eq. 4: TAKEN_out(n) = meet_{s in SUCCS^FJS} TAKEN_in(s)
    R.TakenOut[Node] = meetSuccs(Ifg, R.TakenIn, Node,
                                 {ET::Forward, ET::Jump, ET::Synthetic}, U);

    // Eq. 5: TAKE(n) = TAKE_init(n)
    //   u (union_{s in SUCCS^E} TAKEN_in(s) - STEAL(n))
    //   u ((TAKEN_out(n) n union_{s in SUCCS^E} TAKE_loc(s)) - BLOCK(n))
    // For NoHoist headers the loop-body contributions are ignored
    // (Section 5.3's per-header alternative to STEAL_init poisoning).
    R.Take[Node] = P.TakeInit[Node];
    if (!NoHoist[Node]) {
      BitVector Hoisted = unionSuccs(Ifg, R.TakenIn, Node, {ET::Entry}, U);
      Hoisted.reset(R.Steal[Node]);
      BitVector Maybe = unionSuccs(Ifg, R.TakeLoc, Node, {ET::Entry}, U);
      Maybe &= R.TakenOut[Node];
      Maybe.reset(R.Block[Node]);
      R.Take[Node] |= Hoisted;
      R.Take[Node] |= Maybe;
    }

    // Eq. 6: TAKEN_in(n) = TAKE(n) u (TAKEN_out(n) - BLOCK(n)).
    // NoHoist headers are analysis barriers in this direction too:
    // consumption after the loop must not pull production above it, or
    // paths jumping out of the loop would see unbalanced productions.
    if (NoHoist[Node]) {
      R.TakenIn[Node] = R.Take[Node];
    } else {
      BitVector T = R.TakenOut[Node];
      T.reset(R.Block[Node]);
      T |= R.Take[Node];
      R.TakenIn[Node] = std::move(T);
    }

    // Eq. 7: BLOCK_loc(n) = (BLOCK(n) u union_{s in SUCCS^F} BLOCK_loc(s))
    //   - TAKE(n)
    {
      BitVector B = unionSuccs(Ifg, R.BlockLoc, Node, {ET::Forward}, U);
      B |= R.Block[Node];
      B.reset(R.Take[Node]);
      R.BlockLoc[Node] = std::move(B);
    }

    // Eq. 8: TAKE_loc(n) = TAKE(n)
    //   u (union_{s in SUCCS^EF} TAKE_loc(s) - BLOCK(n))
    {
      BitVector T = unionSuccs(Ifg, R.TakeLoc, Node, {ET::Entry, ET::Forward},
                               U);
      T.reset(R.Block[Node]);
      T |= R.Take[Node];
      R.TakeLoc[Node] = std::move(T);
    }
  }

  //===------------------------------------------------------------------===//
  // Pass 2 (PREORDER): S3 — Eq. 11-13 for EAGER and LAZY. ROOT's
  // placement variables stay at bottom so production is assigned to real
  // program nodes (the paper excludes ROOT from its worked example).
  //===------------------------------------------------------------------===//
  for (NodeId Node : Pre) {
    if (Node == Ifg.root())
      continue;
    for (Urgency Urg : {Urgency::Eager, Urgency::Lazy}) {
      GntPlacement &Pl = Urg == Urgency::Eager ? R.Eager : R.Lazy;

      // Eq. 11: GIVEN_in(n) = GIVEN(HEADER(n))
      //   u meet_{p in PREDS^FJ} GIVEN_out(p)
      //   u (TAKEN_in(n) n union_{q in PREDS^FJ} GIVEN_out(q))
      //
      // Soundness refinement over the paper's literal equation: the
      // in-flow from the header subtracts the loop's STEAL summary. An
      // item stolen somewhere in the body is not guaranteed at the body
      // top on iterations after the first, so consumers inside must
      // re-produce it (the literal GIVEN(HEADER) term would let a
      // pre-loop production cover every iteration).
      // NoHoist headers are fully opaque: availability does not flow
      // into the body at all, so in-loop consumers get per-iteration
      // production pairs in both solutions (keeping C1 balance).
      BitVector In =
          meetPreds(Ifg, Pl.GivenOut, Node, {ET::Forward, ET::Jump}, U);
      if (Ifg.headerOf(Node) != InvalidNode &&
          !NoHoist[Ifg.headerOf(Node)]) {
        BitVector FromHeader = Pl.Given[Ifg.headerOf(Node)];
        FromHeader.reset(R.Steal[Ifg.headerOf(Node)]);
        In |= FromHeader;
      }
      {
        BitVector Some =
            unionPreds(Ifg, Pl.GivenOut, Node, {ET::Forward, ET::Jump}, U);
        Some &= R.TakenIn[Node];
        In |= Some;
      }
      Pl.GivenIn[Node] = std::move(In);

      // Eq. 12: GIVEN(n) = GIVEN_in(n) u (EAGER ? TAKEN_in(n) : TAKE(n))
      Pl.Given[Node] = Pl.GivenIn[Node];
      Pl.Given[Node] |=
          Urg == Urgency::Eager ? R.TakenIn[Node] : R.Take[Node];

      // Eq. 13: GIVEN_out(n) = (GIVE(n) u GIVEN(n)) - STEAL(n)
      BitVector Out = R.Give[Node];
      Out |= Pl.Given[Node];
      Out.reset(R.Steal[Node]);
      Pl.GivenOut[Node] = std::move(Out);
    }
  }

  //===------------------------------------------------------------------===//
  // Pass 3 (any order): S4 — Eq. 14-15.
  //===------------------------------------------------------------------===//
  for (NodeId Node : Pre) {
    for (GntPlacement *Pl : {&R.Eager, &R.Lazy}) {
      // Eq. 14: RES_in(n) = GIVEN(n) - GIVEN_in(n)
      Pl->ResIn[Node] = Pl->Given[Node];
      Pl->ResIn[Node].reset(Pl->GivenIn[Node]);

      // Eq. 15: RES_out(n) = union_{s in SUCCS^FJ} GIVEN_in(s)
      //   - GIVEN_out(n)
      BitVector Out = unionSuccs(Ifg, Pl->GivenIn, Node,
                                 {ET::Forward, ET::Jump}, U);
      Out.reset(Pl->GivenOut[Node]);
      Pl->ResOut[Node] = std::move(Out);

      // The paper's no-critical-edge argument (Section 4.5) implies exit
      // production only lands on single-successor nodes.  JUMP edges are
      // the one exception: a jump source keeps both its fall-through and
      // its jump successor (normalization never splits jump edges), so
      // the argument does not apply there; Section 5.3's header poisoning
      // keeps such placements balanced instead.
      assert((Pl->ResOut[Node].none() || Ifg.succs(Node).size() == 1 ||
              std::any_of(Ifg.succs(Node).begin(), Ifg.succs(Node).end(),
                          [](const IfgEdge &E) {
                            return E.Type == EdgeType::Jump;
                          })) &&
             "RES_out on a multi-successor non-jump node");
    }
  }

  return R;
}

//===----------------------------------------------------------------------===//
// Arena evaluator
//===----------------------------------------------------------------------===//

namespace {

using Word = DataflowMatrix::Word;

/// Arena row layout: 20 fields x N nodes, field-major so one field's
/// rows are contiguous (the export walks field by field).
enum ArenaField : unsigned {
  FSteal,
  FGive,
  FBlock,
  FTakenOut,
  FTake,
  FTakenIn,
  FBlockLoc,
  FTakeLoc,
  FGiveLoc,
  FStealLoc,
  FEagerGivenIn,
  FEagerGiven,
  FEagerGivenOut,
  FEagerResIn,
  FEagerResOut,
  FLazyGivenIn,
  FLazyGiven,
  FLazyGivenOut,
  FLazyResIn,
  FLazyResOut,
  NumArenaFields
};

/// Reusable per-node scratch: row pointers of one edge-set x variable
/// combination, gathered once per node so the word sweeps below stay
/// free of edge-type dispatch.
using RowList = std::vector<const Word *>;

//===----------------------------------------------------------------------===//
// Row sweeps
//
// The row primitives and the fused sweeps live behind the
// support/SimdKernels registry: scalar reference loops plus
// hand-written AVX2/AVX-512/NEON variants, selected once per process
// (CPUID or GNT_KERNEL). The commented equation bodies (Eq. 1-15 word
// logic, operand roles, the HoistMask/NoHoist conventions, the Eq. 11
// soundness refinement) are documented on the scalar variant in
// SimdKernels.cpp. Aliasing contract carried over from the inline era:
// a destination is always the row of one (field, node) pair, every
// source is a different row or init storage, and several *sources* may
// alias each other (absent operands all point at one shared zero row).
//===----------------------------------------------------------------------===//

inline void rowZero(Word *D, unsigned W) {
  std::memset(D, 0, W * sizeof(Word));
}

/// D = union of the rows in \p L (bottom when empty).
inline void gatherUnion(const SolverKernels &SK, Word *D, const RowList &L,
                        unsigned W) {
  if (L.empty()) {
    rowZero(D, W);
    return;
  }
  SK.RowCopy(D, L[0], W);
  for (std::size_t I = 1, E = L.size(); I != E; ++I)
    SK.RowOr(D, L[I], W);
}

/// D = intersection of the rows in \p L (bottom when empty, as Section 4
/// specifies for empty successor sets).
inline void gatherMeet(const SolverKernels &SK, Word *D, const RowList &L,
                       unsigned W) {
  if (L.empty()) {
    rowZero(D, W);
    return;
  }
  SK.RowCopy(D, L[0], W);
  for (std::size_t I = 1, E = L.size(); I != E; ++I)
    SK.RowAnd(D, L[I], W);
}

/// The fused evaluator: identical schedule and identical reads as the
/// classic solver, but all variables live in \p M and each schedule
/// step runs as a handful of vectorizable word sweeps per node — union
/// and meet gathers over the edge lists, then one fixed-arity fused
/// pass with no allocation anywhere. (Splitting the word range into
/// cache-sized chunks was measured and rejected: the per-pass graph
/// walk and edge-list assembly repeated per chunk cost roughly 2x more
/// than the locality it bought, because each schedule step already
/// streams the arena linearly.)
void solveIntoArena(const IntervalFlowGraph &Ifg, const GntProblem &P,
                    DataflowMatrix &M,
                    const detail::ArenaSolveMasks *Masks = nullptr) {
  const unsigned N = Ifg.size();
  const unsigned W = M.wordsPerRow();
  using ET = EdgeType;
  if (W == 0)
    return; // Empty universe: nothing to compute.
  const std::vector<NodeId> &Pre = Ifg.preorder();
  const SolverKernels &SK = solverKernels();
  const bool FlipEq14 =
      detail::InjectFusedSweepBug.load(std::memory_order_relaxed);
  // Step selectors for the masked re-solve; a cold solve runs everything.
  auto RunS1 = [&](NodeId Id) { return !Masks || (*Masks->S1)[Id]; };
  auto RunS2 = [&](NodeId Id) { return !Masks || (*Masks->S2)[Id]; };
  auto RunS3 = [&](NodeId Id) { return !Masks || (*Masks->S3)[Id]; };
  auto RunS4 = [&](NodeId Id) { return !Masks || (*Masks->S4)[Id]; };

  auto row = [&](ArenaField F, NodeId Id) -> Word * {
    return M.row(static_cast<unsigned>(F) * N + Id);
  };

  // Value-level refinement of the masked re-solve (see
  // ArenaSolveMasks::Baseline): per-row change flags, seeded by the
  // init-changed nodes and updated by comparing each evaluated step's
  // output rows against the baseline arena. A candidate step whose
  // input rows all carry clear flags is skipped — its inputs byte-equal
  // the converged baseline's, so the cloned output rows already hold
  // exactly what re-evaluation would write (induction in schedule
  // order).
  const bool Refine = Masks && Masks->Baseline;
  assert((!Refine || Masks->ChangedInit) &&
         "value-refined re-solve needs the init change flags");
  std::vector<char> RowChanged;
  if (Refine)
    RowChanged.assign(static_cast<std::size_t>(NumArenaFields) * N, 0);
  auto chg = [&](ArenaField F, NodeId Id) -> bool {
    return RowChanged[static_cast<std::size_t>(F) * N + Id] != 0;
  };
  auto noteOutput = [&](ArenaField F, NodeId Id) {
    const Word *Old = Masks->Baseline->row(static_cast<unsigned>(F) * N + Id);
    RowChanged[static_cast<std::size_t>(F) * N + Id] =
        std::memcmp(row(F, Id), Old, W * sizeof(Word)) != 0;
  };
  auto markRan = [&](NodeId Id) {
    if (Masks && Masks->Ran)
      (*Masks->Ran)[Id] = 1;
  };

  std::vector<char> NoHoist(N, 0);
  for (NodeId H : P.NoHoistHeaders)
    NoHoist[H] = 1;

  // Scratch rows for the edge gathers, plus one shared always-zero row
  // standing in for absent operands (no header summary, NoHoist) so the
  // fused sweeps never branch per word.
  std::vector<Word> Scratch(static_cast<std::size_t>(7) * W, 0);
  Word *SEntryBlock = Scratch.data() + 0 * W;
  Word *SEntryTaken = Scratch.data() + 1 * W;
  Word *SEntryTake = Scratch.data() + 2 * W;
  Word *SFwdBlock = Scratch.data() + 3 * W;
  Word *SEfTake = Scratch.data() + 4 * W;
  Word *SPredUnion = Scratch.data() + 5 * W;
  const Word *ZeroRow = Scratch.data() + 6 * W; // never written

  // The arena arrives uninitialized, so every row that can be read (or
  // exported) before its equation writes it must start at bottom,
  // mirroring the classic solver's zero-initialized vectors. Three
  // classes qualify:
  //
  //  - fields gathered across edges or into header summaries (TAKEN_in,
  //    BLOCK_loc, TAKE_loc, GIVE_loc, STEAL_loc, GIVEN_out): the
  //    elimination order guarantees write-before-read along FORWARD and
  //    child edges, but a JUMP/SYNTHETIC edge may reach a row whose
  //    producer has not run yet, and that early read must see bottom;
  //  - ROOT's remaining placement rows: it is nobody's child (Eq. 9-10)
  //    and Pass 2 skips it by design, yet Pass 3 reads them and the
  //    exported result exposes them;
  //  - every row of a node outside preorder (ROOT-unreachable code,
  //    which the reference solvers leave at bottom).
  //
  // The other fields (STEAL..TAKE, GIVEN_in, GIVEN, RES_*) are written
  // by their own node's schedule step strictly before any read, so they
  // can stay uninitialized.
  //
  // A masked re-solve skips all of this: its arena arrives as a clone
  // of a converged solution, whose rows already satisfy every invariant
  // the preamble establishes (root placement rows and unreachable nodes
  // at bottom), and the no-jump gate its callers enforce removes the
  // only early reads that must see bottom rather than converged values.
  if (!Masks) {
    for (ArenaField F : {FTakenIn, FBlockLoc, FTakeLoc, FGiveLoc, FStealLoc,
                         FEagerGivenOut, FLazyGivenOut})
      for (unsigned Id = 0; Id != N; ++Id)
        rowZero(row(F, Id), W);
    for (ArenaField F :
         {FEagerGivenIn, FEagerGiven, FLazyGivenIn, FLazyGiven})
      rowZero(row(F, Ifg.root()), W);
    if (Pre.size() != N) {
      std::vector<char> Reached(N, 0);
      for (NodeId Id : Pre)
        Reached[Id] = 1;
      for (unsigned Id = 0; Id != N; ++Id)
        if (!Reached[Id])
          for (unsigned F = 0; F != NumArenaFields; ++F)
            rowZero(row(static_cast<ArenaField>(F), Id), W);
    }
  }

  RowList EntryBlockLoc, EntryTakenIn, EntryTakeLoc, FjsTakenIn, FwdBlockLoc,
      EfTakeLoc, FjPredGiveLoc, FjPredStealLoc, SynPredStealLoc,
      FjPredGivenOut, FjSuccGivenIn;

  //===------------------------------------------------------------------===//
  // Pass 1 (REVERSEPREORDER): S2 for the children of n, then S1(n).
  //===------------------------------------------------------------------===//
  for (auto It = Pre.rbegin(), E = Pre.rend(); It != E; ++It) {
    NodeId Node = *It;

    for (NodeId C : Ifg.children(Node)) {
      if (!RunS2(C))
        continue;
      if (Refine) {
        // Eq. 9-10 read the child's own Eq. 5-7 rows and its
        // FORWARD/JUMP/SYNTHETIC predecessors' S2 rows.
        bool Need = chg(FSteal, C) || chg(FGive, C) || chg(FTake, C);
        if (!Need)
          for (const IfgEdge &Edge : Ifg.preds(C))
            if (Edge.Type != ET::Entry && Edge.Type != ET::Cycle &&
                (chg(FStealLoc, Edge.Src) || chg(FGiveLoc, Edge.Src))) {
              Need = true;
              break;
            }
        if (!Need)
          continue;
      }
      markRan(C);
      FjPredGiveLoc.clear();
      FjPredStealLoc.clear();
      SynPredStealLoc.clear();
      for (const IfgEdge &Edge : Ifg.preds(C)) {
        if (Edge.Type == ET::Forward || Edge.Type == ET::Jump) {
          FjPredGiveLoc.push_back(row(FGiveLoc, Edge.Src));
          FjPredStealLoc.push_back(row(FStealLoc, Edge.Src));
        } else if (Edge.Type == ET::Synthetic) {
          SynPredStealLoc.push_back(row(FStealLoc, Edge.Src));
        }
      }
      // Eq. 10: STEAL_loc(c) = STEAL(c)
      //   u union_{p in PREDS^FJ} (STEAL_loc(p) - GIVE_loc(p))
      //   u union_{p in PREDS^S} STEAL_loc(p)
      // (S preds are jumped-out intervals left mid-flight: their
      // resupplies cannot be subtracted.)
      Word *CStealLoc = row(FStealLoc, C);
      SK.RowCopy(CStealLoc, row(FSteal, C), W);
      for (std::size_t I = 0, IE = FjPredStealLoc.size(); I != IE; ++I)
        SK.RowOrAndNot(CStealLoc, FjPredStealLoc[I], FjPredGiveLoc[I], W);
      for (const Word *S : SynPredStealLoc)
        SK.RowOr(CStealLoc, S, W);
      if (Refine)
        noteOutput(FStealLoc, C);

      // Eq. 9: GIVE_loc(c) =
      //   (GIVE(c) u TAKE(c) u meet_{p in PREDS^FJ} GIVE_loc(p))
      //   - STEAL(c)
      Word *CGiveLoc = row(FGiveLoc, C);
      gatherMeet(SK, CGiveLoc, FjPredGiveLoc, W);
      SK.FuseGiveLoc(W, CGiveLoc, row(FGive, C), row(FTake, C),
                     row(FSteal, C));
      if (Refine)
        noteOutput(FGiveLoc, C);
    }

    if (!RunS1(Node))
      continue;
    if (Refine) {
      // Eq. 1-8 read the node's init rows, its non-CYCLE successors'
      // TAKEN_in/BLOCK_loc/TAKE_loc rows, and (for a header) the last
      // child's S2 rows.
      bool Need = (*Masks->ChangedInit)[Node] != 0;
      if (!Need)
        for (const IfgEdge &Edge : Ifg.succs(Node))
          if (Edge.Type != ET::Cycle &&
              (chg(FTakenIn, Edge.Dst) || chg(FBlockLoc, Edge.Dst) ||
               chg(FTakeLoc, Edge.Dst))) {
            Need = true;
            break;
          }
      if (!Need && Ifg.isHeader(Node) && Ifg.lastChild(Node) != InvalidNode)
        Need = chg(FStealLoc, Ifg.lastChild(Node)) ||
               chg(FGiveLoc, Ifg.lastChild(Node));
      if (!Need)
        continue;
    }
    markRan(Node);
    EntryBlockLoc.clear();
    EntryTakenIn.clear();
    EntryTakeLoc.clear();
    FjsTakenIn.clear();
    FwdBlockLoc.clear();
    EfTakeLoc.clear();
    for (const IfgEdge &Edge : Ifg.succs(Node)) {
      switch (Edge.Type) {
      case ET::Entry:
        EntryBlockLoc.push_back(row(FBlockLoc, Edge.Dst));
        EntryTakenIn.push_back(row(FTakenIn, Edge.Dst));
        EntryTakeLoc.push_back(row(FTakeLoc, Edge.Dst));
        EfTakeLoc.push_back(row(FTakeLoc, Edge.Dst));
        break;
      case ET::Forward:
        FjsTakenIn.push_back(row(FTakenIn, Edge.Dst));
        FwdBlockLoc.push_back(row(FBlockLoc, Edge.Dst));
        EfTakeLoc.push_back(row(FTakeLoc, Edge.Dst));
        break;
      case ET::Jump:
      case ET::Synthetic:
        FjsTakenIn.push_back(row(FTakenIn, Edge.Dst));
        break;
      case ET::Cycle:
        break;
      }
    }

    // Eq. 1 / Eq. 2 header summaries: NoHoist headers keep the STEAL
    // summary (it only blocks) but drop the GIVE summary — production
    // inside a loop that may run zero times must not count as available
    // past it.
    const Word *SumSteal = ZeroRow;
    const Word *SumGive = ZeroRow;
    if (Ifg.isHeader(Node) && Ifg.lastChild(Node) != InvalidNode) {
      SumSteal = row(FStealLoc, Ifg.lastChild(Node));
      if (!NoHoist[Node])
        SumGive = row(FGiveLoc, Ifg.lastChild(Node));
    }
    const bool Hoistable = !NoHoist[Node];

    // Edge gathers as plain row sweeps; Eq. 4's meet lands straight in
    // the TAKEN_out row. NoHoist headers ignore the loop-body TAKE
    // contributions (Section 5.3's per-header alternative to STEAL_init
    // poisoning), expressed as zero rows so fuseS1 stays branch-free.
    Word *RTakenOut = row(FTakenOut, Node);
    gatherMeet(SK, RTakenOut, FjsTakenIn, W);
    gatherUnion(SK, SEntryBlock, EntryBlockLoc, W);
    gatherUnion(SK, SFwdBlock, FwdBlockLoc, W);
    gatherUnion(SK, SEfTake, EfTakeLoc, W);
    const Word *EntryTaken = ZeroRow;
    const Word *EntryTake = ZeroRow;
    if (Hoistable) {
      gatherUnion(SK, SEntryTaken, EntryTakenIn, W);
      gatherUnion(SK, SEntryTake, EntryTakeLoc, W);
      EntryTaken = SEntryTaken;
      EntryTake = SEntryTake;
    }

    SK.FuseS1(W, P.StealInit[Node].words(), P.GiveInit[Node].words(),
              P.TakeInit[Node].words(), SumSteal, SumGive,
              SEntryBlock, EntryTaken, EntryTake, SFwdBlock, SEfTake,
              Hoistable ? ~Word(0) : Word(0), RTakenOut, row(FSteal, Node),
              row(FGive, Node), row(FBlock, Node), row(FTake, Node),
              row(FTakenIn, Node), row(FBlockLoc, Node), row(FTakeLoc, Node));
    if (Refine)
      for (ArenaField F : {FTakenOut, FSteal, FGive, FBlock, FTake, FTakenIn,
                           FBlockLoc, FTakeLoc})
        noteOutput(F, Node);
  }

  //===------------------------------------------------------------------===//
  // Pass 2 (PREORDER): S3 — Eq. 11-13 for EAGER and LAZY. ROOT's
  // placement variables stay at bottom so production is assigned to real
  // program nodes (the paper excludes ROOT from its worked example).
  //===------------------------------------------------------------------===//
  for (NodeId Node : Pre) {
    if (Node == Ifg.root() || !RunS3(Node))
      continue;
    const NodeId Header = Ifg.headerOf(Node);
    const bool FromHeader = Header != InvalidNode && !NoHoist[Header];
    if (Refine) {
      // Eq. 11-13 read the node's own Eq. 3-7 rows, the (hoistable)
      // header's Eq. 2 summary and Eq. 12 rows, and the FORWARD/JUMP
      // predecessors' Eq. 13 rows, for both urgencies. ROOT's Eq. 12
      // rows are pinned at bottom (Pass 2 skips it), so their flags
      // stay clear and top-level siblings only rekindle on a changed
      // ROOT STEAL summary.
      bool Need = chg(FTakenIn, Node) || chg(FTake, Node) ||
                  chg(FGive, Node) || chg(FSteal, Node);
      if (!Need && FromHeader)
        Need = chg(FSteal, Header) || chg(FEagerGiven, Header) ||
               chg(FLazyGiven, Header);
      if (!Need)
        for (const IfgEdge &Edge : Ifg.preds(Node))
          if ((Edge.Type == ET::Forward || Edge.Type == ET::Jump) &&
              (chg(FEagerGivenOut, Edge.Src) ||
               chg(FLazyGivenOut, Edge.Src))) {
            Need = true;
            break;
          }
      if (!Need)
        continue;
    }
    markRan(Node);
    const Word *HdrSteal = FromHeader ? row(FSteal, Header) : ZeroRow;
    const Word *NTakenIn = row(FTakenIn, Node);
    const Word *NTake = row(FTake, Node);
    const Word *NGive = row(FGive, Node);
    const Word *NSteal = row(FSteal, Node);

    for (Urgency Urg : {Urgency::Eager, Urgency::Lazy}) {
      const bool Eager = Urg == Urgency::Eager;
      const ArenaField GivenInF = Eager ? FEagerGivenIn : FLazyGivenIn;
      const ArenaField GivenF = Eager ? FEagerGiven : FLazyGiven;
      const ArenaField GivenOutF = Eager ? FEagerGivenOut : FLazyGivenOut;

      FjPredGivenOut.clear();
      for (const IfgEdge &Edge : Ifg.preds(Node))
        if (Edge.Type == ET::Forward || Edge.Type == ET::Jump)
          FjPredGivenOut.push_back(row(GivenOutF, Edge.Src));
      const Word *HdrGiven = FromHeader ? row(GivenF, Header) : ZeroRow;

      // Predecessor meet lands straight in the GIVEN_in row, the union
      // in scratch; fuseS3 finishes Eq. 11-13 in one sweep.
      Word *RGivenIn = row(GivenInF, Node);
      gatherMeet(SK, RGivenIn, FjPredGivenOut, W);
      gatherUnion(SK, SPredUnion, FjPredGivenOut, W);
      SK.FuseS3(W, RGivenIn, SPredUnion, HdrGiven, HdrSteal, NTakenIn,
                Eager ? NTakenIn : NTake, NGive, NSteal, row(GivenF, Node),
                row(GivenOutF, Node));
      if (Refine)
        for (ArenaField F : {GivenInF, GivenF, GivenOutF})
          noteOutput(F, Node);
    }
  }

  //===------------------------------------------------------------------===//
  // Pass 3 (any order): S4 — Eq. 14-15.
  //===------------------------------------------------------------------===//
  for (NodeId Node : Pre) {
    if (!RunS4(Node))
      continue;
    if (Refine) {
      // Eq. 14-15 read the node's own placement rows and the
      // FORWARD/JUMP successors' GIVEN_in rows; nothing reads RES_in /
      // RES_out downstream, so their flags are never recorded.
      bool Need = chg(FEagerGivenIn, Node) || chg(FEagerGiven, Node) ||
                  chg(FEagerGivenOut, Node) || chg(FLazyGivenIn, Node) ||
                  chg(FLazyGiven, Node) || chg(FLazyGivenOut, Node);
      if (!Need)
        for (const IfgEdge &Edge : Ifg.succs(Node))
          if ((Edge.Type == ET::Forward || Edge.Type == ET::Jump) &&
              (chg(FEagerGivenIn, Edge.Dst) || chg(FLazyGivenIn, Edge.Dst))) {
            Need = true;
            break;
          }
      if (!Need)
        continue;
    }
    markRan(Node);
    for (unsigned PlIdx = 0; PlIdx != 2; ++PlIdx) {
      const bool Eager = PlIdx == 0;
      const ArenaField GivenInF = Eager ? FEagerGivenIn : FLazyGivenIn;
      const Word *RGivenIn = row(GivenInF, Node);
      const Word *RGiven = row(Eager ? FEagerGiven : FLazyGiven, Node);
      const Word *RGivenOut =
          row(Eager ? FEagerGivenOut : FLazyGivenOut, Node);
      Word *RResIn = row(Eager ? FEagerResIn : FLazyResIn, Node);
      Word *RResOut = row(Eager ? FEagerResOut : FLazyResOut, Node);

      FjSuccGivenIn.clear();
      for (const IfgEdge &Edge : Ifg.succs(Node))
        if (Edge.Type == ET::Forward || Edge.Type == ET::Jump)
          FjSuccGivenIn.push_back(row(GivenInF, Edge.Dst));

      // Eq. 15's successor union lands straight in the RES_out row;
      // fuseS4 finishes Eq. 14-15.
      gatherUnion(SK, RResOut, FjSuccGivenIn, W);
      Word AnyOut = SK.FuseS4(W, FlipEq14, RGiven, RGivenIn, RGivenOut,
                              RResIn, RResOut);
      (void)AnyOut;

      // The paper's no-critical-edge argument (Section 4.5) implies exit
      // production only lands on single-successor nodes.  JUMP edges are
      // the one exception: a jump source keeps both its fall-through and
      // its jump successor (normalization never splits jump edges), so
      // the argument does not apply there; Section 5.3's header poisoning
      // keeps such placements balanced instead.
      assert((AnyOut == 0 || Ifg.succs(Node).size() == 1 ||
              std::any_of(Ifg.succs(Node).begin(), Ifg.succs(Node).end(),
                          [](const IfgEdge &Edge) {
                            return Edge.Type == EdgeType::Jump;
                          })) &&
             "RES_out on a multi-successor non-jump node");
    }
  }
}

/// Exposes the arena as the GntResult's BitVector fields. No words are
/// copied: every field vector borrows its rows, and the result keeps
/// the arena alive through its Arena handle. The forEachGntField
/// enumeration order matches the ArenaField layout.
GntResult exportArena(std::shared_ptr<DataflowMatrix> M, unsigned NumNodes) {
  // Bottom-row contract: every row an Uninit writer produced must honor
  // the tail-word invariant before it is borrowed into BitVectors. The
  // Debug 0xA5 poison makes a never-written row trip this whenever the
  // universe is not a word multiple.
  assert(M->rowsExportable() &&
         "arena row exported with bits past the universe "
         "(Uninit writer broke the bottom-row contract)");
  GntResult R;
  const unsigned Bits = M->bits();
  unsigned Field = 0;
  forEachGntField(R, [&](const char *, std::vector<BitVector> &V) {
    V.reserve(NumNodes);
    for (unsigned Id = 0; Id != NumNodes; ++Id)
      V.push_back(
          BitVector::borrowWords(M->row(Field * NumNodes + Id), Bits));
    ++Field;
  });
  assert(Field == NumArenaFields && "field enumeration out of sync");
  R.Arena = std::move(M);
  return R;
}

} // namespace

void gnt::detail::resolveArenaMasked(const IntervalFlowGraph &Ifg,
                                     const GntProblem &P, DataflowMatrix &M,
                                     const ArenaSolveMasks &Masks) {
  assert(Masks.S1 && Masks.S2 && Masks.S3 && Masks.S4 &&
         "masked re-solve needs all four step masks");
  assert(M.rows() == NumArenaFields * Ifg.size() &&
         "arena not laid out for this graph");
  solveIntoArena(Ifg, P, M, &Masks);
}

GntResult gnt::detail::exportGntArena(std::shared_ptr<DataflowMatrix> M,
                                      unsigned NumNodes) {
  return exportArena(std::move(M), NumNodes);
}

GntResult gnt::solveGiveNTake(const IntervalFlowGraph &Ifg,
                              const GntProblem &P) {
  const unsigned N = Ifg.size();
  assert(P.TakeInit.size() == N && P.GiveInit.size() == N &&
         P.StealInit.size() == N && "problem not sized to the graph");

  auto M = std::make_shared<DataflowMatrix>(NumArenaFields * N,
                                            P.UniverseSize,
                                            DataflowMatrix::Uninit);
  solveIntoArena(Ifg, P, *M);
  return exportArena(std::move(M), N);
}

//===----------------------------------------------------------------------===//
// Oriented driver
//===----------------------------------------------------------------------===//

GntRun gnt::orientGiveNTake(const IntervalFlowGraph &Forward,
                            const GntProblem &P) {
  GntRun Run;
  Run.OrientedProblem = P;
  if (P.Dir == Direction::Before) {
    Run.OrientedIfg = Forward;
  } else {
    Run.OrientedIfg = Forward.reversed();
    // Section 5.3: reversed JUMP edges would enter loops mid-body, so
    // every interval a jump leaves must not hoist production.
    for (NodeId H : Forward.jumpPoisonedHeaders())
      Run.OrientedProblem.StealInit[H].set();
  }
  return Run;
}

GntRun gnt::runGiveNTake(const IntervalFlowGraph &Forward,
                         const GntProblem &P) {
  GntRun Run = orientGiveNTake(Forward, P);
  Run.Result = solveGiveNTake(Run.OrientedIfg, Run.OrientedProblem);
  return Run;
}
