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
/// The solver (solveGiveNTake) keeps all 20 dataflow variables in one
/// flat DataflowMatrix allocation. Each schedule step runs as a few
/// vectorizable word sweeps per node — edge-list gathers into scratch
/// rows, then one fixed-arity fused loop — with no allocation during
/// evaluation. The result's BitVectors borrow the arena rows outright
/// (GntResult::Arena keeps the storage alive), so exporting costs
/// nothing. The independent oracle is analysis/ReferenceSolver: it
/// evaluates the same equations one BitVector term at a time and
/// verifies the fixed point instead of assuming it; the auditor and the
/// property battery compare the two field by field.
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
// Per-node word loops over arena rows. The gathers fold an edge list
// into one row with the support/SimdKernels.h primitives; each fused
// sweep then finishes one schedule step's equations in a single pass.
// Every variable is a pure per-word bitwise function of its operands,
// so the fused loops reproduce a per-equation evaluation bit for bit.
// Aliasing contract: a destination is always the row of one (field,
// node) pair, every source is a different row or init storage, and
// several *sources* may alias each other (absent operands all point at
// one shared zero row).
//===----------------------------------------------------------------------===//

inline void rowZero(Word *D, unsigned W) {
  std::memset(D, 0, W * sizeof(Word));
}

/// D = union of the rows in \p L (bottom when empty).
inline void gatherUnion(Word *D, const RowList &L, unsigned W) {
  if (L.empty()) {
    rowZero(D, W);
    return;
  }
  rowCopy(D, L[0], W);
  for (std::size_t I = 1, E = L.size(); I != E; ++I)
    rowOr(D, L[I], W);
}

/// D = intersection of the rows in \p L (bottom when empty, as Section 4
/// specifies for empty successor sets).
inline void gatherMeet(Word *D, const RowList &L, unsigned W) {
  if (L.empty()) {
    rowZero(D, W);
    return;
  }
  rowCopy(D, L[0], W);
  for (std::size_t I = 1, E = L.size(); I != E; ++I)
    rowAnd(D, L[I], W);
}

/// Eq. 9's finisher: GIVE_loc(c) = (meet | GIVE(c) | TAKE(c)) - STEAL(c),
/// with \p D arriving holding the predecessor meet.
inline void fuseGiveLoc(unsigned W, Word *__restrict D,
                        const Word *__restrict Give,
                        const Word *__restrict Take,
                        const Word *__restrict Steal) {
  for (unsigned K = 0; K != W; ++K)
    D[K] = (D[K] | Give[K] | Take[K]) & ~Steal[K];
}

/// S1(n), Eq. 1-3 and 5-8, in one pass; Eq. 4's TAKEN_out arrives
/// precomputed in \p TakenOut. The Sum* rows are the Eq. 1/2 header
/// summaries of the last child, the Entry* rows the ENTRY-successor
/// unions of BLOCK_loc, TAKEN_in and TAKE_loc, FwdBlock the FORWARD
/// union of BLOCK_loc and EfTake the ENTRY+FORWARD union of TAKE_loc.
/// \p HoistMask is all ones for an ordinary node and zero for a NoHoist
/// header, whose caller also passes zero rows for the loop-body TAKE
/// terms, so the loop never branches per word.
inline void
fuseS1(unsigned W, const Word *__restrict StealI, const Word *__restrict GiveI,
       const Word *__restrict TakeI, const Word *__restrict SumSteal,
       const Word *__restrict SumGive, const Word *__restrict EntryBlock,
       const Word *__restrict EntryTaken, const Word *__restrict EntryTake,
       const Word *__restrict FwdBlock, const Word *__restrict EfTake,
       Word HoistMask, const Word *__restrict TakenOut,
       Word *__restrict RSteal, Word *__restrict RGive,
       Word *__restrict RBlock, Word *__restrict RTake,
       Word *__restrict RTakenIn, Word *__restrict RBlockLoc,
       Word *__restrict RTakeLoc) {
  for (unsigned K = 0; K != W; ++K) {
    // Eq. 1: STEAL(n) = STEAL_init(n) u STEAL_loc(LASTCHILD(n))
    Word Steal = StealI[K] | SumSteal[K];
    // Eq. 2: GIVE(n) = GIVE_init(n) u GIVE_loc(LASTCHILD(n))
    Word Give = GiveI[K] | SumGive[K];
    // Eq. 3: BLOCK(n) = STEAL(n) u GIVE(n) u union_{s in SUCCS^E} BLOCK_loc(s)
    Word Block = Steal | Give | EntryBlock[K];
    Word TOut = TakenOut[K];
    // Eq. 5: TAKE(n) = TAKE_init(n)
    //   u (union_{s in SUCCS^E} TAKEN_in(s) - STEAL(n))
    //   u ((TAKEN_out(n) n union_{s in SUCCS^E} TAKE_loc(s)) - BLOCK(n))
    Word Take =
        TakeI[K] | (EntryTaken[K] & ~Steal) | (EntryTake[K] & TOut & ~Block);
    // Eq. 6: TAKEN_in(n) = TAKE(n) u (TAKEN_out(n) - BLOCK(n)); a
    // NoHoist header keeps only TAKE(n): it is an analysis barrier in
    // this direction too, since consumption after the loop must not pull
    // production above it, or paths jumping out of the loop would see
    // unbalanced productions.
    Word TakenIn = Take | (TOut & ~Block & HoistMask);
    // Eq. 7: BLOCK_loc(n) = (BLOCK(n) u union_{s in SUCCS^F} BLOCK_loc(s))
    //   - TAKE(n)
    Word BlockLoc = (Block | FwdBlock[K]) & ~Take;
    // Eq. 8: TAKE_loc(n) = TAKE(n)
    //   u (union_{s in SUCCS^EF} TAKE_loc(s) - BLOCK(n))
    Word TakeLoc = (EfTake[K] & ~Block) | Take;
    RSteal[K] = Steal;
    RGive[K] = Give;
    RBlock[K] = Block;
    RTake[K] = Take;
    RTakenIn[K] = TakenIn;
    RBlockLoc[K] = BlockLoc;
    RTakeLoc[K] = TakeLoc;
  }
}

/// S3(n), Eq. 11-13 for one urgency. \p RGivenIn arrives holding the
/// FORWARD/JUMP predecessor meet of GIVEN_out and \p PredUnion their
/// union; \p HdrGiven / \p HdrSteal are the hoistable header's GIVEN
/// and STEAL rows (zero rows otherwise); \p NUrgent is TAKEN_in(n) for
/// EAGER and TAKE(n) for LAZY.
inline void fuseS3(unsigned W, Word *__restrict RGivenIn,
                   const Word *__restrict PredUnion,
                   const Word *__restrict HdrGiven,
                   const Word *__restrict HdrSteal,
                   const Word *__restrict NTakenIn,
                   const Word *__restrict NUrgent,
                   const Word *__restrict NGive,
                   const Word *__restrict NSteal, Word *__restrict RGiven,
                   Word *__restrict RGivenOut) {
  for (unsigned K = 0; K != W; ++K) {
    // Eq. 11: GIVEN_in(n) = (GIVEN(HEADER(n)) - STEAL(HEADER(n)))
    //   u meet_{p in PREDS^FJ} GIVEN_out(p)
    //   u (TAKEN_in(n) n union_{q in PREDS^FJ} GIVEN_out(q))
    // The header's STEAL summary is a soundness refinement of the
    // paper's literal equation: an item stolen somewhere in the body is
    // not guaranteed at the body top on iterations after the first, so
    // consumers inside must re-produce it. NoHoist headers pass zero
    // rows, so availability does not flow into their bodies at all and
    // in-loop consumers get per-iteration production pairs in both
    // solutions (keeping C1 balance).
    Word In = RGivenIn[K] | (HdrGiven[K] & ~HdrSteal[K]) |
              (PredUnion[K] & NTakenIn[K]);
    // Eq. 12: GIVEN(n) = GIVEN_in(n) u (EAGER ? TAKEN_in(n) : TAKE(n))
    Word Given = In | NUrgent[K];
    RGivenIn[K] = In;
    RGiven[K] = Given;
    // Eq. 13: GIVEN_out(n) = (GIVE(n) u GIVEN(n)) - STEAL(n)
    RGivenOut[K] = (NGive[K] | Given) & ~NSteal[K];
  }
}

/// S4(n), Eq. 14-15 for one urgency. \p RResOut arrives holding the
/// FORWARD/JUMP successor union of GIVEN_in. Returns the OR over the
/// final RES_out words (the no-critical-edge assert). \p FlipEq14 is
/// the fuzz fault injection: it drops Eq. 14's complement.
inline Word fuseS4(unsigned W, bool FlipEq14, const Word *__restrict RGiven,
                   const Word *__restrict RGivenIn,
                   const Word *__restrict RGivenOut,
                   Word *__restrict RResIn, Word *__restrict RResOut) {
  // As a mask the injection keeps the loop branch-free:
  // GivenIn ^ ~0 == ~GivenIn.
  const Word Inv = FlipEq14 ? Word(0) : ~Word(0);
  Word AnyOut = 0;
  for (unsigned K = 0; K != W; ++K) {
    // Eq. 14: RES_in(n) = GIVEN(n) - GIVEN_in(n)
    RResIn[K] = RGiven[K] & (RGivenIn[K] ^ Inv);
    // Eq. 15: RES_out(n) = union_{s in SUCCS^FJ} GIVEN_in(s) - GIVEN_out(n)
    Word Out = RResOut[K] & ~RGivenOut[K];
    RResOut[K] = Out;
    AnyOut |= Out;
  }
  return AnyOut;
}

/// The fused evaluator: the Figure 15 schedule with every variable in
/// \p M, each schedule step run as a handful of vectorizable word
/// sweeps per node — union and meet gathers over the edge lists, then
/// one fixed-arity fused pass with no allocation anywhere. (Splitting
/// the word range into cache-sized chunks was measured and rejected:
/// the per-pass graph walk and edge-list assembly repeated per chunk
/// cost roughly 2x more than the locality it bought, because each
/// schedule step already streams the arena linearly.)
void solveIntoArena(const IntervalFlowGraph &Ifg, const GntProblem &P,
                    DataflowMatrix &M,
                    const detail::ArenaSolveMasks *Masks = nullptr) {
  const unsigned N = Ifg.size();
  const unsigned W = M.wordsPerRow();
  using ET = EdgeType;
  if (W == 0)
    return; // Empty universe: nothing to compute.
  const std::vector<NodeId> &Pre = Ifg.preorder();
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
  // exported) before its equation writes it must start at bottom, as
  // the reference solver's zero-initialized vectors do. Three classes
  // qualify:
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
      rowCopy(CStealLoc, row(FSteal, C), W);
      for (std::size_t I = 0, IE = FjPredStealLoc.size(); I != IE; ++I)
        rowOrAndNot(CStealLoc, FjPredStealLoc[I], FjPredGiveLoc[I], W);
      for (const Word *S : SynPredStealLoc)
        rowOr(CStealLoc, S, W);
      if (Refine)
        noteOutput(FStealLoc, C);

      // Eq. 9: GIVE_loc(c) =
      //   (GIVE(c) u TAKE(c) u meet_{p in PREDS^FJ} GIVE_loc(p))
      //   - STEAL(c)
      Word *CGiveLoc = row(FGiveLoc, C);
      gatherMeet(CGiveLoc, FjPredGiveLoc, W);
      fuseGiveLoc(W, CGiveLoc, row(FGive, C), row(FTake, C), row(FSteal, C));
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
    gatherMeet(RTakenOut, FjsTakenIn, W);
    gatherUnion(SEntryBlock, EntryBlockLoc, W);
    gatherUnion(SFwdBlock, FwdBlockLoc, W);
    gatherUnion(SEfTake, EfTakeLoc, W);
    const Word *EntryTaken = ZeroRow;
    const Word *EntryTake = ZeroRow;
    if (Hoistable) {
      gatherUnion(SEntryTaken, EntryTakenIn, W);
      gatherUnion(SEntryTake, EntryTakeLoc, W);
      EntryTaken = SEntryTaken;
      EntryTake = SEntryTake;
    }

    fuseS1(W, P.StealInit[Node].words(), P.GiveInit[Node].words(),
           P.TakeInit[Node].words(), SumSteal, SumGive, SEntryBlock,
           EntryTaken, EntryTake, SFwdBlock, SEfTake,
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
      gatherMeet(RGivenIn, FjPredGivenOut, W);
      gatherUnion(SPredUnion, FjPredGivenOut, W);
      fuseS3(W, RGivenIn, SPredUnion, HdrGiven, HdrSteal, NTakenIn,
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
      gatherUnion(RResOut, FjSuccGivenIn, W);
      Word AnyOut =
          fuseS4(W, FlipEq14, RGiven, RGivenIn, RGivenOut, RResIn, RResOut);
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
      V.emplace_back(BitVector::Borrow, M->row(Field * NumNodes + Id), Bits);
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
