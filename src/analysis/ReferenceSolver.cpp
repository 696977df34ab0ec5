//===- analysis/ReferenceSolver.cpp - Iterative Eq. 1-15 oracle -------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Every sweep re-evaluates every equation at every node from the
/// current variable values (starting at bottom everywhere) and repeats
/// until a sweep changes nothing. Because set difference against a
/// computed variable is not monotone, convergence relies on the
/// dependency DAG rather than lattice monotonicity: once a variable's
/// inputs have settled, one more evaluation settles the variable. Sweeps
/// visit the equations where Figure 15 places them — S2 (Eq. 9-10) for
/// the children of n just before S1(n) in reverse preorder, S3 in
/// preorder, then S4 — so every input is settled before it is read:
/// sweep 1 reaches the fixed point and sweep 2 re-evaluates every
/// equation to verify it. The visit order decides only how many sweeps
/// that takes, never which fixed point is verified, and unlike the
/// elimination solver nothing here *depends* on one pass sufficing.
///
//===----------------------------------------------------------------------===//

#include "analysis/ReferenceSolver.h"

#include <cassert>
#include <initializer_list>
#include <utility>

using namespace gnt;

namespace {

class IterativeSolver {
public:
  IterativeSolver(const IntervalFlowGraph &Ifg, const GntProblem &P)
      : Ifg(Ifg), P(P), N(Ifg.size()), U(P.UniverseSize) {
    assert(P.TakeInit.size() == N && P.GiveInit.size() == N &&
           P.StealInit.size() == N && "problem not sized to the graph");
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
    NoHoist.assign(N, 0);
    for (NodeId H : P.NoHoistHeaders)
      NoHoist[H] = 1;

    // The elimination schedule evaluates Eq. 9/10 for the children of
    // each header, headers in reverse preorder. On a reversed graph,
    // JUMP and SYNTHETIC edges can point into deeper intervals, whose
    // children are scheduled earlier — the one-pass solver then reads
    // bottom for the pred's STEAL_loc/GIVE_loc. That read-before-write
    // behavior is part of the AFTER problem's specification (the header
    // poisoning keeps the result safe regardless), so the oracle
    // replicates it: Eq. 9/10 inputs from later schedule positions are
    // pinned to bottom. Sweep 1 reads those rows before writing them,
    // as the one-pass solver does; the pin keeps later sweeps from
    // reading their settled values. On forward graphs every pred is
    // scheduled earlier and the pin never fires.
    S2Pos.assign(N, 0);
    unsigned Counter = 0;
    const std::vector<NodeId> &Pre = Ifg.preorder();
    for (auto It = Pre.rbegin(), End = Pre.rend(); It != End; ++It)
      for (NodeId C : Ifg.children(*It))
        S2Pos[C] = ++Counter;
  }

  ReferenceResult run(unsigned MaxSweeps) {
    if (MaxSweeps == 0)
      MaxSweeps = 4 * N + 16; // Far above any converging instance's depth.
    ReferenceResult Out;
    while (Out.Sweeps < MaxSweeps) {
      ++Out.Sweeps;
      if (!sweep()) {
        Out.Converged = true;
        break;
      }
    }
    Out.Result = std::move(R);
    return Out;
  }

private:
  /// Union of \p Var over edges of the given types and direction.
  BitVector joinOver(std::span<const IfgEdge> Edges, bool UseDst,
                     const std::vector<BitVector> &Var,
                     std::initializer_list<EdgeType> Types) const {
    BitVector Acc(U);
    for (const IfgEdge &E : Edges)
      for (EdgeType T : Types)
        if (E.Type == T) {
          Acc |= Var[UseDst ? E.Dst : E.Src];
          break;
        }
    return Acc;
  }

  /// Intersection of \p Var over edges of the given types and direction;
  /// bottom when there are none (Section 4's convention).
  BitVector meetOver(std::span<const IfgEdge> Edges, bool UseDst,
                     const std::vector<BitVector> &Var,
                     std::initializer_list<EdgeType> Types) const {
    BitVector Acc(U);
    bool First = true;
    for (const IfgEdge &E : Edges)
      for (EdgeType T : Types)
        if (E.Type == T) {
          const BitVector &V = Var[UseDst ? E.Dst : E.Src];
          if (First) {
            Acc = V;
            First = false;
          } else {
            Acc &= V;
          }
          break;
        }
    return Acc;
  }

  /// Stores \p New into Var[Node]; remembers whether anything changed.
  void set(std::vector<BitVector> &Var, NodeId Node, BitVector New) {
    if (Var[Node] != New) {
      Var[Node] = std::move(New);
      Changed = true;
    }
  }

  bool sweep() {
    using ET = EdgeType;
    Changed = false;
    const std::vector<NodeId> &Pre = Ifg.preorder();

    // S2 for the children of n, then S1(n), reverse preorder.
    for (auto It = Pre.rbegin(), End = Pre.rend(); It != End; ++It) {
      NodeId Node = *It;

      for (NodeId C : Ifg.children(Node)) {
        // Eq. 9, with preds the elimination schedule has not evaluated
        // yet pinned to bottom (see the constructor): an empty meet
        // operand, so the whole meet term vanishes.
        BitVector GL(U);
        bool First = true;
        for (const IfgEdge &E : Ifg.preds(C)) {
          if (E.Type != ET::Forward && E.Type != ET::Jump)
            continue;
          BitVector V(U);
          if (S2Pos[E.Src] < S2Pos[C])
            V = R.GiveLoc[E.Src];
          if (First) {
            GL = std::move(V);
            First = false;
          } else {
            GL &= V;
          }
        }
        GL |= R.Give[C];
        GL |= R.Take[C];
        GL.reset(R.Steal[C]);
        set(R.GiveLoc, C, std::move(GL));

        // Eq. 10, same schedule pinning: a bottom input is an empty
        // union term, so the edge is skipped.
        BitVector SL = R.Steal[C];
        for (const IfgEdge &E : Ifg.preds(C)) {
          if (S2Pos[E.Src] > S2Pos[C])
            continue;
          if (E.Type == ET::Forward || E.Type == ET::Jump) {
            BitVector T = R.StealLoc[E.Src];
            T.reset(R.GiveLoc[E.Src]);
            SL |= T;
          } else if (E.Type == ET::Synthetic) {
            SL |= R.StealLoc[E.Src];
          }
        }
        set(R.StealLoc, C, std::move(SL));
      }

      // Eq. 1 / Eq. 2.
      {
        BitVector S = P.StealInit[Node];
        BitVector G = P.GiveInit[Node];
        if (Ifg.isHeader(Node) && Ifg.lastChild(Node) != InvalidNode) {
          S |= R.StealLoc[Ifg.lastChild(Node)];
          if (!NoHoist[Node])
            G |= R.GiveLoc[Ifg.lastChild(Node)];
        }
        set(R.Steal, Node, std::move(S));
        set(R.Give, Node, std::move(G));
      }

      // Eq. 3.
      {
        BitVector B = joinOver(Ifg.succs(Node), /*UseDst=*/true, R.BlockLoc,
                               {ET::Entry});
        B |= R.Steal[Node];
        B |= R.Give[Node];
        set(R.Block, Node, std::move(B));
      }

      // Eq. 4.
      set(R.TakenOut, Node,
          meetOver(Ifg.succs(Node), /*UseDst=*/true, R.TakenIn,
                   {ET::Forward, ET::Jump, ET::Synthetic}));

      // Eq. 5.
      {
        BitVector T = P.TakeInit[Node];
        if (!NoHoist[Node]) {
          BitVector Hoisted = joinOver(Ifg.succs(Node), /*UseDst=*/true,
                                       R.TakenIn, {ET::Entry});
          Hoisted.reset(R.Steal[Node]);
          BitVector Maybe = joinOver(Ifg.succs(Node), /*UseDst=*/true,
                                     R.TakeLoc, {ET::Entry});
          Maybe &= R.TakenOut[Node];
          Maybe.reset(R.Block[Node]);
          T |= Hoisted;
          T |= Maybe;
        }
        set(R.Take, Node, std::move(T));
      }

      // Eq. 6.
      if (NoHoist[Node]) {
        set(R.TakenIn, Node, R.Take[Node]);
      } else {
        BitVector T = R.TakenOut[Node];
        T.reset(R.Block[Node]);
        T |= R.Take[Node];
        set(R.TakenIn, Node, std::move(T));
      }

      // Eq. 7.
      {
        BitVector B = joinOver(Ifg.succs(Node), /*UseDst=*/true, R.BlockLoc,
                               {ET::Forward});
        B |= R.Block[Node];
        B.reset(R.Take[Node]);
        set(R.BlockLoc, Node, std::move(B));
      }

      // Eq. 8.
      {
        BitVector T = joinOver(Ifg.succs(Node), /*UseDst=*/true, R.TakeLoc,
                               {ET::Entry, ET::Forward});
        T.reset(R.Block[Node]);
        T |= R.Take[Node];
        set(R.TakeLoc, Node, std::move(T));
      }
    }

    // S3, preorder; ROOT's placement variables stay bottom.
    for (NodeId Node : Pre) {
      if (Node == Ifg.root())
        continue;
      for (Urgency Urg : {Urgency::Eager, Urgency::Lazy}) {
        GntPlacement &Pl = Urg == Urgency::Eager ? R.Eager : R.Lazy;

        // Eq. 11, with the implemented STEAL-summary refinement and
        // NoHoist opacity.
        BitVector In = meetOver(Ifg.preds(Node), /*UseDst=*/false,
                                Pl.GivenOut, {ET::Forward, ET::Jump});
        NodeId H = Ifg.headerOf(Node);
        if (H != InvalidNode && !NoHoist[H]) {
          BitVector FromHeader = Pl.Given[H];
          FromHeader.reset(R.Steal[H]);
          In |= FromHeader;
        }
        {
          BitVector Some = joinOver(Ifg.preds(Node), /*UseDst=*/false,
                                    Pl.GivenOut, {ET::Forward, ET::Jump});
          Some &= R.TakenIn[Node];
          In |= Some;
        }
        set(Pl.GivenIn, Node, std::move(In));

        // Eq. 12.
        {
          BitVector G = Pl.GivenIn[Node];
          G |= Urg == Urgency::Eager ? R.TakenIn[Node] : R.Take[Node];
          set(Pl.Given, Node, std::move(G));
        }

        // Eq. 13.
        {
          BitVector Out = R.Give[Node];
          Out |= Pl.Given[Node];
          Out.reset(R.Steal[Node]);
          set(Pl.GivenOut, Node, std::move(Out));
        }
      }
    }

    // S4.
    for (NodeId Node : Pre) {
      for (GntPlacement *Pl : {&R.Eager, &R.Lazy}) {
        // Eq. 14.
        {
          BitVector In = Pl->Given[Node];
          In.reset(Pl->GivenIn[Node]);
          set(Pl->ResIn, Node, std::move(In));
        }
        // Eq. 15.
        {
          BitVector Out = joinOver(Ifg.succs(Node), /*UseDst=*/true,
                                   Pl->GivenIn, {ET::Forward, ET::Jump});
          Out.reset(Pl->GivenOut[Node]);
          set(Pl->ResOut, Node, std::move(Out));
        }
      }
    }

    return Changed;
  }

  const IntervalFlowGraph &Ifg;
  const GntProblem &P;
  const unsigned N, U;
  std::vector<char> NoHoist;
  /// Eq. 9/10 evaluation position of each node in the elimination
  /// schedule (root stays 0: its locals are never evaluated).
  std::vector<unsigned> S2Pos;
  GntResult R;
  bool Changed = false;
};

} // namespace

ReferenceResult gnt::solveGiveNTakeIterative(const IntervalFlowGraph &Ifg,
                                             const GntProblem &P,
                                             unsigned MaxSweeps) {
  IterativeSolver S(Ifg, P);
  return S.run(MaxSweeps);
}
