//===- analysis/GntProblems.cpp - Declarative GNT dataflow specs ------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Within one node the event order is: entry production (RES_in, fired
/// on non-CYCLE incoming edges only — Figure 14 prints header entry
/// production above the `do` line), consumption (TAKE_init), free
/// production (GIVE_init), voiding (STEAL_init), exit production
/// (RES_out). Both specs below are projections of that little
/// operational model onto a gen/kill transfer (plus, for liveness, a
/// per-edge hook for the entry production).
///
//===----------------------------------------------------------------------===//

#include "analysis/GntProblems.h"

using namespace gnt;

DataflowSpec gnt::makeAnticipabilitySpec(const GntRun &Run) {
  const GntProblem &P = Run.OrientedProblem;
  DataflowSpec Spec;
  Spec.Direction = FlowDirection::Backward;
  Spec.Meet = Confluence::Any;
  Spec.UniverseSize = P.UniverseSize;
  Spec.Gen = P.TakeInit;   // Consumption demands the item...
  Spec.Kill = P.StealInit; // ...but not across a voiding point.
  return Spec;
}

DataflowSpec gnt::makeProductionLivenessSpec(const GntRun &Run, Urgency U) {
  const GntProblem &P = Run.OrientedProblem;
  const GntPlacement &Pl =
      U == Urgency::Eager ? Run.Result.Eager : Run.Result.Lazy;
  const unsigned N = Run.OrientedIfg.size();
  DataflowSpec Spec;
  Spec.Direction = FlowDirection::Backward;
  Spec.Meet = Confluence::Any;
  Spec.UniverseSize = P.UniverseSize;
  Spec.Gen = P.TakeInit;
  // Crossing (backwards) a steal, a free production or a placed exit
  // production kills liveness: demand below those points cannot reach a
  // production above them (voided, or already resupplied).
  Spec.Kill.resize(N);
  for (NodeId Node = 0; Node != N; ++Node) {
    BitVector K = P.StealInit[Node];
    K |= P.GiveInit[Node];
    K |= Pl.ResOut[Node];
    Spec.Kill[Node] = std::move(K);
  }
  // The destination's entry production resupplies on non-CYCLE arrivals.
  const GntPlacement *PlP = &Pl;
  Spec.EdgeTransfer = [PlP](const IfgEdge &E,
                            const std::vector<BitVector> &NodeOut) {
    BitVector V = NodeOut[E.Dst]; // Flow source of a backward problem.
    if (E.Type != EdgeType::Cycle)
      V.reset(PlP->ResIn[E.Dst]);
    return V;
  };
  return Spec;
}
