//===- analysis/GntProblems.h - Declarative GNT dataflow specs --*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declarative monotone-framework problem definitions over a GIVE-N-TAKE
/// run, expressed as gen/kill transfer functions (plus a per-edge hook
/// for the paper's loop-header placement semantics). The auditor solves
/// these with the generic DataflowEngine to independently re-derive facts
/// the elimination solver only establishes implicitly:
///
///  - anticipability: items consumed on some path onward before being
///    stolen (drives speculation accounting);
///  - production liveness: placed productions that some path actually
///    consumes (drives the O2 useless-producer audit).
///
/// Both specs are formulated on the run's *oriented* graph and problem
/// (AFTER problems run reversed); the liveness spec's edge hook keeps a
/// reference into \p Run, which must outlive the spec.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_ANALYSIS_GNTPROBLEMS_H
#define GNT_ANALYSIS_GNTPROBLEMS_H

#include "analysis/DataflowEngine.h"
#include "dataflow/GiveNTake.h"

namespace gnt {

/// May-anticipability of consumption, backward over real edges: an item
/// is anticipated at a point if some path onward consumes it before it
/// is stolen. Pure gen/kill (TAKE_init generates, STEAL_init kills).
DataflowSpec makeAnticipabilitySpec(const GntRun &Run);

/// May-liveness of solution \p U's productions, backward over real
/// edges: an item is live at a point if some path onward consumes it
/// before a steal, a free production (GIVE_init) or another placed
/// production resupplies it. The value at node n is the liveness just
/// below n's entry-production point.
DataflowSpec makeProductionLivenessSpec(const GntRun &Run, Urgency U);

} // namespace gnt

#endif // GNT_ANALYSIS_GNTPROBLEMS_H
