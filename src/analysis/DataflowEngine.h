//===- analysis/DataflowEngine.h - Generic monotone framework ---*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A generic iterative (monotone-framework) dataflow engine over BitVector
/// lattices, deliberately independent of the elimination solver in
/// src/dataflow: the auditor uses it to re-derive the solver's facts from
/// first principles, in the differential-checking style of validating an
/// optimized solver against a classic iterative one.
///
/// A problem is a DataflowSpec: direction (forward/backward), confluence
/// (any-path union / all-paths intersection), declarative per-node
/// gen/kill transfer functions, a boundary value for nodes with no
/// incoming flow, and optional per-edge hooks — an edge filter (which
/// edges carry flow; SYNTHETIC edges are excluded by default because they
/// are an analysis device, not control flow) and an edge transfer that
/// can replace the value flowing across an edge (used to model the
/// paper's loop-header subtleties, e.g. entry production firing on
/// non-CYCLE edges only).
///
/// The solver is a worklist seeded with every node in flow order,
/// propagating only where inputs changed; it reports iteration/visit
/// statistics so tests and tools can observe convergence behaviour.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_ANALYSIS_DATAFLOWENGINE_H
#define GNT_ANALYSIS_DATAFLOWENGINE_H

#include "interval/IntervalFlowGraph.h"
#include "support/BitVector.h"

#include <functional>
#include <vector>

namespace gnt {

enum class FlowDirection { Forward, Backward };

/// Path quantification at merge points: Any = union (may, "some path"),
/// All = intersection (must, "all paths").
enum class Confluence { Any, All };

/// A monotone dataflow problem instance over \p UniverseSize-bit sets.
struct DataflowSpec {
  FlowDirection Direction = FlowDirection::Forward;
  Confluence Meet = Confluence::Any;
  unsigned UniverseSize = 0;

  /// Declarative per-node transfer: Out = (In - Kill[n]) | Gen[n].
  /// Either may be empty (treated as all-bottom).
  std::vector<BitVector> Gen;
  std::vector<BitVector> Kill;

  /// Value at nodes with no participating incoming flow edges (the entry
  /// node for forward problems, exits for backward ones). Empty means
  /// bottom.
  BitVector Boundary;

  /// Which edges carry flow. Defaults to every non-SYNTHETIC edge.
  std::function<bool(const IfgEdge &)> EdgeFilter;

  /// Optional replacement for the value flowing across an edge. Receives
  /// the edge and the current per-node *out* values (in flow
  /// orientation); must be monotone in them and read only the edge's
  /// flow source, since the worklist revisits a node only when one of
  /// its flow predecessors changes.
  std::function<BitVector(const IfgEdge &,
                          const std::vector<BitVector> &NodeOut)>
      EdgeTransfer;
};

/// Convergence statistics of one solve.
struct DataflowStats {
  unsigned Iterations = 0;      ///< Worklist pops.
  unsigned NodeVisits = 0;      ///< Node transfer evaluations.
  unsigned EdgeEvaluations = 0; ///< Edge value computations.
  unsigned WorklistPeak = 0;    ///< Max worklist length.
};

/// Fixed-point solution. For forward problems In[n] is the value at the
/// node's entry and Out[n] at its exit; for backward problems In[n] is
/// the value at the node's *exit* and Out[n] at its *entry* (flow
/// orientation).
struct DataflowResult {
  std::vector<BitVector> In;
  std::vector<BitVector> Out;
  DataflowStats Stats;
};

/// Solves \p Spec over \p Ifg to its least (Any) or greatest (All) fixed
/// point. Interior nodes start at bottom for Any confluence and at top
/// for All confluence.
DataflowResult solveDataflow(const IntervalFlowGraph &Ifg,
                             const DataflowSpec &Spec);

} // namespace gnt

#endif // GNT_ANALYSIS_DATAFLOWENGINE_H
