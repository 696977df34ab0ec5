//===- interval/IntervalFlowGraph.h - Paper Section 3.3 graph ---*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interval flow graph G = (N, E) of Section 3.3: a reducible CFG
/// whose edges are classified as ENTRY, CYCLE, JUMP or FORWARD, extended
/// with SYNTHETIC edges that project each JUMP edge onto the headers of
/// the intervals it leaves. Construction normalizes the CFG so that:
///
///  - every interval has exactly one CYCLE edge, whose source
///    (LASTCHILD) is a direct interval member with no other successors;
///  - every header has exactly one ENTRY successor (the entry child) —
///    stronger than the paper requires for BEFORE problems, but it makes
///    the reversed graph used for AFTER problems satisfy the unique-CYCLE
///    rule mechanically (Section 5.3);
///  - no critical edges remain (synthetic nodes are inserted).
///
/// The CFG entry node acts as ROOT, a level-0 header for the whole
/// program. The class also provides the traversal machinery of Section
/// 3.4: a PREORDER numbering (FORWARD and DOWNWARD) and per-interval
/// forward-ordered children lists.
///
/// Successors, predecessors and children are stored as compressed rows
/// (one offset array and one flat array each) and read as spans, so
/// copying or reversing a graph is a few bulk copies.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_INTERVAL_INTERVALFLOWGRAPH_H
#define GNT_INTERVAL_INTERVALFLOWGRAPH_H

#include "cfg/Cfg.h"

#include <optional>
#include <span>
#include <string>
#include <vector>

namespace gnt {

/// Edge classification of Section 3.3.
enum class EdgeType {
  Entry,     ///< Header into its interval.
  Cycle,     ///< Interval member back to its header.
  Jump,      ///< Out of a loop, not to the header.
  Forward,   ///< Within one interval (between siblings).
  Synthetic, ///< Header of a jumped-out-of interval to the jump sink.
};

/// A typed edge of the interval flow graph.
struct IfgEdge {
  NodeId Src = InvalidNode;
  NodeId Dst = InvalidNode;
  EdgeType Type = EdgeType::Forward;
};

struct IfgBuildResult;

/// The interval flow graph. Node ids are shared with the underlying Cfg.
class IntervalFlowGraph {
public:
  using BuildResult = IfgBuildResult;

  /// Builds the interval flow graph of \p G, normalizing \p G in place
  /// (latch/entry-child insertion and critical-edge splitting may add
  /// synthetic nodes). Fails on irreducible graphs.
  static BuildResult build(Cfg &G);

  unsigned size() const { return static_cast<unsigned>(Level.size()); }
  NodeId root() const { return Root; }

  /// Loop nesting level; LEVEL(ROOT) = 0.
  unsigned level(NodeId N) const { return Level[N]; }

  /// Header of the immediately enclosing interval J(n); InvalidNode for
  /// ROOT.
  NodeId parent(NodeId N) const { return Parent[N]; }

  /// True for loop headers and for ROOT.
  bool isHeader(NodeId N) const { return !children(N).empty() || N == Root; }

  /// LASTCHILD(h): the source of the unique CYCLE edge into \p H. For
  /// ROOT (which has no CYCLE edge) this is the program exit node.
  NodeId lastChild(NodeId H) const { return LastChild[H]; }

  /// HEADER(n): the source of the ENTRY edge into \p N, or InvalidNode.
  NodeId headerOf(NodeId N) const { return HeaderOf[N]; }

  /// CHILDREN(h) in FORWARD order (per-interval topological order).
  std::span<const NodeId> children(NodeId H) const { return Children.row(H); }

  /// Outgoing edges of \p N, in insertion order.
  std::span<const IfgEdge> succs(NodeId N) const { return Succs.row(N); }
  /// Incoming edges of \p N, in insertion order.
  std::span<const IfgEdge> preds(NodeId N) const { return Preds.row(N); }

  /// Nodes in PREORDER (FORWARD and DOWNWARD); ROOT first.
  const std::vector<NodeId> &preorder() const { return Preorder; }

  /// True if the graph contains any JUMP edge.
  bool hasJumpEdges() const { return !PoisonedHeaders.empty(); }

  /// Headers of every interval that some JUMP edge leaves. When solving
  /// an AFTER problem these intervals must not hoist production
  /// (Section 5.3); the problem driver seeds STEAL_init = TOP for them.
  const std::vector<NodeId> &jumpPoisonedHeaders() const {
    return PoisonedHeaders;
  }

  /// Returns the reversed view used for AFTER problems: same nodes, same
  /// interval structure (Section 5.3), edges reversed with ENTRY and
  /// CYCLE swapped.
  IntervalFlowGraph reversed() const;

  /// True for graphs produced by reversed().
  bool isReversed() const { return Reversed; }

  /// Renders nodes with their levels, interval memberships and typed
  /// edges; for debugging and the documentation.
  std::string describe(const Cfg &G) const;

private:
  /// Per-node rows: node n's entries are Flat[Offsets[n], Offsets[n+1]).
  template <typename T> struct CompressedRows {
    std::vector<unsigned> Offsets;
    std::vector<T> Flat;

    std::span<const T> row(NodeId N) const {
      return {Flat.data() + Offsets[N], Flat.data() + Offsets[N + 1]};
    }
  };

  /// Sets Succs and Preds from \p Edges, keeping their order within each
  /// row.
  void setEdges(const std::vector<IfgEdge> &Edges);

  void computePreorder();

  NodeId Root = InvalidNode;
  bool Reversed = false;
  std::vector<unsigned> Level;
  std::vector<NodeId> Parent;
  std::vector<NodeId> LastChild;
  std::vector<NodeId> HeaderOf;
  CompressedRows<NodeId> Children;
  CompressedRows<IfgEdge> Succs;
  CompressedRows<IfgEdge> Preds;
  std::vector<NodeId> Preorder;
  std::vector<NodeId> PoisonedHeaders;
};

/// Outcome of IntervalFlowGraph::build().
struct IfgBuildResult {
  std::optional<IntervalFlowGraph> Ifg;
  std::vector<std::string> Errors;

  bool success() const { return Ifg.has_value(); }
};

/// Spelled-out edge type name ("ENTRY", "CYCLE", ...).
const char *edgeTypeName(EdgeType T);

} // namespace gnt

#endif // GNT_INTERVAL_INTERVALFLOWGRAPH_H
