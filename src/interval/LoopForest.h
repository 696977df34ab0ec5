//===- interval/LoopForest.h - Tarjan interval (loop) forest ----*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Computes the Tarjan-interval structure of a reducible CFG: for every
/// loop header h, the interval T(h) is the set of nodes of the natural
/// loop of h excluding h itself (the paper's Section 3.3 definition —
/// nested, strongly connected regions entered through a unique header).
/// The intervals of a reducible graph form a forest; the CFG entry node
/// acts as ROOT, a pseudo-header for the entire program with LEVEL 0.
/// The forest is built in near-linear time: each natural loop is walked
/// once, with the loops nested in it collapsed to single nodes by a
/// union-find (Tarjan/Havlak).
///
//===----------------------------------------------------------------------===//

#ifndef GNT_INTERVAL_LOOPFOREST_H
#define GNT_INTERVAL_LOOPFOREST_H

#include "cfg/Cfg.h"
#include "cfg/Dominators.h"

#include <optional>
#include <string>
#include <vector>

namespace gnt {

/// Loop nesting structure of a reducible CFG.
class LoopForest {
public:
  /// Analyzes \p G. Returns std::nullopt (with messages in \p Errors) if
  /// the graph is irreducible — a retreating edge targets a node that does
  /// not dominate its source — or malformed (self loop).
  static std::optional<LoopForest> compute(const Cfg &G,
                                           const Dominators &Dom,
                                           std::vector<std::string> &Errors);

  /// True if \p N heads a loop (ROOT is *not* reported as a header here).
  bool isHeader(NodeId N) const { return !BackEdgeSources[N].empty(); }

  /// The innermost header whose interval contains \p N; the CFG entry
  /// (ROOT) for top-level nodes. Invalid for ROOT itself.
  NodeId parent(NodeId N) const { return Parent[N]; }

  /// Loop nesting depth: ROOT is 0, top-level nodes 1, and so on.
  unsigned level(NodeId N) const { return Level[N]; }

  /// True if \p N is a member of T(\p H) at any depth. Every node is a
  /// member of T(ROOT).
  bool contains(NodeId H, NodeId N) const;

  /// The sources of back (CYCLE) edges targeting header \p H.
  const std::vector<NodeId> &backEdgeSources(NodeId H) const {
    return BackEdgeSources[H];
  }

  NodeId root() const { return Root; }

private:
  NodeId Root = InvalidNode;
  std::vector<NodeId> Parent;
  std::vector<unsigned> Level;
  std::vector<std::vector<NodeId>> BackEdgeSources;
};

} // namespace gnt

#endif // GNT_INTERVAL_LOOPFOREST_H
