//===- interval/IntervalFlowGraph.cpp - Paper Section 3.3 graph -------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "interval/IntervalFlowGraph.h"

#include "interval/LoopForest.h"
#include "support/Support.h"

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>

using namespace gnt;

const char *gnt::edgeTypeName(EdgeType T) {
  switch (T) {
  case EdgeType::Entry:
    return "ENTRY";
  case EdgeType::Cycle:
    return "CYCLE";
  case EdgeType::Jump:
    return "JUMP";
  case EdgeType::Forward:
    return "FORWARD";
  case EdgeType::Synthetic:
    return "SYNTHETIC";
  }
  gntUnreachable("covered switch");
}

namespace {

/// Groups \p Entries into \p N rows by \p Key (a stable counting sort):
/// each row keeps its entries' order in \p Entries.
template <typename T, typename KeyFn>
void groupRows(unsigned N, const std::vector<T> &Entries, KeyFn Key,
               std::vector<unsigned> &Offsets, std::vector<T> &Flat) {
  Offsets.assign(N + 1, 0);
  for (const T &E : Entries)
    ++Offsets[Key(E) + 1];
  for (unsigned I = 0; I != N; ++I)
    Offsets[I + 1] += Offsets[I];
  Flat.resize(Entries.size());
  std::vector<unsigned> Next(Offsets.begin(), Offsets.end() - 1);
  for (const T &E : Entries)
    Flat[Next[Key(E)]++] = E;
}

/// Replaces the CFG edge From->To with From->Mid (keeping the successor
/// slot, so branch arms retain their meaning) without adding Mid->To.
void retargetEdge(Cfg &G, NodeId From, NodeId To, NodeId Mid) {
  auto &FS = G.node(From).Succs;
  auto It = std::find(FS.begin(), FS.end(), To);
  assert(It != FS.end() && "edge to retarget does not exist");
  *It = Mid;
  auto &TP = G.node(To).Preds;
  auto It2 = std::find(TP.begin(), TP.end(), From);
  assert(It2 != TP.end() && "edge to retarget does not exist");
  TP.erase(It2);
  G.node(Mid).Preds.push_back(From);
}

/// One normalization round; returns true if the CFG changed. Rounds are
/// alternated with loop forest recomputation until a fixed point.
bool normalizeOnce(Cfg &G, const LoopForest &Forest) {
  // (1) Unique latch: every interval needs exactly one CYCLE edge whose
  // source is a direct member with no other successors (Section 3.3/3.4).
  bool Changed = false;
  unsigned OldSize = G.size();
  for (NodeId H = 0; H != OldSize; ++H) {
    if (!Forest.isHeader(H))
      continue;
    const std::vector<NodeId> &Srcs = Forest.backEdgeSources(H);
    bool NeedLatch = Srcs.size() > 1;
    if (!NeedLatch) {
      NodeId M = Srcs.front();
      NeedLatch = Forest.parent(M) != H || G.node(M).Succs.size() != 1;
    }
    if (!NeedLatch)
      continue;
    NodeId X = G.addNode(NodeKind::LoopLatch);
    CfgNode &XN = G.node(X);
    XN.EmitStmt = G.node(H).EmitStmt;
    XN.Where = G.node(H).Kind == NodeKind::LoopHeader ? EmitWhere::BodyEnd
                                                      : EmitWhere::Before;
    for (NodeId M : Srcs)
      retargetEdge(G, M, H, X);
    G.addEdge(X, H);
    Changed = true;
  }
  if (Changed)
    return true;

  // (2) Unique entry child: a header may keep only one ENTRY successor so
  // that the reversed graph has a unique CYCLE edge per interval.
  for (NodeId H = 0; H != OldSize; ++H) {
    if (!Forest.isHeader(H))
      continue;
    std::vector<NodeId> EntrySuccs;
    for (NodeId C : G.node(H).Succs)
      if (Forest.parent(C) == H)
        EntrySuccs.push_back(C);
    if (EntrySuccs.size() <= 1)
      continue;
    NodeId X = G.addNode(NodeKind::Synthetic);
    CfgNode &XN = G.node(X);
    XN.EmitStmt = G.node(H).EmitStmt;
    // The pre-body node runs once per iteration, at the body top for DO
    // loops; goto-formed loop headers re-execute per iteration anyway.
    XN.Where = G.node(H).Kind == NodeKind::LoopHeader ? EmitWhere::BodyStart
                                                      : EmitWhere::After;
    for (NodeId C : EntrySuccs)
      retargetEdge(G, H, C, X);
    // Remove the duplicate H->X slots that retargeting created, keep one.
    auto &HS = G.node(H).Succs;
    bool KeptOne = false;
    for (auto It = HS.begin(); It != HS.end();) {
      if (*It == X && KeptOne) {
        It = HS.erase(It);
      } else {
        KeptOne |= *It == X;
        ++It;
      }
    }
    // Preds of X already contain H once per retarget; dedupe likewise.
    auto &XP = G.node(X).Preds;
    XP.clear();
    XP.push_back(H);
    for (NodeId C : EntrySuccs)
      G.node(X).Succs.push_back(C), G.node(C).Preds.push_back(X);
    Changed = true;
  }
  if (Changed)
    return true;

  // (3) No critical edges.
  return G.splitAllCriticalEdges() > 0;
}

} // namespace

IntervalFlowGraph::BuildResult IntervalFlowGraph::build(Cfg &G) {
  BuildResult R;

  std::optional<LoopForest> Forest;
  for (unsigned Iter = 0;; ++Iter) {
    if (Iter > 16) {
      R.Errors.push_back("interval normalization did not converge");
      return R;
    }
    Dominators Dom(G);
    Forest = LoopForest::compute(G, Dom, R.Errors);
    if (!Forest)
      return R;
    if (!normalizeOnce(G, *Forest))
      break;
  }

  unsigned N = G.size();
  IntervalFlowGraph Ifg;
  Ifg.Root = G.entry();
  Ifg.Level.resize(N);
  Ifg.Parent.resize(N);
  Ifg.LastChild.assign(N, InvalidNode);
  Ifg.HeaderOf.assign(N, InvalidNode);

  for (NodeId Node = 0; Node != N; ++Node) {
    Ifg.Level[Node] = Forest->level(Node);
    Ifg.Parent[Node] = Node == Ifg.Root ? InvalidNode : Forest->parent(Node);
  }

  auto isHeaderOrRoot = [&](NodeId Node) {
    return Node == Ifg.Root || Forest->isHeader(Node);
  };

  // Classify every CFG edge (Section 3.3).
  std::vector<IfgEdge> Edges;
  std::vector<IfgEdge> JumpEdges;
  for (NodeId M = 0; M != N; ++M) {
    for (NodeId Node : G.node(M).Succs) {
      EdgeType T;
      if (Ifg.Parent[M] == Ifg.Parent[Node]) {
        T = EdgeType::Forward;
      } else if (isHeaderOrRoot(M) && Ifg.Parent[Node] == M) {
        T = EdgeType::Entry;
        assert(Ifg.HeaderOf[Node] == InvalidNode &&
               "node has several ENTRY edges after normalization");
        Ifg.HeaderOf[Node] = M;
      } else if (Forest->isHeader(Node) && Forest->contains(Node, M)) {
        T = EdgeType::Cycle;
        assert(Ifg.LastChild[Node] == InvalidNode &&
               "interval has several CYCLE edges after normalization");
        Ifg.LastChild[Node] = M;
      } else {
        // A jump out of one or more loops: the target's interval must
        // enclose the source.
        if (!(Ifg.Parent[Node] == Ifg.Root ||
              Forest->contains(Ifg.Parent[Node], M))) {
          R.Errors.push_back("edge " + describeNode(G, M) + " -> " +
                             describeNode(G, Node) +
                             " enters a loop without passing its header");
          return R;
        }
        T = EdgeType::Jump;
        JumpEdges.push_back({M, Node, EdgeType::Jump});
      }
      Edges.push_back({M, Node, T});
    }
  }
  Ifg.LastChild[Ifg.Root] = G.exit();

  // SYNTHETIC edges: one per interval a JUMP edge leaves, from that
  // interval's header to the jump sink (Section 3.3).
  std::set<NodeId> Poisoned;
  for (const IfgEdge &J : JumpEdges) {
    NodeId H = Ifg.Parent[J.Src];
    assert(Ifg.Level[J.Src] > Ifg.Level[J.Dst] && "jump must leave a loop");
    while (H != InvalidNode && H != Ifg.Parent[J.Dst]) {
      Edges.push_back({H, J.Dst, EdgeType::Synthetic});
      Poisoned.insert(H);
      H = Ifg.Parent[H];
    }
  }
  Ifg.PoisonedHeaders.assign(Poisoned.begin(), Poisoned.end());
  Ifg.setEdges(Edges);

  // CHILDREN(h) in FORWARD order: Kahn's algorithm over the sibling DAG
  // formed by FORWARD edges and same-level SYNTHETIC edges, taking the
  // smallest ready node first.
  {
    std::vector<NodeId> NonRoot;
    NonRoot.reserve(N);
    for (NodeId Node = 0; Node != N; ++Node)
      if (Node != Ifg.Root)
        NonRoot.push_back(Node);
    std::vector<unsigned> MemberOff;
    std::vector<NodeId> Members;
    groupRows(N, NonRoot, [&](NodeId Node) { return Ifg.Parent[Node]; },
              MemberOff, Members);

    auto isSiblingEdge = [&](const IfgEdge &E) {
      return (E.Type == EdgeType::Forward || E.Type == EdgeType::Synthetic) &&
             Ifg.Parent[E.Src] == Ifg.Parent[E.Dst];
    };
    std::vector<unsigned> Indeg(N, 0);
    for (const IfgEdge &E : Edges)
      if (isSiblingEdge(E))
        ++Indeg[E.Dst];

    std::vector<NodeId> &Order = Ifg.Children.Flat;
    Order.reserve(Members.size());
    Ifg.Children.Offsets.assign(N + 1, 0);
    std::vector<NodeId> Ready; // A min-heap.
    auto ready = [&](NodeId C) {
      Ready.push_back(C);
      std::push_heap(Ready.begin(), Ready.end(), std::greater<NodeId>());
    };
    for (NodeId H = 0; H != N; ++H) {
      Ifg.Children.Offsets[H] = static_cast<unsigned>(Order.size());
      for (unsigned I = MemberOff[H]; I != MemberOff[H + 1]; ++I)
        if (Indeg[Members[I]] == 0)
          ready(Members[I]);
      while (!Ready.empty()) {
        std::pop_heap(Ready.begin(), Ready.end(), std::greater<NodeId>());
        NodeId C = Ready.back();
        Ready.pop_back();
        Order.push_back(C);
        for (const IfgEdge &E : Ifg.succs(C))
          if (isSiblingEdge(E) && --Indeg[E.Dst] == 0)
            ready(E.Dst);
      }
      if (Order.size() - Ifg.Children.Offsets[H] !=
          MemberOff[H + 1] - MemberOff[H]) {
        R.Errors.push_back("cyclic sibling order in interval of node " +
                           describeNode(G, H));
        return R;
      }
    }
    Ifg.Children.Offsets[N] = static_cast<unsigned>(Order.size());
  }

  Ifg.computePreorder();

#ifndef NDEBUG
  // Every FORWARD, JUMP and SYNTHETIC edge must increase in PREORDER.
  {
    std::vector<unsigned> Pos(N, 0);
    for (unsigned I = 0; I != Ifg.Preorder.size(); ++I)
      Pos[Ifg.Preorder[I]] = I;
    for (const IfgEdge &E : Ifg.Succs.Flat)
      if (E.Type == EdgeType::Forward || E.Type == EdgeType::Jump ||
          E.Type == EdgeType::Synthetic)
        assert(Pos[E.Src] < Pos[E.Dst] && "preorder violates edge order");
  }
#endif

  R.Ifg = std::move(Ifg);
  return R;
}

void IntervalFlowGraph::computePreorder() {
  Preorder.clear();
  Preorder.reserve(size());
  // Headers precede their interval members (DOWNWARD); members appear in
  // the per-interval FORWARD order.
  std::vector<std::pair<NodeId, unsigned>> Stack;
  Stack.push_back({Root, 0});
  Preorder.push_back(Root);
  while (!Stack.empty()) {
    auto &[Node, NextChild] = Stack.back();
    std::span<const NodeId> Kids = children(Node);
    if (NextChild < Kids.size()) {
      NodeId C = Kids[NextChild++];
      Preorder.push_back(C);
      Stack.push_back({C, 0});
      continue;
    }
    Stack.pop_back();
  }
  assert(Preorder.size() == size() && "preorder missed nodes");
}

void IntervalFlowGraph::setEdges(const std::vector<IfgEdge> &Edges) {
  unsigned N = size();
  groupRows(N, Edges, [](const IfgEdge &E) { return E.Src; }, Succs.Offsets,
            Succs.Flat);
  groupRows(N, Edges, [](const IfgEdge &E) { return E.Dst; }, Preds.Offsets,
            Preds.Flat);
}

IntervalFlowGraph IntervalFlowGraph::reversed() const {
  IntervalFlowGraph R;
  R.Root = Root;
  R.Reversed = !Reversed;
  R.Level = Level;
  R.Parent = Parent;
  R.PoisonedHeaders = PoisonedHeaders;
  unsigned N = size();
  R.LastChild.assign(N, InvalidNode);
  R.HeaderOf.assign(N, InvalidNode);

  // Every edge flips, with ENTRY and CYCLE swapped; the flipped edges
  // keep the forward successor order.
  std::vector<IfgEdge> Edges;
  Edges.reserve(Succs.Flat.size());
  for (const IfgEdge &E : Succs.Flat) {
    EdgeType T = E.Type;
    if (T == EdgeType::Entry)
      T = EdgeType::Cycle;
    else if (T == EdgeType::Cycle)
      T = EdgeType::Entry;
    Edges.push_back({E.Dst, E.Src, T});
    if (T == EdgeType::Entry)
      R.HeaderOf[E.Src] = E.Dst;
    else if (T == EdgeType::Cycle)
      R.LastChild[E.Src] = E.Dst;
  }
  R.setEdges(Edges);
  // Note: ROOT's reversed CYCLE edge (and hence LASTCHILD) comes from the
  // old ROOT ENTRY edge automatically; the reversed ROOT has no ENTRY
  // edge, mirroring the forward graph's missing exit->ROOT cycle edge.
  R.Children = Children;
  for (NodeId H = 0; H != N; ++H)
    std::reverse(R.Children.Flat.begin() + R.Children.Offsets[H],
                 R.Children.Flat.begin() + R.Children.Offsets[H + 1]);
  R.computePreorder();
  return R;
}

std::string IntervalFlowGraph::describe(const Cfg &G) const {
  std::ostringstream OS;
  for (NodeId Node : Preorder) {
    OS << describeNode(G, Node) << "  level=" << Level[Node];
    if (isHeader(Node)) {
      OS << "  header";
      if (LastChild[Node] != InvalidNode)
        OS << " lastchild=" << LastChild[Node];
    }
    OS << "\n";
    for (const IfgEdge &E : succs(Node))
      OS << "    -> " << E.Dst << " " << edgeTypeName(E.Type) << "\n";
  }
  return OS.str();
}
