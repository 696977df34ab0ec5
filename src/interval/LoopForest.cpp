//===- interval/LoopForest.cpp - Tarjan interval (loop) forest --------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "interval/LoopForest.h"

#include "support/Support.h"

#include <algorithm>
#include <numeric>

using namespace gnt;

std::optional<LoopForest> LoopForest::compute(const Cfg &G,
                                              const Dominators &Dom,
                                              std::vector<std::string> &Errors) {
  unsigned N = G.size();
  LoopForest F;
  F.Root = G.entry();
  F.Parent.assign(N, InvalidNode);
  F.Level.assign(N, 1);
  F.BackEdgeSources.assign(N, {});
  F.Level[F.Root] = 0;

  // Find retreating edges: an edge (m, h) where h is on the DFS stack when
  // m is visited. In a reducible graph every retreating edge is a back
  // edge, i.e. h dominates m.
  std::vector<char> State(N, 0); // 0 = unvisited, 1 = on stack, 2 = done.
  std::vector<NodeId> Preorder;  // The nodes the DFS reaches, in order.
  {
    std::vector<std::pair<NodeId, unsigned>> Stack;
    Stack.push_back({F.Root, 0});
    State[F.Root] = 1;
    Preorder.push_back(F.Root);
    while (!Stack.empty()) {
      auto &[Node, NextSucc] = Stack.back();
      const auto &Succs = G.node(Node).Succs;
      if (NextSucc < Succs.size()) {
        NodeId S = Succs[NextSucc++];
        if (State[S] == 0) {
          State[S] = 1;
          Preorder.push_back(S);
          Stack.push_back({S, 0});
        } else if (State[S] == 1) {
          // Retreating edge Node -> S.
          if (S == Node) {
            Errors.push_back("self loop at node " + describeNode(G, Node));
            return std::nullopt;
          }
          if (!Dom.dominates(S, Node)) {
            Errors.push_back("irreducible control flow: retreating edge " +
                             describeNode(G, Node) + " -> " +
                             describeNode(G, S) +
                             " targets a non-dominator");
            return std::nullopt;
          }
          F.BackEdgeSources[S].push_back(Node);
        }
        continue;
      }
      State[Node] = 2;
      Stack.pop_back();
    }
  }

  // Natural loops, innermost first (Tarjan/Havlak). A header dominates
  // every loop nested in it, so it precedes their headers in DFS
  // preorder; taking headers in decreasing preorder finishes each inner
  // loop before any loop enclosing it. A finished loop is collapsed into
  // its header with a union-find, so the enclosing loop's backward walk
  // from its back edge sources steps over it as a single node: every
  // node is claimed once, by its innermost loop, and Parent records the
  // claim (InvalidNode = no loop yet).
  std::vector<NodeId> Rep(N);
  std::iota(Rep.begin(), Rep.end(), NodeId(0));
  auto find = [&](NodeId X) {
    while (Rep[X] != X)
      X = Rep[X] = Rep[Rep[X]];
    return X;
  };
  // |T(h)|; unreachable members are added below.
  std::vector<unsigned> LoopSize(N, 0);
  std::vector<NodeId> Work;
  for (auto It = Preorder.rbegin(); It != Preorder.rend(); ++It) {
    NodeId H = *It;
    if (F.BackEdgeSources[H].empty())
      continue;
    auto claim = [&](NodeId X) {
      X = find(X);
      if (X == H)
        return;
      F.Parent[X] = Rep[X] = H;
      LoopSize[H] += 1 + LoopSize[X];
      Work.push_back(X);
    };
    for (NodeId Src : F.BackEdgeSources[H])
      claim(Src);
    while (!Work.empty()) {
      NodeId M = Work.back();
      Work.pop_back();
      for (NodeId P : G.node(M).Preds)
        if (State[P])
          claim(P);
    }
  }

  // Unreachable nodes. Natural-loop membership is a backward walk that
  // also follows predecessors the DFS never reached, so an unreachable
  // node lies in every loop holding a reachable node it reaches through
  // unreachable nodes alone. Such a node may lie in several disjoint
  // loops; its parent is the smallest of them (the lowest header id on
  // a tie), which for nested loops is the innermost.
  std::vector<std::vector<NodeId>> UnreachedIn; // Loops, per node.
  if (Preorder.size() != N) {
    UnreachedIn.resize(N);
    std::vector<NodeId> Chain;
    std::vector<NodeId> WalkedFrom(N, InvalidNode);
    for (NodeId M : Preorder) {
      Chain.clear();
      for (NodeId C = M; F.Parent[C] != InvalidNode; C = F.Parent[C])
        Chain.push_back(F.Parent[C]);
      if (Chain.empty())
        continue;
      auto reach = [&](NodeId X) {
        for (NodeId P : G.node(X).Preds)
          if (!State[P] && WalkedFrom[P] != M) {
            WalkedFrom[P] = M;
            Work.push_back(P);
          }
      };
      reach(M);
      while (!Work.empty()) {
        NodeId X = Work.back();
        Work.pop_back();
        UnreachedIn[X].insert(UnreachedIn[X].end(), Chain.begin(),
                              Chain.end());
        reach(X);
      }
    }
    for (NodeId X = 0; X != N; ++X) {
      std::vector<NodeId> &Loops = UnreachedIn[X];
      std::sort(Loops.begin(), Loops.end());
      Loops.erase(std::unique(Loops.begin(), Loops.end()), Loops.end());
      for (NodeId H : Loops)
        ++LoopSize[H];
    }
  }

  // Parents and levels. A parent precedes its members in preorder, and
  // every unreachable node's parent is reachable.
  for (NodeId Node : Preorder)
    if (Node != F.Root) {
      if (F.Parent[Node] == InvalidNode)
        F.Parent[Node] = F.Root;
      F.Level[Node] = F.Level[F.Parent[Node]] + 1;
    }
  for (NodeId Node = 0; Node != N; ++Node) {
    if (State[Node])
      continue;
    NodeId Best = F.Root;
    unsigned BestSize = ~0u;
    for (NodeId H : UnreachedIn[Node])
      if (LoopSize[H] < BestSize) {
        Best = H;
        BestSize = LoopSize[H];
      }
    F.Parent[Node] = Best;
    F.Level[Node] = F.Level[Best] + 1;
  }

  return F;
}

bool LoopForest::contains(NodeId H, NodeId N) const {
  if (N == H || N == InvalidNode)
    return false;
  NodeId Cur = Parent[N];
  while (Cur != InvalidNode) {
    if (Cur == H)
      return true;
    if (Cur == Root)
      return H == Root;
    Cur = Parent[Cur];
  }
  return false;
}
