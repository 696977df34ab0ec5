//===- analysis/DataflowEngine.cpp - Generic monotone framework -------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/DataflowEngine.h"

#include <algorithm>
#include <cassert>
#include <deque>

using namespace gnt;

namespace {

bool defaultEdgeFilter(const IfgEdge &E) {
  return E.Type != EdgeType::Synthetic;
}

/// The node a value flows *from* across \p E, in flow orientation.
NodeId flowSource(const IfgEdge &E, FlowDirection Dir) {
  return Dir == FlowDirection::Forward ? E.Src : E.Dst;
}

/// The node a value flows *into* across \p E, in flow orientation.
NodeId flowSink(const IfgEdge &E, FlowDirection Dir) {
  return Dir == FlowDirection::Forward ? E.Dst : E.Src;
}

class Solver {
public:
  Solver(const IntervalFlowGraph &Ifg, const DataflowSpec &Spec)
      : Ifg(Ifg), Spec(Spec), N(Ifg.size()), U(Spec.UniverseSize),
        Filter(Spec.EdgeFilter ? Spec.EdgeFilter : defaultEdgeFilter) {
    assert((Spec.Gen.empty() || Spec.Gen.size() == N) && "Gen size mismatch");
    assert((Spec.Kill.empty() || Spec.Kill.size() == N) &&
           "Kill size mismatch");

    // Per-node incoming flow edges (the meet inputs).
    InEdges.resize(N);
    FlowSuccs.resize(N);
    for (NodeId Node = 0; Node != N; ++Node)
      for (const IfgEdge &E : Ifg.succs(Node)) {
        if (!Filter(E))
          continue;
        InEdges[flowSink(E, Spec.Direction)].push_back(E);
        FlowSuccs[flowSource(E, Spec.Direction)].push_back(
            flowSink(E, Spec.Direction));
      }

    const bool Top = Spec.Meet == Confluence::All;
    R.In.assign(N, BitVector(U, Top));
    R.Out.assign(N, BitVector(U, Top));
    Boundary = Spec.Boundary.size() == U ? Spec.Boundary : BitVector(U);
    // Boundary nodes have no meet inputs; pin them immediately.
    for (NodeId Node = 0; Node != N; ++Node)
      if (InEdges[Node].empty()) {
        R.In[Node] = Boundary;
        R.Out[Node] = transfer(Node, R.In[Node]);
      }
  }

  DataflowResult solve() {
    std::deque<NodeId> Work;
    std::vector<char> InWork(N, 1);
    // Seed in flow order so the first pass already propagates far.
    const std::vector<NodeId> &Pre = Ifg.preorder();
    if (Spec.Direction == FlowDirection::Forward)
      Work.assign(Pre.begin(), Pre.end());
    else
      Work.assign(Pre.rbegin(), Pre.rend());
    R.Stats.WorklistPeak = static_cast<unsigned>(Work.size());
    while (!Work.empty()) {
      NodeId Node = Work.front();
      Work.pop_front();
      InWork[Node] = 0;
      ++R.Stats.Iterations;
      if (!update(Node))
        continue;
      for (NodeId S : FlowSuccs[Node])
        if (!InWork[S]) {
          InWork[S] = 1;
          Work.push_back(S);
        }
      R.Stats.WorklistPeak = std::max(
          R.Stats.WorklistPeak, static_cast<unsigned>(Work.size()));
    }
    return std::move(R);
  }

private:
  BitVector transfer(NodeId Node, const BitVector &In) {
    ++R.Stats.NodeVisits;
    BitVector Out = In;
    if (!Spec.Kill.empty())
      Out.reset(Spec.Kill[Node]);
    if (!Spec.Gen.empty())
      Out |= Spec.Gen[Node];
    return Out;
  }

  BitVector edgeValue(const IfgEdge &E) {
    ++R.Stats.EdgeEvaluations;
    if (Spec.EdgeTransfer)
      return Spec.EdgeTransfer(E, R.Out);
    return R.Out[flowSource(E, Spec.Direction)];
  }

  /// Recomputes node \p Node; returns true if its Out value changed.
  bool update(NodeId Node) {
    if (InEdges[Node].empty())
      return false; // Pinned to the boundary value in the constructor.
    BitVector In(U, Spec.Meet == Confluence::All);
    bool First = true;
    for (const IfgEdge &E : InEdges[Node]) {
      BitVector V = edgeValue(E);
      if (First) {
        In = std::move(V);
        First = false;
      } else if (Spec.Meet == Confluence::All) {
        In &= V;
      } else {
        In |= V;
      }
    }
    BitVector Out = transfer(Node, In);
    bool Changed = Out != R.Out[Node];
    R.In[Node] = std::move(In);
    R.Out[Node] = std::move(Out);
    return Changed;
  }

  const IntervalFlowGraph &Ifg;
  const DataflowSpec &Spec;
  const unsigned N, U;
  std::function<bool(const IfgEdge &)> Filter;
  std::vector<std::vector<IfgEdge>> InEdges;
  std::vector<std::vector<NodeId>> FlowSuccs;
  BitVector Boundary;
  DataflowResult R;
};

} // namespace

DataflowResult gnt::solveDataflow(const IntervalFlowGraph &Ifg,
                                  const DataflowSpec &Spec) {
  Solver S(Ifg, Spec);
  return S.solve();
}
