//===- tests/LoopForestTest.cpp - Union-find loop forest --------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// LoopForest::compute walks each natural loop once, innermost loops
/// collapsed by a union-find. These tests keep the O(nodes x headers)
/// membership-row construction it replaced as a test-local reference and
/// require the same parent and level for every node of the raw and the
/// normalized CFG: over the generated families, the corpus and
/// examples, a 255-deep nest, loop bodies with unreachable statements,
/// and unreachable nodes that run into several loops. A last test pins
/// the cost of a hostile input: a hundred consecutive 255-deep nests
/// build their interval flow graph well inside the ctest TIMEOUT of
/// cfg_tests; with the membership rows that took 66 s and 1.9 GB.
///
//===----------------------------------------------------------------------===//

#include "Battery.h"
#include "TestUtil.h"

#include "cfg/Dominators.h"
#include "interval/LoopForest.h"

#include <gtest/gtest.h>

#include <random>

using namespace gnt;
using namespace gnt::test;

namespace {

struct MembershipForest {
  NodeId Root = InvalidNode;
  std::vector<NodeId> Parent;
  std::vector<unsigned> Level;
  std::vector<std::vector<NodeId>> BackEdgeSources;
};

/// The forest construction LoopForest::compute replaced, verbatim: one
/// N-byte membership row per header, then a nodes x headers scan for the
/// smallest loop holding each node.
std::optional<MembershipForest>
membershipForest(const Cfg &G, const Dominators &Dom,
                 std::vector<std::string> &Errors) {
  unsigned N = G.size();
  MembershipForest F;
  F.Root = G.entry();
  F.Parent.assign(N, InvalidNode);
  F.Level.assign(N, 1);
  F.BackEdgeSources.assign(N, {});
  F.Level[F.Root] = 0;

  // Find retreating edges: an edge (m, h) where h is on the DFS stack when
  // m is visited. In a reducible graph every retreating edge is a back
  // edge, i.e. h dominates m.
  std::vector<char> State(N, 0); // 0 = unvisited, 1 = on stack, 2 = done.
  {
    std::vector<std::pair<NodeId, unsigned>> Stack;
    Stack.push_back({F.Root, 0});
    State[F.Root] = 1;
    while (!Stack.empty()) {
      auto &[Node, NextSucc] = Stack.back();
      const auto &Succs = G.node(Node).Succs;
      if (NextSucc < Succs.size()) {
        NodeId S = Succs[NextSucc++];
        if (State[S] == 0) {
          State[S] = 1;
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

  // Natural loop membership per header: backward closure from the back
  // edge sources, stopping at the header.
  std::vector<NodeId> Headers;
  std::vector<std::vector<char>> Member(N); // Member[h][n], headers only.
  for (NodeId H = 0; H != N; ++H) {
    if (F.BackEdgeSources[H].empty())
      continue;
    Headers.push_back(H);
    Member[H].assign(N, 0);
    std::vector<NodeId> Work;
    for (NodeId Src : F.BackEdgeSources[H])
      if (!Member[H][Src]) {
        Member[H][Src] = 1;
        Work.push_back(Src);
      }
    while (!Work.empty()) {
      NodeId M = Work.back();
      Work.pop_back();
      if (M == H)
        continue;
      for (NodeId P : G.node(M).Preds)
        if (P != H && !Member[H][P]) {
          Member[H][P] = 1;
          Work.push_back(P);
        }
    }
    Member[H][H] = 0; // T(h) excludes its header.
  }

  // Loop sizes determine nesting (reducible loops are disjoint or nested).
  std::vector<unsigned> LoopSize(N, 0);
  for (NodeId H : Headers)
    LoopSize[H] = static_cast<unsigned>(
        std::count(Member[H].begin(), Member[H].end(), 1));

  // Innermost enclosing header per node = the smallest loop containing it.
  for (NodeId Node = 0; Node != N; ++Node) {
    if (Node == F.Root)
      continue;
    NodeId Best = F.Root;
    unsigned BestSize = ~0u;
    for (NodeId H : Headers) {
      if (!Member[H][Node])
        continue;
      if (LoopSize[H] < BestSize) {
        Best = H;
        BestSize = LoopSize[H];
      }
    }
    F.Parent[Node] = Best;
  }

  // Levels follow the parent chain. Parents of headers point to loops that
  // strictly contain them, so the chain is acyclic; resolve with memoized
  // walks.
  std::vector<char> LevelKnown(N, 0);
  LevelKnown[F.Root] = 1;
  for (NodeId Node = 0; Node != N; ++Node) {
    if (LevelKnown[Node])
      continue;
    std::vector<NodeId> Chain;
    NodeId Cur = Node;
    while (!LevelKnown[Cur]) {
      Chain.push_back(Cur);
      Cur = F.Parent[Cur];
      if (Cur == InvalidNode) {
        // Unreachable node; give it level 1 under ROOT.
        Cur = F.Root;
        break;
      }
    }
    unsigned L = F.Level[Cur];
    for (auto It = Chain.rbegin(); It != Chain.rend(); ++It) {
      F.Level[*It] = ++L;
      LevelKnown[*It] = 1;
      if (F.Parent[*It] == InvalidNode)
        F.Parent[*It] = F.Root;
    }
  }

  return F;
}

/// Requires LoopForest::compute to agree with the reference on \p G.
void expectSameForest(const Cfg &G, const std::string &Where) {
  Dominators Dom(G);
  std::vector<std::string> Errors, RefErrors;
  std::optional<LoopForest> F = LoopForest::compute(G, Dom, Errors);
  std::optional<MembershipForest> Ref = membershipForest(G, Dom, RefErrors);
  ASSERT_EQ(F.has_value(), Ref.has_value()) << Where;
  EXPECT_EQ(Errors, RefErrors) << Where;
  if (!F)
    return;
  for (NodeId N = 0; N != G.size(); ++N) {
    ASSERT_EQ(F->parent(N), Ref->Parent[N]) << Where << ", node " << N;
    ASSERT_EQ(F->level(N), Ref->Level[N]) << Where << ", node " << N;
    ASSERT_EQ(F->backEdgeSources(N), Ref->BackEdgeSources[N])
        << Where << ", node " << N;
  }
}

/// Compares the forests of \p P's raw CFG and of its normalized CFG.
void expectSameForests(const std::string &Name, const Program &P) {
  CfgBuildResult CR = buildCfg(P);
  ASSERT_TRUE(CR.success()) << Name;
  expectSameForest(CR.G, Name + " (raw)");
  auto IR = IntervalFlowGraph::build(CR.G);
  ASSERT_TRUE(IR.success()) << Name;
  expectSameForest(CR.G, Name + " (normalized)");
}

Program parseOrFail(const std::string &Src) {
  ParseResult PR = parseProgram(Src);
  EXPECT_TRUE(PR.success()) << (PR.Errors.empty() ? "" : PR.Errors.front());
  return std::move(PR.Prog);
}

} // namespace

TEST(LoopForest, MatchesMembershipRowsOnGeneratedFamilies) {
  for (auto [Stmts, Seeds] : {std::pair{30u, 12u}, {200u, 6u}, {1600u, 2u}})
    for (const BatteryProgram &B : generatedBattery(Stmts, Seeds))
      expectSameForests(B.Name, B.Prog);
}

TEST(LoopForest, MatchesMembershipRowsOnCorpusAndExamples) {
  for (const BatteryProgram &B : fileBattery())
    expectSameForests(B.Name, B.Prog);
}

TEST(LoopForest, MatchesMembershipRowsOn255DeepNest) {
  // The deepest nest the parser accepts, with a jump out of the whole
  // nest from its 200th loop.
  std::string Src = "distribute x\narray y\n";
  for (unsigned D = 0; D != 255; ++D)
    Src += "do i" + std::to_string(D) + " = 1, n\n";
  Src += "y(i0) = x(i0)\n";
  for (unsigned D = 255; D != 0; --D)
    Src += D == 200 ? "if (y(1) > 0) goto 10\nenddo\n" : "enddo\n";
  Src += "10 y(1) = 0\n";
  expectSameForests("255-deep nest", parseOrFail(Src));
}

TEST(LoopForest, UnreachableLoopBodyStatementsStayInTheirLoop) {
  // The goto makes the two stores after it unreachable; buildCfg reports
  // them, but the forest is still defined on its graph. The membership
  // walk follows their edges backwards into the loop, so they belong to
  // the inner loop like the statements around them.
  Program P = parseOrFail(R"(
distribute x
array u
do i = 1, n
  do j = 1, n
    u(j) = x(i)
    goto 10
    u(i) = 0
    x(j) = 1
10  continue
  enddo
enddo
)");
  CfgBuildResult CR = buildCfg(P);
  ASSERT_FALSE(CR.success());
  expectSameForest(CR.G, "unreachable loop body");

  Dominators Dom(CR.G);
  std::vector<std::string> Errors;
  std::optional<LoopForest> F = LoopForest::compute(CR.G, Dom, Errors);
  ASSERT_TRUE(F.has_value());
  unsigned Unreached = 0;
  for (NodeId N = 0; N != CR.G.size(); ++N) {
    if (N == CR.G.entry() || !CR.G.node(N).Preds.empty())
      continue;
    ++Unreached;
    EXPECT_EQ(F->level(N), 3u) << describeNode(CR.G, N);
  }
  EXPECT_GE(Unreached, 1u);
}

TEST(LoopForest, UnreachableNodeRunningIntoSiblingLoops) {
  // entry -> h1 <-> b1 (two-node body), h1 -> h2 <-> b2, h2 -> exit. The
  // unreachable u runs into both loop bodies, so it lies in both
  // disjoint loops and takes the smaller one; v runs into u and into the
  // larger loop's header (not its body), so it follows u. With equal
  // sizes the lower header id wins.
  for (bool EqualSizes : {false, true}) {
    Cfg G;
    NodeId Entry = G.addNode(NodeKind::Entry);
    NodeId H1 = G.addNode(NodeKind::Stmt);
    NodeId B1 = G.addNode(NodeKind::Stmt);
    NodeId B1b = G.addNode(NodeKind::Stmt);
    NodeId H2 = G.addNode(NodeKind::Stmt);
    NodeId B2 = G.addNode(NodeKind::Stmt);
    NodeId Exit = G.addNode(NodeKind::Exit);
    NodeId U = G.addNode(NodeKind::Stmt);
    NodeId V = G.addNode(NodeKind::Stmt);
    G.setEntry(Entry);
    G.setExit(Exit);
    G.addEdge(Entry, H1);
    G.addEdge(H1, B1);
    if (EqualSizes) {
      G.addEdge(B1, H1);
    } else {
      G.addEdge(B1, B1b);
      G.addEdge(B1b, H1);
    }
    G.addEdge(H1, H2);
    G.addEdge(H2, B2);
    G.addEdge(B2, H2);
    G.addEdge(H2, Exit);
    G.addEdge(U, B1);
    G.addEdge(U, B2);
    G.addEdge(V, U);
    G.addEdge(V, H1);
    expectSameForest(G, EqualSizes ? "equal siblings" : "unequal siblings");

    Dominators Dom(G);
    std::vector<std::string> Errors;
    std::optional<LoopForest> F = LoopForest::compute(G, Dom, Errors);
    ASSERT_TRUE(F.has_value());
    EXPECT_EQ(F->parent(B1), H1);
    EXPECT_EQ(F->parent(B2), H2);
    EXPECT_EQ(F->parent(H2), Entry);
    EXPECT_EQ(F->parent(U), EqualSizes ? H1 : H2);
    EXPECT_EQ(F->parent(V), EqualSizes ? H1 : H2);
    EXPECT_EQ(F->level(U), 2u);
  }
}

TEST(LoopForest, MatchesMembershipRowsWithRandomUnreachableNodes) {
  // Unreachable nodes never change which edges the DFS sees, so edges
  // out of them keep any graph reducible. Sprinkle some with random
  // successors over normalized CFGs and compare.
  std::mt19937 Rng(20261017);
  for (const BatteryProgram &B : generatedBattery(200, 3)) {
    CfgBuildResult CR = buildCfg(B.Prog);
    ASSERT_TRUE(CR.success()) << B.Name;
    ASSERT_TRUE(IntervalFlowGraph::build(CR.G).success()) << B.Name;
    Cfg &G = CR.G;
    for (unsigned K = 0; K != 12; ++K) {
      NodeId X = G.addNode(NodeKind::Synthetic);
      for (unsigned E = 1 + Rng() % 3; E != 0; --E)
        G.addEdge(X, Rng() % G.size());
    }
    expectSameForest(G, B.Name + " + unreachable nodes");
  }
}

TEST(LoopForest, HundredDeepNestsBuildInLinearTime) {
  // A client can send this shape: a hundred consecutive 255-deep do
  // nests, 25,500 loops. The ctest TIMEOUT on cfg_tests bounds this
  // test.
  constexpr unsigned Nests = 100, Depth = 255;
  std::string Src = "distribute x\narray y\n";
  for (unsigned K = 0; K != Nests; ++K) {
    for (unsigned D = 0; D != Depth; ++D)
      Src += "do i" + std::to_string(D) + " = 1, n\n";
    Src += "y(i0) = x(i0)\n";
    for (unsigned D = 0; D != Depth; ++D)
      Src += "enddo\n";
  }
  Program P = parseOrFail(Src);
  CfgBuildResult CR = buildCfg(P);
  ASSERT_TRUE(CR.success());
  auto IR = IntervalFlowGraph::build(CR.G);
  ASSERT_TRUE(IR.success()) << IR.Errors.front();
  unsigned Headers = 0;
  for (NodeId N = 0; N != CR.G.size(); ++N) {
    const CfgNode &Node = CR.G.node(N);
    if (Node.Kind != NodeKind::LoopHeader)
      continue;
    ++Headers;
    const std::string &Idx = cast<DoStmt>(Node.S)->getIndexVar();
    ASSERT_TRUE(IR.Ifg->isHeader(N));
    ASSERT_EQ(IR.Ifg->level(N), std::stoul(Idx.substr(1)) + 1) << Idx;
  }
  EXPECT_EQ(Headers, Nests * Depth);
}
