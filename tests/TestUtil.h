//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef GNT_TESTS_TESTUTIL_H
#define GNT_TESTS_TESTUTIL_H

#include "cfg/Cfg.h"
#include "cfg/CfgBuilder.h"
#include "frontend/Parser.h"
#include "interval/IntervalFlowGraph.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

namespace gnt::test {

/// A unique scratch directory, removed on scope exit.
struct TempDir {
  TempDir() {
    std::string Template =
        std::filesystem::temp_directory_path() / "gnt-test-XXXXXX";
    std::vector<char> Buf(Template.begin(), Template.end());
    Buf.push_back('\0');
    Path = mkdtemp(Buf.data());
  }
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  std::string Path;
};

/// The paper's Figure 11 program with concrete statements where the paper
/// elides them. Parameters: x, y distributed; a, b local index arrays.
inline const char *fig11Source() {
  return R"(
distribute x, y
array a, b, w, z
do i = 1, n
  y(a(i)) = 0
  if (test(i)) goto 77
enddo
do j = 1, n
  w(j) = 0
enddo
77 do k = 1, n
  z(k) = x(k + 10) + y(b(k))
enddo
)";
}

/// dyn_cast that tolerates null (test convenience).
template <typename To, typename From>
const To *dyn_cast_or_null(const From *V) {
  return V ? dyn_cast<To>(V) : nullptr;
}

/// Structural handles into the CFG built for fig11Source(). Node ids are
/// located by role, not hard-coded, so construction-order changes don't
/// break tests.
struct Fig11Nodes {
  NodeId Root = InvalidNode;    ///< Entry node (the interval ROOT).
  NodeId Hi = InvalidNode;      ///< do-i header (paper node 2).
  NodeId A = InvalidNode;       ///< y(a(i)) = 0 (paper node 3, partly).
  NodeId B = InvalidNode;       ///< if (test(i)) branch, the JUMP-edge
                                ///< source (paper node 4).
  NodeId Li = InvalidNode;      ///< i-loop latch (paper node 5).
  NodeId SAfterI = InvalidNode; ///< after-i synthetic (paper node 6).
  NodeId Hj = InvalidNode;      ///< do-j header (paper node 7).
  NodeId JB = InvalidNode;      ///< w(j) = 0 (paper node 8).
  NodeId Lj = InvalidNode;      ///< j-loop latch.
  NodeId SAfterJ = InvalidNode; ///< after-j synthetic (paper node 9/11).
  NodeId Pad = InvalidNode;     ///< jump landing pad (paper node 10).
  NodeId Hk = InvalidNode;      ///< do-k header (paper node 12).
  NodeId KB = InvalidNode;      ///< z(k) = ... (paper node 13).
  NodeId Lk = InvalidNode;      ///< k-loop latch.
  NodeId Exit = InvalidNode;    ///< program exit (paper node 14).
};

inline Fig11Nodes locateFig11(const Cfg &G) {
  Fig11Nodes N;
  N.Root = G.entry();
  N.Exit = G.exit();
  for (NodeId Id = 0; Id != G.size(); ++Id) {
    const CfgNode &Node = G.node(Id);
    auto indexVarIs = [&](const char *V) {
      const auto *D = dyn_cast_or_null<DoStmt>(Node.S);
      return D && D->getIndexVar() == V;
    };
    switch (Node.Kind) {
    case NodeKind::LoopHeader:
      if (indexVarIs("i"))
        N.Hi = Id;
      else if (indexVarIs("j"))
        N.Hj = Id;
      else if (indexVarIs("k"))
        N.Hk = Id;
      break;
    case NodeKind::LoopLatch:
      if (indexVarIs("i"))
        N.Li = Id;
      else if (indexVarIs("j"))
        N.Lj = Id;
      else if (indexVarIs("k"))
        N.Lk = Id;
      break;
    case NodeKind::Stmt: {
      const auto *AS = dyn_cast_or_null<AssignStmt>(Node.S);
      if (!AS)
        break;
      const auto *LHS = dyn_cast<ArrayRefExpr>(AS->getLHS());
      if (!LHS)
        break;
      if (LHS->getArray() == "y")
        N.A = Id;
      else if (LHS->getArray() == "w")
        N.JB = Id;
      else if (LHS->getArray() == "z")
        N.KB = Id;
      break;
    }
    case NodeKind::Branch:
      N.B = Id;
      break;
    case NodeKind::Synthetic: {
      if (dyn_cast_or_null<GotoStmt>(Node.EmitStmt)) {
        N.Pad = Id;
        break;
      }
      const auto *D = dyn_cast_or_null<DoStmt>(Node.EmitStmt);
      if (D && Node.Where == EmitWhere::After) {
        if (D->getIndexVar() == "i")
          N.SAfterI = Id;
        else if (D->getIndexVar() == "j")
          N.SAfterJ = Id;
      }
      break;
    }
    default:
      break;
    }
  }
  return N;
}

/// Parses, builds the CFG and the interval flow graph, failing the test on
/// any error.
struct Pipeline {
  Program Prog;
  Cfg G;
  std::optional<IntervalFlowGraph> Ifg;

  static Pipeline fromSource(const std::string &Src) {
    Pipeline P;
    ParseResult PR = parseProgram(Src);
    EXPECT_TRUE(PR.success()) << (PR.Errors.empty() ? "" : PR.Errors.front());
    P.Prog = std::move(PR.Prog);
    CfgBuildResult CR = buildCfg(P.Prog);
    EXPECT_TRUE(CR.success()) << (CR.Errors.empty() ? "" : CR.Errors.front());
    P.G = std::move(CR.G);
    auto IR = IntervalFlowGraph::build(P.G);
    EXPECT_TRUE(IR.success()) << (IR.Errors.empty() ? "" : IR.Errors.front());
    if (IR.success())
      P.Ifg = std::move(*IR.Ifg);
    return P;
  }
};

} // namespace gnt::test

#endif // GNT_TESTS_TESTUTIL_H
