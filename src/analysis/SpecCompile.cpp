//===- analysis/SpecCompile.cpp - Compile specs onto the engines ------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/SpecCompile.h"

#include "comm/CommGen.h"
#include "comm/RefAnalysis.h"
#include "pre/ExprPre.h"
#include "support/Hashing.h"
#include "support/Json.h"
#include "support/SimdKernels.h"
#include "support/Support.h"

#include <algorithm>

using namespace gnt;

//===----------------------------------------------------------------------===//
// Universe construction
//===----------------------------------------------------------------------===//

namespace {

SpecUniverseData buildItemsUniverse(const Program &P, const Cfg &G,
                                    const IntervalFlowGraph &Ifg) {
  SpecUniverseData D;
  RefAnalysisResult Refs = analyzeReferences(P, G);
  CommOptions Opts;
  Opts.GenerateWrites = false;
  GntProblem Read, Write;
  buildCommProblems(Refs, G, Ifg, Opts, Read, Write);
  D.Size = Read.UniverseSize;
  D.Names = Refs.Items.names();
  D.Take = std::move(Read.TakeInit);
  D.Give = std::move(Read.GiveInit);
  D.Steal = std::move(Read.StealInit);
  return D;
}

SpecUniverseData buildExprsUniverse(const Program &P, const Cfg &G) {
  SpecUniverseData D;
  GntProblem Prob = buildExprPreProblem(P, G, D.Names);
  D.Size = Prob.UniverseSize;
  D.Take = std::move(Prob.TakeInit);
  D.Give = std::move(Prob.GiveInit);
  D.Steal = std::move(Prob.StealInit);
  return D;
}

/// Definition sites: one item per (array item, defining node) pair,
/// named "key@nN". GIVE is the sites at the node, STEAL the *other*
/// sites of the items it defines (classic reaching-definitions kill),
/// TAKE every site of the items the node reads.
SpecUniverseData buildDefsUniverse(const Program &P, const Cfg &G) {
  SpecUniverseData D;
  RefAnalysisResult Refs = analyzeReferences(P, G);
  const unsigned N = G.size();

  std::vector<std::vector<unsigned>> SitesOfItem(Refs.Items.size());
  std::vector<std::vector<unsigned>> SitesAtNode(N);
  for (NodeId Node = 0; Node != N; ++Node)
    for (unsigned Item : Refs.PerNode[Node].Defs) {
      unsigned Site = static_cast<unsigned>(D.Names.size());
      D.Names.push_back(Refs.Items.item(Item).Key + "@n" +
                        itostr(static_cast<long long>(Node)));
      SitesOfItem[Item].push_back(Site);
      SitesAtNode[Node].push_back(Site);
    }
  D.Size = static_cast<unsigned>(D.Names.size());

  D.Take.assign(N, BitVector(D.Size));
  D.Give.assign(N, BitVector(D.Size));
  D.Steal.assign(N, BitVector(D.Size));
  for (NodeId Node = 0; Node != N; ++Node) {
    for (unsigned Site : SitesAtNode[Node])
      D.Give[Node].set(Site);
    for (unsigned Item : Refs.PerNode[Node].Defs)
      for (unsigned Site : SitesOfItem[Item])
        D.Steal[Node].set(Site);
    D.Steal[Node].reset(D.Give[Node]);
    for (unsigned Item : Refs.PerNode[Node].Uses)
      for (unsigned Site : SitesOfItem[Item])
        D.Take[Node].set(Site);
  }
  return D;
}

} // namespace

SpecUniverseData gnt::buildSpecUniverse(SpecUniverse U, const Program &P,
                                        const Cfg &G,
                                        const IntervalFlowGraph &Ifg) {
  switch (U) {
  case SpecUniverse::Items:
    return buildItemsUniverse(P, G, Ifg);
  case SpecUniverse::Exprs:
    return buildExprsUniverse(P, G);
  case SpecUniverse::Defs:
    return buildDefsUniverse(P, G);
  }
  gntUnreachable("covered switch");
}

//===----------------------------------------------------------------------===//
// Compilation: normalize to gen/kill
//===----------------------------------------------------------------------===//

CompiledAnalysis gnt::compileAnalysisSpec(const AnalysisSpec &Spec,
                                          const SpecUniverseData &Data,
                                          unsigned NumNodes) {
  CompiledAnalysis C;
  C.Name = Spec.Name;
  C.Universe = Spec.Universe;
  C.Direction = Spec.Direction;
  C.Meet = Spec.Meet;
  C.IncludeSyntheticEdges = Spec.IncludeSyntheticEdges;
  C.NumNodes = NumNodes;
  C.UniverseSize = Data.Size;
  C.ItemNames = Data.Names;
  C.Boundary = BitVector(Data.Size, Spec.BoundaryAll);

  const unsigned U = Data.Size;
  const BitVector EmptyRow(U);
  C.Gen.assign(NumNodes, EmptyRow);
  C.Kill.assign(NumNodes, EmptyRow);
  for (unsigned Node = 0; Node != NumNodes; ++Node) {
    const BitVector &Take = Node < Data.Take.size() ? Data.Take[Node]
                                                    : EmptyRow;
    const BitVector &Give = Node < Data.Give.size() ? Data.Give[Node]
                                                    : EmptyRow;
    const BitVector &Steal = Node < Data.Steal.size() ? Data.Steal[Node]
                                                      : EmptyRow;
    if (Spec.Transfer) {
      // Gen = f(empty); Kill = ~f(all). Exact for lane-wise monotone
      // templates: per lane f is one of {0, 1, in}, and the two extreme
      // evaluations pin down which.
      C.Gen[Node] = evalSetExpr(*Spec.Transfer, U, BitVector(U), Take, Give,
                                Steal);
      BitVector One = evalSetExpr(*Spec.Transfer, U, BitVector(U, true),
                                  Take, Give, Steal);
      One.flip();
      C.Kill[Node] = std::move(One);
    } else {
      if (Spec.GenExpr)
        C.Gen[Node] =
            evalSetExpr(*Spec.GenExpr, U, EmptyRow, Take, Give, Steal);
      if (Spec.KillExpr)
        C.Kill[Node] =
            evalSetExpr(*Spec.KillExpr, U, EmptyRow, Take, Give, Steal);
    }
  }
  return C;
}

//===----------------------------------------------------------------------===//
// Iterative backend (the oracle)
//===----------------------------------------------------------------------===//

DataflowResult gnt::runAnalysisIterative(const CompiledAnalysis &C,
                                         const IntervalFlowGraph &Ifg) {
  DataflowSpec Spec;
  Spec.Direction = C.Direction;
  Spec.Meet = C.Meet;
  Spec.UniverseSize = C.UniverseSize;
  Spec.Gen = C.Gen;
  Spec.Kill = C.Kill;
  Spec.Boundary = C.Boundary;
  if (C.IncludeSyntheticEdges)
    Spec.EdgeFilter = [](const IfgEdge &) { return true; };
  return solveDataflow(Ifg, Spec, SolveMode::Worklist);
}

//===----------------------------------------------------------------------===//
// Arena backend: flat round-robin word sweeps
//===----------------------------------------------------------------------===//

namespace {

using Word = BitVector::Word;

/// Per-node flow predecessors under the spec's edge filter, in flow
/// orientation — the exact meet inputs of the iterative engine.
std::vector<std::vector<NodeId>> flowPreds(const CompiledAnalysis &C,
                                           const IntervalFlowGraph &Ifg) {
  std::vector<std::vector<NodeId>> Preds(C.NumNodes);
  const bool Fwd = C.Direction == FlowDirection::Forward;
  for (NodeId Node = 0; Node != Ifg.size(); ++Node)
    for (const IfgEdge &E : Ifg.succs(Node)) {
      if (!C.IncludeSyntheticEdges && E.Type == EdgeType::Synthetic)
        continue;
      Preds[Fwd ? E.Dst : E.Src].push_back(Fwd ? E.Src : E.Dst);
    }
  return Preds;
}

/// Sweep order: preorder for forward flow, reverse preorder backward —
/// the round-robin schedule of the iterative engine.
std::vector<NodeId> sweepOrder(const CompiledAnalysis &C,
                               const IntervalFlowGraph &Ifg) {
  std::vector<NodeId> Order = Ifg.preorder();
  if (C.Direction == FlowDirection::Backward)
    std::reverse(Order.begin(), Order.end());
  return Order;
}

/// Solves \p C into \p In / \p Out (already initialized and
/// boundary-pinned) by round-robin sweeps; returns the sweep count.
unsigned sweepToFixedPoint(const CompiledAnalysis &C,
                           const std::vector<std::vector<NodeId>> &Preds,
                           const std::vector<NodeId> &Order,
                           const DataflowMatrix &GenM,
                           const DataflowMatrix &KillM, DataflowMatrix &In,
                           DataflowMatrix &Out) {
  const unsigned W = In.wordsPerRow();
  if (W == 0)
    return 0;
  const bool AllMeet = C.Meet == Confluence::All;
  const SolverKernels &SK = solverKernels();
  std::vector<Word> Tmp(W);
  unsigned Sweeps = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    ++Sweeps;
    for (NodeId Node : Order) {
      const std::vector<NodeId> &P = Preds[Node];
      if (P.empty())
        continue; // Pinned to the boundary value.
      SK.RowCopy(Tmp.data(), Out.row(P[0]), W);
      for (size_t K = 1; K != P.size(); ++K) {
        const Word *PR = Out.row(P[K]);
        if (AllMeet)
          SK.RowAnd(Tmp.data(), PR, W);
        else
          SK.RowOr(Tmp.data(), PR, W);
      }
      SK.RowCopy(In.row(Node), Tmp.data(), W);
      // The kernel stores the (possibly identical) value back
      // unconditionally and reports the XOR of old and new; the sweep
      // only needs to know whether *anything* moved.
      Word Diff = SK.FuseTransfer(W, Out.row(Node), Tmp.data(),
                                  GenM.row(Node), KillM.row(Node));
      Changed |= Diff != 0;
    }
  }
  return Sweeps;
}

} // namespace

ArenaSpecResult gnt::runAnalysisArena(const CompiledAnalysis &C,
                                      const IntervalFlowGraph &Ifg) {
  const unsigned N = C.NumNodes, U = C.UniverseSize;
  ArenaSpecResult R;
  R.In = DataflowMatrix(N, U);
  R.Out = DataflowMatrix(N, U);
  DataflowMatrix GenM(N, U, DataflowMatrix::Uninit);
  DataflowMatrix KillM(N, U, DataflowMatrix::Uninit);
  for (NodeId Node = 0; Node != N; ++Node) {
    GenM.assignRow(Node, C.Gen[Node]);
    KillM.assignRow(Node, C.Kill[Node]);
  }

  std::vector<std::vector<NodeId>> Preds = flowPreds(C, Ifg);
  std::vector<NodeId> Order = sweepOrder(C, Ifg);

  // Interior nodes start at top for All confluence; boundary (no
  // inflow) nodes are pinned, mirroring the engine's constructor.
  if (C.Meet == Confluence::All)
    for (NodeId Node = 0; Node != N; ++Node) {
      R.In.setRow(Node);
      R.Out.setRow(Node);
    }
  const unsigned WPR = R.In.wordsPerRow();
  const SolverKernels &SK = solverKernels();
  for (NodeId Node = 0; Node != N; ++Node) {
    if (!Preds[Node].empty())
      continue;
    R.In.assignRow(Node, C.Boundary);
    (void)SK.FuseTransfer(WPR, R.Out.row(Node), R.In.row(Node),
                          GenM.row(Node), KillM.row(Node));
  }

  R.Sweeps = sweepToFixedPoint(C, Preds, Order, GenM, KillM, R.In, R.Out);
  return R;
}

//===----------------------------------------------------------------------===//
// Differential run
//===----------------------------------------------------------------------===//

AnalysisRun gnt::runAnalysis(const CompiledAnalysis &C,
                             const IntervalFlowGraph &Ifg) {
  AnalysisRun R;
  R.Name = C.Name;
  R.Universe = C.Universe;
  R.UniverseSize = C.UniverseSize;
  R.ItemNames = C.ItemNames;

  DataflowResult Oracle = runAnalysisIterative(C, Ifg);
  ArenaSpecResult Arena = runAnalysisArena(C, Ifg);
  R.Stats.Iterative = Oracle.Stats;
  R.Stats.ArenaSweeps = Arena.Sweeps;

  // Mandatory per-node byte-identity differential: the arena values
  // ship, but only after the independent oracle agrees bit for bit.
  constexpr unsigned MaxReports = 10;
  unsigned Mismatches = 0;
  auto CheckSide = [&](NodeId Node, const BitVector &Want,
                       const BitVector &Got, const char *Side) {
    if (Want == Got)
      return;
    ++Mismatches;
    if (Mismatches > MaxReports)
      return;
    Diagnostic D;
    D.Severity = DiagSeverity::Error;
    D.Check = CheckId::Diff;
    D.Node = Node;
    const Word *A = Want.words();
    const Word *B = Got.words();
    for (unsigned W = 0; W != Want.wordCount(); ++W)
      if (A[W] != B[W]) {
        unsigned Item = W * BitVector::WordBits +
                        static_cast<unsigned>(__builtin_ctzll(A[W] ^ B[W]));
        D.Item = static_cast<int>(Item);
        if (Item < R.ItemNames.size())
          D.ItemName = R.ItemNames[Item];
        break;
      }
    D.Message = "analysis '" + C.Name +
                "': iterative and arena fixed points disagree (" + Side +
                " side)";
    D.FixHint = "the two backends must agree byte for byte; this is a "
                "solver bug, not a spec bug";
    R.Diags.add(D);
  };

  R.In.reserve(C.NumNodes);
  R.Out.reserve(C.NumNodes);
  for (NodeId Node = 0; Node != C.NumNodes; ++Node) {
    BitVector AIn = Arena.In.extractRow(Node);
    BitVector AOut = Arena.Out.extractRow(Node);
    CheckSide(Node, Oracle.In[Node], AIn, "in");
    CheckSide(Node, Oracle.Out[Node], AOut, "out");
    R.In.push_back(std::move(AIn));
    R.Out.push_back(std::move(AOut));
  }
  if (Mismatches > MaxReports) {
    Diagnostic D;
    D.Severity = DiagSeverity::Note;
    D.Check = CheckId::Diff;
    D.Message = "analysis '" + C.Name + "': " +
                itostr(static_cast<long long>(Mismatches)) +
                " node sides disagree in total (first " +
                itostr(static_cast<long long>(MaxReports)) + " reported)";
    R.Diags.add(D);
  }
  return R;
}

//===----------------------------------------------------------------------===//
// AnalysisRun rendering
//===----------------------------------------------------------------------===//

uint64_t AnalysisRun::solutionHash() const {
  // Shape first so (2 nodes x 1 item) never collides with (1 x 2).
  uint64_t H = FnvOffsetBasis;
  H = fnv1aAppend(H, itostr(static_cast<long long>(In.size())));
  H = fnv1aAppend(H, ":");
  H = fnv1aAppend(H, itostr(static_cast<long long>(UniverseSize)));
  auto Fold = [&H](const BitVector &BV) {
    const BitVector::Word *W = BV.words();
    for (unsigned K = 0, E = BV.wordCount(); K != E; ++K) {
      BitVector::Word V = W[K];
      for (unsigned B = 0; B != 8; ++B) {
        H ^= (V >> (8 * B)) & 0xff;
        H *= FnvPrime;
      }
    }
  };
  for (const BitVector &Row : In)
    Fold(Row);
  for (const BitVector &Row : Out)
    Fold(Row);
  return H;
}

namespace {

std::string itemSetText(const BitVector &Row,
                        const std::vector<std::string> &Names) {
  std::string S = "{";
  bool First = true;
  for (unsigned Item : Row) {
    if (!First)
      S += ", ";
    First = false;
    S += Item < Names.size() ? Names[Item]
                             : "item" + itostr(static_cast<long long>(Item));
  }
  S += "}";
  return S;
}

} // namespace

std::string AnalysisRun::renderText() const {
  std::string S = "analysis " + Name + ": universe " +
                  specUniverseName(Universe) + " (" +
                  itostr(static_cast<long long>(UniverseSize)) + " items), " +
                  itostr(static_cast<long long>(In.size())) + " nodes, " +
                  (ok() ? "ok" : "FAILED") + "\n";
  for (unsigned Node = 0; Node != In.size(); ++Node)
    S += "  n" + itostr(static_cast<long long>(Node)) +
         " in=" + itemSetText(In[Node], ItemNames) +
         " out=" + itemSetText(Out[Node], ItemNames) + "\n";
  if (!Diags.empty())
    S += Diags.renderText();
  return S;
}

std::string AnalysisRun::renderJson(bool IncludeStats) const {
  JsonWriter W;
  W.beginObject();
  W.key("analysis").value(Name);
  W.key("universe").value(specUniverseName(Universe));
  W.key("items").value(UniverseSize);
  W.key("nodes").value(static_cast<unsigned>(In.size()));
  W.key("ok").value(ok());
  W.key("hash").value(hashToHex(solutionHash()));
  auto EmitSide = [&](const char *Key, const std::vector<BitVector> &Rows) {
    W.beginArray(Key);
    for (const BitVector &Row : Rows) {
      W.beginArray();
      for (unsigned Item : Row)
        W.value(Item < ItemNames.size()
                    ? ItemNames[Item]
                    : "item" + itostr(static_cast<long long>(Item)));
      W.endArray();
    }
    W.endArray();
  };
  EmitSide("in", In);
  EmitSide("out", Out);
  if (IncludeStats) {
    W.key("stats").beginObject();
    W.key("iterations").value(Stats.Iterative.Iterations);
    W.key("node_visits").value(Stats.Iterative.NodeVisits);
    W.key("edge_evaluations").value(Stats.Iterative.EdgeEvaluations);
    W.key("worklist_peak").value(Stats.Iterative.WorklistPeak);
    W.key("arena_sweeps").value(Stats.ArenaSweeps);
    W.endObject();
  }
  W.beginArray("diagnostics");
  for (const Diagnostic &D : Diags.all())
    W.raw(D.json());
  W.endArray();
  W.endObject();
  return W.str();
}

//===----------------------------------------------------------------------===//
// End-to-end entry
//===----------------------------------------------------------------------===//

AnalysisRun gnt::runAnalysisSpec(const std::string &NameOrText,
                                 const Program &P, const Cfg &G,
                                 const IntervalFlowGraph &Ifg) {
  std::string Text = NameOrText;
  const bool LooksLikeName = NameOrText.find('\n') == std::string::npos &&
                             NameOrText.find(' ') == std::string::npos;
  if (LooksLikeName) {
    const char *Builtin = builtinAnalysisSpecText(NameOrText);
    if (!Builtin) {
      AnalysisRun R;
      R.Name = NameOrText;
      std::string Known;
      for (const auto &[BName, BText] : builtinAnalysisSpecs()) {
        if (!Known.empty())
          Known += ", ";
        Known += BName;
      }
      Diagnostic D;
      D.Severity = DiagSeverity::Error;
      D.Check = CheckId::Spec;
      D.Message = "unknown-analysis: no built-in analysis named `" +
                  NameOrText + "`";
      D.FixHint = "built-ins: " + Known + "; or pass a full spec text";
      R.Diags.add(D);
      return R;
    }
    Text = Builtin;
  }

  SpecParseResult PR = parseAndLintAnalysisSpec(Text);
  if (!PR.ok()) {
    AnalysisRun R;
    if (PR.Spec)
      R.Name = PR.Spec->Name;
    R.Diags = PR.Diags;
    return R;
  }

  SpecUniverseData Data = buildSpecUniverse(PR.Spec->Universe, P, G, Ifg);
  CompiledAnalysis C = compileAnalysisSpec(*PR.Spec, Data, Ifg.size());
  AnalysisRun R = runAnalysis(C, Ifg);
  R.Diags.append(PR.Diags); // Carry parser/linter warnings through.
  return R;
}
