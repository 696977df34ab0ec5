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
#include "support/Support.h"

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

namespace {

/// Row \p Node of a universe init set; rows past the end read as empty.
const BitVector &initRow(const std::vector<BitVector> &Rows, unsigned Node,
                         const BitVector &Empty) {
  return Node < Rows.size() ? Rows[Node] : Empty;
}

} // namespace

CompiledAnalysis gnt::compileAnalysisSpec(AnalysisSpec Spec,
                                          SpecUniverseData Data,
                                          unsigned NumNodes) {
  CompiledAnalysis C;
  C.NumNodes = NumNodes;

  const unsigned U = Data.Size;
  const BitVector EmptyRow(U);
  C.Gen.assign(NumNodes, EmptyRow);
  C.Kill.assign(NumNodes, EmptyRow);
  for (unsigned Node = 0; Node != NumNodes; ++Node) {
    const BitVector &Take = initRow(Data.Take, Node, EmptyRow);
    const BitVector &Give = initRow(Data.Give, Node, EmptyRow);
    const BitVector &Steal = initRow(Data.Steal, Node, EmptyRow);
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
  C.Spec = std::move(Spec);
  C.Data = std::move(Data);
  return C;
}

//===----------------------------------------------------------------------===//
// Solve and fixed-point check
//===----------------------------------------------------------------------===//

DiagnosticSet gnt::checkAnalysisFixedPoint(const CompiledAnalysis &C,
                                           const IntervalFlowGraph &Ifg,
                                           const std::vector<BitVector> &In,
                                           const std::vector<BitVector> &Out) {
  const AnalysisSpec &S = C.Spec;
  const unsigned U = C.Data.Size;
  const bool Fwd = S.Direction == FlowDirection::Forward;
  std::vector<std::vector<NodeId>> FlowPreds(C.NumNodes);
  for (NodeId Node = 0; Node != Ifg.size(); ++Node)
    for (const IfgEdge &E : Ifg.succs(Node))
      if (S.IncludeSyntheticEdges || E.Type != EdgeType::Synthetic)
        FlowPreds[Fwd ? E.Dst : E.Src].push_back(Fwd ? E.Src : E.Dst);

  DiagnosticSet Diags;
  constexpr unsigned MaxReports = 10;
  unsigned Violations = 0;
  auto CheckSide = [&](NodeId Node, const BitVector &Want,
                       const BitVector &Got, const char *What) {
    if (Want == Got)
      return;
    if (++Violations > MaxReports)
      return;
    BitVector Delta = Want; // Symmetric difference: the wrong bits.
    Delta |= Got;
    BitVector Both = Want;
    Both &= Got;
    Delta.reset(Both);
    Diagnostic D;
    D.Severity = DiagSeverity::Error;
    D.Check = CheckId::Diff;
    D.Node = Node;
    D.Item = Delta.findFirst();
    if (static_cast<size_t>(D.Item) < C.Data.Names.size())
      D.ItemName = C.Data.Names[static_cast<size_t>(D.Item)];
    D.Message = "analysis '" + S.Name + "': the solution " + What;
    D.FixHint = "the solved values must satisfy the spec's own equations; "
                "this is a solver or normalization bug, not a spec bug";
    Diags.add(std::move(D));
  };

  const BitVector Empty(U);
  for (NodeId Node = 0; Node != C.NumNodes; ++Node) {
    const std::vector<NodeId> &Preds = FlowPreds[Node];
    BitVector Meet(U, S.BoundaryAll);
    if (!Preds.empty())
      Meet = Out[Preds[0]];
    for (size_t K = 1; K < Preds.size(); ++K) {
      if (S.Meet == Confluence::All)
        Meet &= Out[Preds[K]];
      else
        Meet |= Out[Preds[K]];
    }
    CheckSide(Node, Meet, In[Node],
              "is not the meet over the incoming edges (in side)");

    const BitVector &Take = initRow(C.Data.Take, Node, Empty);
    const BitVector &Give = initRow(C.Data.Give, Node, Empty);
    const BitVector &Steal = initRow(C.Data.Steal, Node, Empty);
    BitVector Want;
    if (S.Transfer) {
      Want = evalSetExpr(*S.Transfer, U, In[Node], Take, Give, Steal);
    } else {
      Want = In[Node];
      if (S.KillExpr)
        Want.reset(evalSetExpr(*S.KillExpr, U, Empty, Take, Give, Steal));
      if (S.GenExpr)
        Want |= evalSetExpr(*S.GenExpr, U, Empty, Take, Give, Steal);
    }
    CheckSide(Node, Want, Out[Node],
              "violates the transfer template (out side)");
  }
  if (Violations > MaxReports) {
    Diagnostic D;
    D.Severity = DiagSeverity::Note;
    D.Check = CheckId::Diff;
    D.Message = "analysis '" + S.Name + "': " +
                itostr(static_cast<long long>(Violations)) +
                " node sides violate the fixed point in total (first " +
                itostr(static_cast<long long>(MaxReports)) + " reported)";
    Diags.add(std::move(D));
  }
  return Diags;
}

AnalysisRun gnt::runAnalysis(const CompiledAnalysis &C,
                             const IntervalFlowGraph &Ifg) {
  const AnalysisSpec &S = C.Spec;
  DataflowSpec Spec;
  Spec.Direction = S.Direction;
  Spec.Meet = S.Meet;
  Spec.UniverseSize = C.Data.Size;
  Spec.Gen = C.Gen;
  Spec.Kill = C.Kill;
  Spec.Boundary = BitVector(C.Data.Size, S.BoundaryAll);
  if (S.IncludeSyntheticEdges)
    Spec.EdgeFilter = [](const IfgEdge &) { return true; };
  DataflowResult D = solveDataflow(Ifg, Spec);

  AnalysisRun R;
  R.Name = S.Name;
  R.Universe = S.Universe;
  R.UniverseSize = C.Data.Size;
  R.ItemNames = C.Data.Names;
  R.In = std::move(D.In);
  R.Out = std::move(D.Out);
  R.Stats = D.Stats;
  R.Diags = checkAnalysisFixedPoint(C, Ifg, R.In, R.Out);
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
    W.key("iterations").value(Stats.Iterations);
    W.key("node_visits").value(Stats.NodeVisits);
    W.key("edge_evaluations").value(Stats.EdgeEvaluations);
    W.key("worklist_peak").value(Stats.WorklistPeak);
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
  CompiledAnalysis C =
      compileAnalysisSpec(std::move(*PR.Spec), std::move(Data), Ifg.size());
  AnalysisRun R = runAnalysis(C, Ifg);
  R.Diags.append(PR.Diags); // Carry parser/linter warnings through.
  return R;
}
