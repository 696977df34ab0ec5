//===- analysis/Auditor.cpp - GIVE-N-TAKE static auditor --------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Check catalogue and the argument for each:
///
///  C1 (balance), C3 (sufficiency) and O1 (no re-production) have one
///  implementation, dataflow/Verifier's verifyGntRun. Its findings pass
///  through the reporter here, so the per-check cap applies to them:
///  C1/C3 under AuditOptions::CheckCorrectness, O1 under
///  CheckOptimality. The verifier runs only when one of the two is on;
///  its one IFG finding (no unique start node) is always kept and ends
///  the run audit.
///
///  O2 flags placed productions that no path consumes, from an
///  engine-solved backward may-liveness of productions. Placements
///  forced by JUMP-edge projection (SYNTHETIC conservatism) can be
///  consumed on no real path, so on graphs with jumps the finding is
///  downgraded to a note.
///
///  O3/O3' check the exact placement laws Eqs. 12/14/15 imply: eager
///  entry production only where consumption is anticipated (RES_in
///  within TAKEN_in), lazy entry production only where demanded locally
///  (RES_in within TAKE), no production of an item already flowing
///  (RES_in/GIVEN_in and RES_out/GIVEN_out disjoint), and exit
///  production only on single-successor nodes (Section 4.5). On
///  jump-free graphs an engine-solved anticipability adds a speculation
///  note for eager production beyond any real-path demand.
///
///  DIFF re-solves the whole instance with the iterative reference
///  solver and compares every variable at every node, and checks the
///  LAZY-within-EAGER containment laws the two solutions must satisfy.
///
//===----------------------------------------------------------------------===//

#include "analysis/Auditor.h"

#include "analysis/GntProblems.h"
#include "analysis/ReferenceSolver.h"
#include "dataflow/Verifier.h"
#include "support/Support.h"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

using namespace gnt;

namespace {

constexpr unsigned NumCheckIds = 9;

std::string itemName(const std::vector<std::string> &Names, unsigned I) {
  if (I < Names.size())
    return Names[I];
  return "item" + itostr(I);
}

bool isRealEdge(EdgeType T) { return T != EdgeType::Synthetic; }

/// Diagnostic sink with a per-check cap (AuditOptions::MaxDiagsPerCheck).
class Reporter {
public:
  Reporter(AuditResult &Out, const AuditOptions &Opts,
           const std::vector<std::string> &Names)
      : Out(Out), Opts(Opts), Names(Names) {}

  void report(DiagSeverity Sev, CheckId Check, const char *Solution,
              NodeId Node, int Item, std::string Msg,
              std::string Hint = std::string()) {
    Diagnostic D;
    D.Severity = Sev;
    D.Check = Check;
    D.Solution = Solution ? Solution : "";
    D.Node = Node;
    D.Item = Item;
    if (Item >= 0)
      D.ItemName = itemName(Names, static_cast<unsigned>(Item));
    D.Message = std::move(Msg);
    D.FixHint = std::move(Hint);
    add(std::move(D));
  }

  /// Adds a finished diagnostic, subject to the cap.
  void add(Diagnostic D) {
    unsigned Idx = static_cast<unsigned>(D.Check);
    if (Opts.MaxDiagsPerCheck && Emitted[Idx] >= Opts.MaxDiagsPerCheck) {
      ++Suppressed[Idx];
      return;
    }
    ++Emitted[Idx];
    Out.Diags.add(std::move(D));
  }

  /// Emits one summary note per check whose findings were capped.
  void finish() {
    for (unsigned Idx = 0; Idx != NumCheckIds; ++Idx)
      if (Suppressed[Idx]) {
        Diagnostic D;
        D.Severity = DiagSeverity::Note;
        D.Check = static_cast<CheckId>(Idx);
        D.Message = itostr(Suppressed[Idx]) +
                    " further findings suppressed (cap " +
                    itostr(Opts.MaxDiagsPerCheck) + " per check)";
        Out.Diags.add(std::move(D));
      }
  }

  const std::vector<std::string> &names() const { return Names; }

private:
  AuditResult &Out;
  const AuditOptions &Opts;
  const std::vector<std::string> &Names;
  std::array<unsigned, NumCheckIds> Emitted{};
  std::array<unsigned, NumCheckIds> Suppressed{};
};

//===----------------------------------------------------------------------===//
// IFG structural lint
//===----------------------------------------------------------------------===//

class IfgLinter {
public:
  IfgLinter(const IntervalFlowGraph &Ifg, Reporter &Rep)
      : Ifg(Ifg), Rep(Rep), N(Ifg.size()) {}

  void run() {
    checkPreorder();
    checkNesting();
    checkEdges();
    checkSyntheticProjection();
  }

private:
  void err(NodeId Node, std::string Msg, std::string Hint = std::string()) {
    Rep.report(DiagSeverity::Error, CheckId::Ifg, nullptr, Node, -1,
               std::move(Msg), std::move(Hint));
  }

  void checkPreorder() {
    const std::vector<NodeId> &Pre = Ifg.preorder();
    if (Pre.size() != N) {
      err(~0u, "preorder visits " + itostr(Pre.size()) + " of " + itostr(N) +
                   " nodes");
      return;
    }
    std::vector<char> Seen(N, 0);
    for (NodeId Node : Pre) {
      if (Node >= N || Seen[Node]) {
        err(Node, "preorder is not a permutation of the nodes");
        return;
      }
      Seen[Node] = 1;
    }
    if (!Pre.empty() && Pre.front() != Ifg.root())
      err(Pre.front(), "preorder does not start at ROOT");

    // Acyclicity/reducibility proxy: every edge except CYCLE advances in
    // preorder, CYCLE edges retreat (Section 3.4's FORWARD invariant).
    std::vector<unsigned> Pos(N, 0);
    for (unsigned I = 0; I != Pre.size(); ++I)
      Pos[Pre[I]] = I;
    for (NodeId Node = 0; Node != N; ++Node)
      for (const IfgEdge &E : Ifg.succs(Node)) {
        bool Ok = E.Type == EdgeType::Cycle ? Pos[E.Src] > Pos[E.Dst]
                                            : Pos[E.Src] < Pos[E.Dst];
        if (!Ok)
          err(E.Src, std::string(edgeTypeName(E.Type)) + " edge to node " +
                         itostr(E.Dst) + " does not respect preorder");
      }
  }

  void checkNesting() {
    NodeId Root = Ifg.root();
    if (Root >= N) {
      err(~0u, "ROOT node id out of range");
      return;
    }
    if (Ifg.level(Root) != 0)
      err(Root, "LEVEL(ROOT) is " + itostr(Ifg.level(Root)) + ", not 0");
    if (Ifg.parent(Root) != InvalidNode)
      err(Root, "ROOT has a parent interval");

    // One pass over every CHILDREN list marks the nodes their parent's
    // list names, so the check below is O(N) however wide an interval.
    std::vector<char> Listed(N, 0);
    for (NodeId H = 0; H != N; ++H)
      for (NodeId C : Ifg.children(H))
        if (C < N && Ifg.parent(C) == H)
          Listed[C] = 1;

    for (NodeId Node = 0; Node != N; ++Node) {
      if (Node == Root)
        continue;
      NodeId H = Ifg.parent(Node);
      if (H == InvalidNode || H >= N) {
        err(Node, "node outside every interval");
        continue;
      }
      if (!Ifg.isHeader(H))
        err(Node, "parent node " + itostr(H) + " is not a header");
      if (Ifg.level(Node) != Ifg.level(H) + 1)
        err(Node, "LEVEL is not LEVEL(parent) + 1");
      if (!Listed[Node])
        err(Node, "missing from CHILDREN of its header " + itostr(H));
    }
  }

  void checkEdges() {
    std::vector<unsigned> RealSuccs(N, 0), RealPreds(N, 0);
    std::vector<unsigned> NonEntrySuccs(N, 0);
    std::vector<unsigned> EntryIn(N, 0), EntryOut(N, 0), CycleIn(N, 0);
    for (NodeId Node = 0; Node != N; ++Node)
      for (const IfgEdge &E : Ifg.succs(Node)) {
        if (isRealEdge(E.Type)) {
          ++RealSuccs[E.Src];
          ++RealPreds[E.Dst];
          if (E.Type != EdgeType::Entry)
            ++NonEntrySuccs[E.Src];
        }
        switch (E.Type) {
        case EdgeType::Entry:
          ++EntryOut[E.Src];
          ++EntryIn[E.Dst];
          if (!Ifg.isHeader(E.Src) || Ifg.parent(E.Dst) != E.Src)
            err(E.Src, "ENTRY edge to node " + itostr(E.Dst) +
                           " does not enter the source's own interval");
          else if (Ifg.headerOf(E.Dst) != E.Src)
            err(E.Dst, "HEADER map disagrees with the incoming ENTRY edge");
          break;
        case EdgeType::Cycle:
          ++CycleIn[E.Dst];
          if (!Ifg.isHeader(E.Dst) || Ifg.parent(E.Src) != E.Dst)
            err(E.Src, "CYCLE edge to node " + itostr(E.Dst) +
                           " whose target is not the enclosing header");
          else if (Ifg.lastChild(E.Dst) != E.Src)
            err(E.Dst, "LASTCHILD disagrees with the CYCLE edge source " +
                           itostr(E.Src));
          break;
        case EdgeType::Forward:
          if (Ifg.parent(E.Src) != Ifg.parent(E.Dst))
            err(E.Src, "FORWARD edge to node " + itostr(E.Dst) +
                           " crosses an interval boundary");
          break;
        case EdgeType::Jump: {
          // A jump must leave at least one interval: in the forward
          // orientation the target is shallower; reversed jumps dive
          // back in.
          bool LeavesLoop = Ifg.isReversed()
                                ? Ifg.level(E.Dst) > Ifg.level(E.Src)
                                : Ifg.level(E.Src) > Ifg.level(E.Dst);
          if (!LeavesLoop)
            err(E.Src, "JUMP edge to node " + itostr(E.Dst) +
                           " does not cross a loop boundary");
          break;
        }
        case EdgeType::Synthetic:
          break; // Checked against the JUMP projection below.
        }
      }

    for (NodeId Node = 0; Node != N; ++Node) {
      if (EntryIn[Node] > 1)
        err(Node, "several incoming ENTRY edges");
      if (EntryIn[Node] == 0 && Ifg.headerOf(Node) != InvalidNode)
        err(Node, "HEADER map set without an incoming ENTRY edge");
      if (CycleIn[Node] > 1)
        err(Node, "several incoming CYCLE edges (intervals must have one)");
      if (Ifg.isHeader(Node)) {
        // Every header enters its interval exactly once. ROOT is exempt
        // in one orientation: the forward graph has no exit->ROOT CYCLE
        // edge, so the reversed ROOT has no ENTRY successor.
        if (EntryOut[Node] != 1 && Node != Ifg.root())
          err(Node, "header with " + itostr(EntryOut[Node]) +
                        " ENTRY successors (expected exactly 1)");
        if (CycleIn[Node] == 0 && Node != Ifg.root())
          err(Node, "interval without a CYCLE edge");
        NodeId Latch = Ifg.lastChild(Node);
        if (Latch == InvalidNode || Latch >= N)
          err(Node, "header without a LASTCHILD");
        else if (CycleIn[Node] != 0 && NonEntrySuccs[Latch] != 1)
          // ENTRY successors don't count: on a reversed graph the latch
          // is the forward entry child, which may itself be a header
          // descending into its own interval.
          err(Latch, "CYCLE edge source has other successors");
      } else {
        if (EntryOut[Node] != 0)
          err(Node, "ENTRY edge leaving a non-header");
        if (CycleIn[Node] != 0)
          err(Node, "CYCLE edge into a non-header");
      }
    }

    // No critical edges: the placement argument of Section 4.5 needs
    // every real edge to have a unique insertion point.
    for (NodeId Node = 0; Node != N; ++Node)
      for (const IfgEdge &E : Ifg.succs(Node))
        if (isRealEdge(E.Type) && RealSuccs[E.Src] > 1 && RealPreds[E.Dst] > 1)
          err(E.Src, std::string(edgeTypeName(E.Type)) + " edge to node " +
                         itostr(E.Dst) + " is critical",
              "split the edge with a synthetic node");
  }

  void checkSyntheticProjection() {
    // Expected SYNTHETIC edges: each JUMP edge projects onto the header
    // of every interval it leaves (forward: headers above the source up
    // to the target's interval; reversed: the mirrored walk).
    using EdgeList = std::vector<std::pair<NodeId, NodeId>>;
    EdgeList Expected;
    for (NodeId Node = 0; Node != N; ++Node)
      for (const IfgEdge &E : Ifg.succs(Node)) {
        if (E.Type != EdgeType::Jump)
          continue;
        NodeId Inner = Ifg.isReversed() ? E.Dst : E.Src;
        NodeId Outer = Ifg.isReversed() ? E.Src : E.Dst;
        NodeId H = Ifg.parent(Inner);
        while (H != InvalidNode && H != Ifg.parent(Outer)) {
          if (Ifg.isReversed())
            Expected.emplace_back(Outer, H);
          else
            Expected.emplace_back(H, Outer);
          H = Ifg.parent(H);
        }
        if (H == InvalidNode)
          err(E.Src, "JUMP edge to node " + itostr(E.Dst) +
                         " whose target interval does not enclose the source");
      }

    EdgeList Present;
    for (NodeId Node = 0; Node != N; ++Node)
      for (const IfgEdge &E : Ifg.succs(Node))
        if (E.Type == EdgeType::Synthetic)
          Present.emplace_back(E.Src, E.Dst);

    auto SortUnique = [](EdgeList &L) {
      std::sort(L.begin(), L.end());
      L.erase(std::unique(L.begin(), L.end()), L.end());
    };
    SortUnique(Expected);
    SortUnique(Present);
    auto Contains = [](const EdgeList &L, const std::pair<NodeId, NodeId> &S) {
      return std::binary_search(L.begin(), L.end(), S);
    };
    for (const auto &S : Present)
      if (!Contains(Expected, S))
        err(S.first, "SYNTHETIC edge to node " + itostr(S.second) +
                         " matches no JUMP edge projection");
    for (const auto &S : Expected)
      if (!Contains(Present, S))
        err(S.first, "missing SYNTHETIC edge to node " + itostr(S.second) +
                         " for a JUMP leaving this interval");
  }

  const IntervalFlowGraph &Ifg;
  Reporter &Rep;
  const unsigned N;
};

//===----------------------------------------------------------------------===//
// Run audit
//===----------------------------------------------------------------------===//

const char *urgencyTag(Urgency U) {
  return U == Urgency::Eager ? "EAGER" : "LAZY";
}

class RunAuditor {
public:
  RunAuditor(const GntRun &Run, const AuditOptions &Opts, Reporter &Rep,
             AuditResult &Out)
      : Run(Run), Ifg(Run.OrientedIfg), P(Run.OrientedProblem), R(Run.Result),
        Opts(Opts), Rep(Rep), Out(Out), N(Ifg.size()) {}

  void run() {
    if (Opts.CheckCorrectness || Opts.CheckOptimality) {
      // The verifier reports C1/C3 (correctness), O1 (optimality) and,
      // on a graph without a unique start node, one IFG error.
      GntVerifyResult V = verifyGntRun(Run, Rep.names());
      for (const Diagnostic &D : V.Diags.all())
        if (D.Check == CheckId::Ifg ||
            (D.Check == CheckId::O1 ? Opts.CheckOptimality
                                    : Opts.CheckCorrectness))
          Rep.add(D);
      if (V.Diags.contains(CheckId::Ifg))
        return;
    }
    if (Opts.CheckOptimality) {
      checkLiveness(Urgency::Eager);
      checkLiveness(Urgency::Lazy);
      checkPlacementLaws();
      checkSpeculation();
    }
    if (Opts.CheckDifferential)
      checkDifferential();
  }

private:
  const GntPlacement &placement(Urgency Urg) const {
    return Urg == Urgency::Eager ? R.Eager : R.Lazy;
  }

  DataflowResult solve(const DataflowSpec &Spec) {
    DataflowResult D = solveDataflow(Ifg, Spec);
    ++Out.Stats.EngineSolves;
    Out.Stats.Engine.Iterations += D.Stats.Iterations;
    Out.Stats.Engine.NodeVisits += D.Stats.NodeVisits;
    Out.Stats.Engine.EdgeEvaluations += D.Stats.EdgeEvaluations;
    Out.Stats.Engine.WorklistPeak =
        std::max(Out.Stats.Engine.WorklistPeak, D.Stats.WorklistPeak);
    return D;
  }

  std::string named(unsigned Item) const { return itemName(Rep.names(), Item); }

  //===--------------------------------------------------------------------===//
  // O2: engine-solved production liveness.
  //===--------------------------------------------------------------------===//

  void checkLiveness(Urgency Urg) {
    const GntPlacement &Pl = placement(Urg);
    const char *Tag = urgencyTag(Urg);
    // JUMP-edge projection makes the solver place production for demand
    // that exists on no real path; do not call that an error.
    const bool Jumps = Ifg.hasJumpEdges();
    DiagSeverity Sev = Jumps ? DiagSeverity::Note : DiagSeverity::Warning;
    const char *Hint =
        Jumps ? "possibly forced by JUMP-edge projection; check the jump paths"
              : "no path consumes this production before it is voided";
    DataflowSpec Spec = makeProductionLivenessSpec(Run, Urg);
    DataflowResult D = solve(Spec);
    for (NodeId Node = 0; Node != N; ++Node) {
      // Out = liveness just below the entry production point; In = just
      // below the exit production point (backward orientation).
      BitVector DeadIn = Pl.ResIn[Node];
      DeadIn.reset(D.Out[Node]);
      for (unsigned I : DeadIn)
        Rep.report(Sev, CheckId::O2, Tag, Node, static_cast<int>(I),
                   "produces " + named(I) + " which no consumer uses", Hint);
      BitVector DeadOut = Pl.ResOut[Node];
      DeadOut.reset(D.In[Node]);
      for (unsigned I : DeadOut)
        Rep.report(Sev, CheckId::O2, Tag, Node, static_cast<int>(I),
                   "produces " + named(I) + " at its exit which no consumer uses",
                   Hint);
    }
  }

  //===--------------------------------------------------------------------===//
  // O3/O3': exact placement laws.
  //===--------------------------------------------------------------------===//

  void checkPlacementLaws() {
    for (Urgency Urg : {Urgency::Eager, Urgency::Lazy}) {
      const GntPlacement &Pl = placement(Urg);
      const bool Eager = Urg == Urgency::Eager;
      CheckId Check = Eager ? CheckId::O3 : CheckId::O3L;
      const char *Tag = urgencyTag(Urg);
      for (NodeId Node = 0; Node != N; ++Node) {
        // Eq. 12/14: entry production only where consumption is
        // anticipated (EAGER: TAKEN_in) or demanded locally (LAZY: TAKE).
        const BitVector &Bound = Eager ? R.TakenIn[Node] : R.Take[Node];
        BitVector Bad = Pl.ResIn[Node];
        Bad.reset(Bound);
        for (unsigned I : Bad)
          Rep.report(DiagSeverity::Error, Check, Tag, Node,
                     static_cast<int>(I),
                     std::string("produces ") + named(I) +
                         (Eager ? " where no consumption is anticipated"
                                : " earlier than demand requires"),
                     Eager ? "RES_in must stay within TAKEN_in (Eq. 12/14)"
                           : "lazy RES_in must stay within TAKE (Eq. 12/14)");
        // Eq. 14: no production of an item already flowing in.
        BitVector Doubled = Pl.ResIn[Node];
        Doubled &= Pl.GivenIn[Node];
        for (unsigned I : Doubled)
          Rep.report(DiagSeverity::Error, Check, Tag, Node,
                     static_cast<int>(I),
                     "produces " + named(I) + " which GIVEN_in already carries",
                     "RES_in and GIVEN_in must be disjoint (Eq. 14)");
        // Eq. 15: no exit production of an item already flowing out.
        BitVector DoubledOut = Pl.ResOut[Node];
        DoubledOut &= Pl.GivenOut[Node];
        for (unsigned I : DoubledOut)
          Rep.report(DiagSeverity::Error, Check, Tag, Node,
                     static_cast<int>(I),
                     "produces " + named(I) +
                         " at its exit which GIVEN_out already carries",
                     "RES_out and GIVEN_out must be disjoint (Eq. 15)");
        // Section 4.5: exit production needs a unique insertion edge.
        if (Pl.ResOut[Node].any()) {
          unsigned RealSuccs = 0;
          for (const IfgEdge &E : Ifg.succs(Node))
            RealSuccs += isRealEdge(E.Type);
          if (RealSuccs != 1)
            Rep.report(DiagSeverity::Error, Check, Tag, Node, -1,
                       "exit production on a node with " + itostr(RealSuccs) +
                           " successors",
                       "RES_out must land on single-successor nodes "
                       "(no-critical-edge argument, Section 4.5)");
        }
      }
    }
  }

  /// Speculation note: on jump-free graphs, eager production of an item
  /// no real path consumes before stealing it is speculative. (With
  /// jumps, SYNTHETIC projection makes such placements legitimate.)
  void checkSpeculation() {
    if (Ifg.hasJumpEdges())
      return;
    DataflowSpec Spec = makeAnticipabilitySpec(Run);
    DataflowResult D = solve(Spec);
    for (NodeId Node = 0; Node != N; ++Node) {
      // Backward orientation: Out = anticipability at the node entry,
      // In = at the node exit.
      BitVector Spec1 = R.Eager.ResIn[Node];
      Spec1.reset(D.Out[Node]);
      for (unsigned I : Spec1)
        Rep.report(DiagSeverity::Note, CheckId::O3, "EAGER", Node,
                   static_cast<int>(I),
                   "speculatively produces " + named(I) +
                       " which no path consumes before a steal");
      BitVector Spec2 = R.Eager.ResOut[Node];
      Spec2.reset(D.In[Node]);
      for (unsigned I : Spec2)
        Rep.report(DiagSeverity::Note, CheckId::O3, "EAGER", Node,
                   static_cast<int>(I),
                   "speculatively produces " + named(I) +
                       " at its exit which no path consumes before a steal");
    }
  }

  //===--------------------------------------------------------------------===//
  // DIFF: iterative reference solver comparison.
  //===--------------------------------------------------------------------===//

  void diffVariable(const char *Name, const char *Solution,
                    const std::vector<BitVector> &Got,
                    const std::vector<BitVector> &Want) {
    for (NodeId Node = 0; Node != N; ++Node) {
      if (Got[Node] == Want[Node])
        continue;
      BitVector Extra = Got[Node];
      Extra.reset(Want[Node]);
      BitVector Missing = Want[Node];
      Missing.reset(Got[Node]);
      int Item = Extra.any() ? Extra.findFirst() : Missing.findFirst();
      Rep.report(DiagSeverity::Error, CheckId::Diff, Solution, Node, Item,
                 std::string(Name) + " disagrees with the iterative "
                     "reference solver (" +
                     itostr(Extra.count()) + " extra, " +
                     itostr(Missing.count()) + " missing)",
                 "re-derive the variable by chaotic iteration of Eqs. 1-15");
    }
  }

  void checkDifferential() {
    ReferenceResult Ref = solveGiveNTakeIterative(Ifg, P);
    Out.Stats.ReferenceSweeps = Ref.Sweeps;
    if (!Ref.Converged) {
      Rep.report(DiagSeverity::Error, CheckId::Engine, nullptr, ~0u, -1,
                 "iterative reference solver did not converge in " +
                     itostr(Ref.Sweeps) + " sweeps");
      return;
    }
    const GntResult &W = Ref.Result;
    diffVariable("STEAL", nullptr, R.Steal, W.Steal);
    diffVariable("GIVE", nullptr, R.Give, W.Give);
    diffVariable("BLOCK", nullptr, R.Block, W.Block);
    diffVariable("TAKEN_out", nullptr, R.TakenOut, W.TakenOut);
    diffVariable("TAKE", nullptr, R.Take, W.Take);
    diffVariable("TAKEN_in", nullptr, R.TakenIn, W.TakenIn);
    diffVariable("BLOCK_loc", nullptr, R.BlockLoc, W.BlockLoc);
    diffVariable("TAKE_loc", nullptr, R.TakeLoc, W.TakeLoc);
    diffVariable("GIVE_loc", nullptr, R.GiveLoc, W.GiveLoc);
    diffVariable("STEAL_loc", nullptr, R.StealLoc, W.StealLoc);
    struct {
      const GntPlacement *Got, *Want;
      const char *Tag;
    } Sides[2] = {{&R.Eager, &W.Eager, "EAGER"}, {&R.Lazy, &W.Lazy, "LAZY"}};
    for (const auto &S : Sides) {
      diffVariable("GIVEN_in", S.Tag, S.Got->GivenIn, S.Want->GivenIn);
      diffVariable("GIVEN", S.Tag, S.Got->Given, S.Want->Given);
      diffVariable("GIVEN_out", S.Tag, S.Got->GivenOut, S.Want->GivenOut);
      diffVariable("RES_in", S.Tag, S.Got->ResIn, S.Want->ResIn);
      diffVariable("RES_out", S.Tag, S.Got->ResOut, S.Want->ResOut);
    }

    // The LAZY solution never carries more than the EAGER one: Take is
    // within TakenIn, and Eq. 11-13 preserve the containment node by
    // node in preorder.
    struct {
      const std::vector<BitVector> *Lazy, *Eager;
      const char *Name;
    } Laws[3] = {{&R.Lazy.GivenIn, &R.Eager.GivenIn, "GIVEN_in"},
                 {&R.Lazy.Given, &R.Eager.Given, "GIVEN"},
                 {&R.Lazy.GivenOut, &R.Eager.GivenOut, "GIVEN_out"}};
    for (const auto &L : Laws)
      for (NodeId Node = 0; Node != N; ++Node)
        if (!(*L.Lazy)[Node].isSubsetOf((*L.Eager)[Node])) {
          BitVector Extra = (*L.Lazy)[Node];
          Extra.reset((*L.Eager)[Node]);
          Rep.report(DiagSeverity::Error, CheckId::Diff, "LAZY", Node,
                     Extra.findFirst(),
                     std::string("LAZY ") + L.Name +
                         " is not contained in the EAGER one",
                     "the lazy placement must never exceed the eager one");
        }
  }

  const GntRun &Run;
  const IntervalFlowGraph &Ifg;
  const GntProblem &P;
  const GntResult &R;
  const AuditOptions &Opts;
  Reporter &Rep;
  AuditResult &Out;
  const unsigned N;
};

} // namespace

AuditResult gnt::auditIfg(const IntervalFlowGraph &Ifg) {
  AuditResult Out;
  AuditOptions Opts;
  std::vector<std::string> NoNames;
  Reporter Rep(Out, Opts, NoNames);
  IfgLinter(Ifg, Rep).run();
  Rep.finish();
  return Out;
}

AuditResult gnt::auditGntRun(const GntRun &Run,
                             const std::vector<std::string> &ItemNames,
                             const AuditOptions &Opts) {
  AuditResult Out;
  Reporter Rep(Out, Opts, ItemNames);
  if (Opts.CheckStructure)
    IfgLinter(Run.OrientedIfg, Rep).run();
  RunAuditor(Run, Opts, Rep, Out).run();
  Rep.finish();
  return Out;
}
