//===- comm/CommGen.cpp - Communication generation ---------------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "comm/CommGen.h"

#include "ir/AstPrinter.h"
#include "support/Support.h"

#include <string_view>
#include <unordered_map>

using namespace gnt;

const char *gnt::commOpName(CommOpKind K) {
  switch (K) {
  case CommOpKind::ReadSend:
    return "Read_Send";
  case CommOpKind::ReadRecv:
    return "Read_Recv";
  case CommOpKind::WriteSend:
    return "Write_Send";
  case CommOpKind::WriteRecv:
    return "Write_Recv";
  case CommOpKind::AtomicRead:
    return "Read";
  case CommOpKind::AtomicWrite:
    return "Write";
  }
  gntUnreachable("covered switch");
}

void gnt::buildCommProblems(const RefAnalysisResult &Refs, const Cfg &G,
                            const IntervalFlowGraph &Ifg,
                            const CommOptions &Opts, GntProblem &Read,
                            GntProblem &Write) {
  const ItemTable &Items = Refs.Items;
  unsigned U = Items.size();
  Read = GntProblem(G.size(), U, Direction::Before);
  Write = GntProblem(G.size(), U, Direction::After);

  // Item index. A reference or definition can only touch items of its
  // own array, items subscripted through the array it writes, and items
  // whose bounds depend on a scalar it reassigns; each one visits just
  // those lists instead of the whole universe.
  using ItemIndex = std::unordered_map<std::string_view, std::vector<unsigned>>;
  ItemIndex ByArray, ByIndirect, ByScalar;
  for (unsigned I = 0; I != U; ++I) {
    const Item &It = Items.item(I);
    ByArray[It.Array].push_back(I);
    if (It.isIndirect())
      ByIndirect[It.IndirectArray].push_back(I);
    for (const std::string &Sym : It.DependsOn)
      ByScalar[Sym].push_back(I);
  }
  auto itemsOf = [](const ItemIndex &Index,
                    std::string_view Key) -> const std::vector<unsigned> & {
    static const std::vector<unsigned> None;
    auto It = Index.find(Key);
    return It == Index.end() ? None : It->second;
  };

  // Overlap rows: the items that may overlap a used item, computed on
  // the item's first use. An empty row has not been computed yet.
  std::vector<BitVector> OverlapRow(U);

  for (NodeId N = 0; N != G.size(); ++N) {
    const NodeRefs &R = Refs.PerNode[N];
    // READ: references consume.
    for (unsigned Use : R.Uses)
      Read.TakeInit[N].set(Use);
    // WRITE: references to overlapping data steal pending write-backs —
    // the written values must reach their owners before any processor
    // re-fetches them (Figure 3's placement).
    for (unsigned Use : R.Uses) {
      BitVector &Row = OverlapRow[Use];
      if (Row.size() == 0) {
        const Item &Used = Items.item(Use);
        Row.resize(U);
        for (unsigned I : itemsOf(ByArray, Used.Array))
          if (Items.item(I).mayOverlap(Used))
            Row.set(I);
      }
      Write.StealInit[N] |= Row;
    }

    for (unsigned DI = 0; DI != R.Defs.size(); ++DI) {
      unsigned Def = R.Defs[DI];
      bool IsReduction = DI < R.DefOps.size() && R.DefOps[DI] != 0;
      // READ: a plain local definition produces the defined section for
      // free (non-owner-computes). A reduction gives nothing: the local
      // partial value is not the global value.
      if (!Opts.OwnerComputes && !IsReduction)
        Read.GiveInit[N].set(Def);
      // WRITE: the definition must be written (or reduced) back.
      if (!Opts.OwnerComputes)
        Write.TakeInit[N].set(Def);
    }

    // Any array definition (distributed or not) steals READ items that
    // overlap the written section or are subscripted through the written
    // array.
    for (const RawDef &D : Refs.ArrayDefs[N]) {
      // Same array: stolen when it may overlap the written section,
      // unless it is exactly the defined (and hence freshly given)
      // non-volatile direct section — except for reductions, which
      // update the owner without making the global value locally
      // available. Volatile, opaque and indirect sections overlap
      // everything of their array.
      for (unsigned I : itemsOf(ByArray, D.Array)) {
        const Item &It = Items.item(I);
        if (It.Volatile || D.Opaque || It.isIndirect() ||
            (It.Sec.mayOverlap(D.Sec) && (D.Reduction || !(It.Sec == D.Sec))))
          Read.StealInit[N].set(I);
      }
      // Writing the indirection array invalidates items subscripted
      // through it, e.g. a def of a(...) steals x(a(...)). This applies
      // to pending write-backs as well: the item's identity changes.
      for (unsigned I : itemsOf(ByIndirect, D.Array))
        if (D.Opaque || Items.item(I).Sec.mayOverlap(D.Sec)) {
          Read.StealInit[N].set(I);
          Write.StealInit[N].set(I);
        }
    }
  }

  // Reassigning a scalar a section depends on breaks the value number.
  for (const auto &[Scalar, Nodes] : Refs.ScalarAssigns)
    for (unsigned I : itemsOf(ByScalar, Scalar))
      for (NodeId N : Nodes) {
        Read.StealInit[N].set(I);
        Write.StealInit[N].set(I);
      }

  // Zero-trip hoisting opt-out (Section 4.1): every loop is treated
  // pessimistically — no consumption hoisted above it, no in-body
  // production counted as available past it.
  if (!Opts.HoistZeroTrip)
    for (NodeId N = 0; N != G.size(); ++N)
      if (N != Ifg.root() && Ifg.isHeader(N)) {
        Read.NoHoistHeaders.push_back(N);
        Write.NoHoistHeaders.push_back(N);
      }
}

namespace {

/// Anchor for production at the program-order entry of \p Node.
AnchorKey entryAnchor(const CfgNode &Node) {
  return {Node.EmitStmt, Node.Where};
}

/// Anchor for production at the program-order exit of \p Node.
AnchorKey exitAnchor(const CfgNode &Node) {
  if (Node.Where == EmitWhere::Before)
    return {Node.EmitStmt, EmitWhere::After};
  return {Node.EmitStmt, Node.Where};
}

} // namespace

void gnt::emitCommPhase(CommPlan &Plan, const Cfg &G,
                        const IntervalFlowGraph &Ifg, const GntRun &Run,
                        Urgency SendUrg, CommOpKind SendKind,
                        CommOpKind RecvKind, CommOpKind AtomicKind,
                        bool Atomic) {
  // Sends precede receives at one point. For READs the send is the EAGER
  // solution; for WRITEs it is the LAZY one (Section 3.1).
  Urgency RecvUrg = SendUrg == Urgency::Eager ? Urgency::Lazy
                                              : Urgency::Eager;
  for (NodeId N : Ifg.preorder()) {
    const CfgNode &Node = G.node(N);
    if (!Node.EmitStmt)
      continue; // Entry/Exit have no print position; the solver pins
                // ROOT's placements to bottom.
    auto emit = [&](const AnchorKey &K, CommOpKind Kind,
                    const BitVector &BV) {
      for (unsigned I : BV)
        Plan.Anchored[K].push_back({Kind, I});
    };
    // Exit production on a branch node (possible for AFTER problems:
    // RES_in of the reversed graph) executes when control leaves the
    // branch on either arm — it must print at the top of *both* arms,
    // not after the merge, or it would incorrectly follow the arms'
    // statements.
    auto emitExit = [&](CommOpKind Kind, const BitVector &BV) {
      if (BV.none())
        return;
      if (Node.Kind == NodeKind::Branch) {
        emit({Node.EmitStmt, EmitWhere::ThenEntry}, Kind, BV);
        emit({Node.EmitStmt, EmitWhere::ElseEntry}, Kind, BV);
        return;
      }
      emit(exitAnchor(Node), Kind, BV);
    };
    AnchorKey In = entryAnchor(Node);
    if (Atomic) {
      emit(In, AtomicKind, Run.resAtEntry(Urgency::Lazy, N));
      emitExit(AtomicKind, Run.resAtExit(Urgency::Lazy, N));
      continue;
    }
    emit(In, SendKind, Run.resAtEntry(SendUrg, N));
    emit(In, RecvKind, Run.resAtEntry(RecvUrg, N));
    emitExit(SendKind, Run.resAtExit(SendUrg, N));
    emitExit(RecvKind, Run.resAtExit(RecvUrg, N));
  }
}

CommPlan gnt::generateComm(const Program &P, const Cfg &G,
                           const IntervalFlowGraph &Ifg,
                           const CommOptions &Opts,
                           GntIncrementalContext *Inc) {
  CommPlan Plan;
  Plan.Opts = Opts;
  Plan.Refs = analyzeReferences(P, G);
  buildCommProblems(Plan.Refs, G, Ifg, Opts, Plan.ReadProblem,
                    Plan.WriteProblem);

  if (Opts.GenerateReads)
    Plan.ReadRun =
        Inc ? runGiveNTakeIncremental(Ifg, Plan.ReadProblem, Inc->Read,
                                      Inc->Stats)
            : runGiveNTake(Ifg, Plan.ReadProblem);
  if (Opts.GenerateWrites && !Opts.OwnerComputes)
    Plan.WriteRun =
        Inc ? runGiveNTakeIncremental(Ifg, Plan.WriteProblem, Inc->Write,
                                      Inc->Stats)
            : runGiveNTake(Ifg, Plan.WriteProblem);

  // Assemble the anchored operation lists. Two phases: at any one program
  // point every write-back precedes every read (the owners must be
  // current before data is re-fetched — Figure 3's ordering); within a
  // phase, nodes contribute in program (preorder) order, sends before
  // receives.
  if (Plan.WriteRun)
    emitCommPhase(Plan, G, Ifg, *Plan.WriteRun, Urgency::Lazy,
                  CommOpKind::WriteSend, CommOpKind::WriteRecv,
                  CommOpKind::AtomicWrite, Opts.Atomic);
  if (Plan.ReadRun)
    emitCommPhase(Plan, G, Ifg, *Plan.ReadRun, Urgency::Eager,
                  CommOpKind::ReadSend, CommOpKind::ReadRecv,
                  CommOpKind::AtomicRead, Opts.Atomic);

  return Plan;
}

std::string CommPlan::annotate(const Program &P) const {
  AstPrinter Printer([this](const Stmt *S, EmitWhere W) {
    std::vector<std::string> Lines;
    auto It = Anchored.find({S, W});
    if (It == Anchored.end())
      return Lines;
    Lines.reserve(It->second.size());
    for (const CommOp &Op : It->second) {
      const Item &I = Refs.Items.item(Op.Item);
      std::string &Line = Lines.emplace_back(commOpName(Op.Kind));
      bool IsWrite = Op.Kind == CommOpKind::WriteSend ||
                     Op.Kind == CommOpKind::WriteRecv ||
                     Op.Kind == CommOpKind::AtomicWrite;
      if (IsWrite && I.ReductionOp) {
        Line += '[';
        Line += I.ReductionOp;
        Line += ']';
      }
      // Volatile items display without their per-occurrence suffix.
      Line += '{';
      Line.append(I.Key, 0, I.Key.find('#'));
      Line += '}';
    }
    return Lines;
  });
  return Printer.print(P);
}

std::map<CommOpKind, unsigned> CommPlan::staticCounts() const {
  std::map<CommOpKind, unsigned> Counts;
  for (const auto &[Key, Ops] : Anchored)
    for (const CommOp &Op : Ops)
      ++Counts[Op.Kind];
  return Counts;
}

GntVerifyResult CommPlan::verify() const {
  GntVerifyResult All;
  std::vector<std::string> Names = Refs.Items.names();
  for (const std::optional<GntRun> *Run : {&ReadRun, &WriteRun}) {
    if (!Run->has_value())
      continue;
    All.append(verifyGntRun(**Run, Names));
  }
  return All;
}
