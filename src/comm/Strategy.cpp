//===- comm/Strategy.cpp - Placement strategy zoo ---------------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "comm/Strategy.h"

#include "cfg/Dominators.h"
#include "dataflow/Lospre.h"

#include <cstdio>
#include <sstream>

using namespace gnt;

const char *gnt::placementStrategyName(PlacementStrategy S) {
  switch (S) {
  case PlacementStrategy::Balanced:
    return "balanced";
  case PlacementStrategy::Speculative:
    return "speculative";
  case PlacementStrategy::Lospre:
    return "lospre";
  }
  return "balanced";
}

bool gnt::parsePlacementStrategy(const std::string &Name,
                                 PlacementStrategy &Out) {
  if (Name == "balanced")
    Out = PlacementStrategy::Balanced;
  else if (Name == "speculative")
    Out = PlacementStrategy::Speculative;
  else if (Name == "lospre")
    Out = PlacementStrategy::Lospre;
  else
    return false;
  return true;
}

namespace {

/// Renders a count: integral values print without a fraction, anything
/// else with full round-trip precision.
std::string fmtCount(double V) {
  long long LL = static_cast<long long>(V);
  if (static_cast<double>(LL) == V && V > -1e15 && V < 1e15)
    return std::to_string(LL);
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

std::string gnt::renderExecProfile(const ExecProfile &Prof) {
  std::string R = "gnt-profile-v1\n";
  for (const auto &[Ord, Count] : Prof.Stmt)
    R += "stmt " + std::to_string(Ord) + " " + fmtCount(Count) + "\n";
  for (const auto &[Ord, Arms] : Prof.Branch)
    R += "branch " + std::to_string(Ord) + " " + fmtCount(Arms.first) +
         " " + fmtCount(Arms.second) + "\n";
  for (const auto &[Ord, Iters] : Prof.Loop)
    R += "loop " + std::to_string(Ord) + " " + fmtCount(Iters) + "\n";
  return R;
}

bool gnt::parseExecProfile(const std::string &Text, ExecProfile &Prof,
                           std::string &Error) {
  Prof = ExecProfile();
  std::istringstream In(Text);
  std::string Line;
  bool SawHeader = false;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    std::istringstream L(Line);
    std::string Tok;
    if (!(L >> Tok))
      continue; // Blank line.
    if (!SawHeader) {
      if (Tok != "gnt-profile-v1") {
        Error = "profile line " + std::to_string(LineNo) +
                ": expected gnt-profile-v1 header, got `" + Tok + "`";
        return false;
      }
      SawHeader = true;
      continue;
    }
    auto malformed = [&] {
      Error = "profile line " + std::to_string(LineNo) +
              ": malformed `" + Tok + "` entry";
      return false;
    };
    unsigned Ord = 0;
    if (Tok == "stmt") {
      double Count = 0;
      if (!(L >> Ord >> Count) || Count < 0)
        return malformed();
      Prof.Stmt[Ord] = Count;
    } else if (Tok == "branch") {
      double Then = 0, Else = 0;
      if (!(L >> Ord >> Then >> Else) || Then < 0 || Else < 0)
        return malformed();
      Prof.Branch[Ord] = {Then, Else};
    } else if (Tok == "loop") {
      double Iters = 0;
      if (!(L >> Ord >> Iters) || Iters < 0)
        return malformed();
      Prof.Loop[Ord] = Iters;
    } else {
      Error = "profile line " + std::to_string(LineNo) +
              ": unknown entry kind `" + Tok + "`";
      return false;
    }
  }
  Error.clear();
  return true;
}

AnchorFrequencies::AnchorFrequencies(const Program &P,
                                     const ExecProfile &Prof) {
  unsigned Ord = 0;
  forEachStmt(P.getBody(), [&](const Stmt *S) {
    unsigned O = Ord++;
    if (auto It = Prof.Stmt.find(O); It != Prof.Stmt.end())
      StmtFreq[S] = It->second;
    if (auto It = Prof.Branch.find(O); It != Prof.Branch.end()) {
      ThenFreq[S] = It->second.first;
      ElseFreq[S] = It->second.second;
    }
    if (auto It = Prof.Loop.find(O); It != Prof.Loop.end())
      LoopFreq[S] = It->second;
  });
}

double AnchorFrequencies::at(const Stmt *S, EmitWhere W) const {
  const std::map<const Stmt *, double> *M = nullptr;
  switch (W) {
  case EmitWhere::Before:
  case EmitWhere::After:
    M = &StmtFreq;
    break;
  case EmitWhere::ThenEntry:
  case EmitWhere::ThenExit:
    M = &ThenFreq;
    break;
  case EmitWhere::ElseEntry:
  case EmitWhere::ElseExit:
    M = &ElseFreq;
    break;
  case EmitWhere::BodyStart:
  case EmitWhere::BodyEnd:
    M = &LoopFreq;
    break;
  }
  auto It = M->find(S);
  return It == M->end() ? 0.0 : It->second;
}

double gnt::expectedMessageCost(const Program &P, const CommPlan &Plan,
                                const ExecProfile &Prof) {
  AnchorFrequencies Freq(P, Prof);
  double Cost = 0;
  for (const auto &[Key, Ops] : Plan.Anchored) {
    unsigned Charging = 0;
    for (const CommOp &Op : Ops)
      Charging += Op.Kind == CommOpKind::ReadRecv ||
                  Op.Kind == CommOpKind::WriteRecv ||
                  Op.Kind == CommOpKind::AtomicRead ||
                  Op.Kind == CommOpKind::AtomicWrite;
    if (Charging)
      Cost += Charging * Freq.at(Key.S, Key.Where);
  }
  return Cost;
}

CommPlan gnt::generateSpeculativeComm(const Program &P, const Cfg &G,
                                      const IntervalFlowGraph &Ifg,
                                      const CommOptions &Opts,
                                      const ExecProfile &Prof) {
  CommPlan Balanced = generateComm(P, G, Ifg, Opts);
  if (Prof.empty() || !Opts.GenerateReads || !Balanced.ReadRun)
    return Balanced;

  std::map<const Stmt *, unsigned> Ordinal;
  unsigned Ord = 0;
  forEachStmt(P.getBody(), [&](const Stmt *S) { Ordinal[S] = Ord++; });

  // Candidate selection: branches whose profile bias meets the
  // threshold promote the takes of every node their likely arm
  // dominates onto the branch node itself. The takes are *added*, never
  // moved — the originals keep C3 coverage on the unlikely path.
  Dominators Dom(G);
  const unsigned U = Balanced.ReadProblem.UniverseSize;
  GntProblem Aug = Balanced.ReadProblem;
  bool AnyCandidate = false;
  for (NodeId N = 0; N != G.size(); ++N) {
    const CfgNode &Node = G.node(N);
    if (Node.Kind != NodeKind::Branch || !Node.S)
      continue;
    auto OIt = Ordinal.find(Node.S);
    if (OIt == Ordinal.end())
      continue;
    auto BIt = Prof.Branch.find(OIt->second);
    if (BIt == Prof.Branch.end())
      continue;
    double Then = BIt->second.first, Else = BIt->second.second;
    double Total = Then + Else;
    if (Total <= 0)
      continue;
    double PThen = Then / Total;
    bool LikelyThen = PThen >= 0.5;
    if ((LikelyThen ? PThen : 1.0 - PThen) < SpeculativeBiasThreshold)
      continue;
    NodeId Arm = InvalidNode;
    if (LikelyThen)
      Arm = Node.ThenSucc;
    else
      for (NodeId S : Node.Succs)
        if (S != Node.ThenSucc)
          Arm = S;
    if (Arm == InvalidNode)
      continue;
    BitVector Promoted(U);
    for (NodeId M = 0; M != G.size(); ++M)
      if (Dom.dominates(Arm, M))
        Promoted |= Balanced.ReadProblem.TakeInit[M];
    Promoted.reset(Aug.TakeInit[N]);
    if (Promoted.none())
      continue;
    Aug.TakeInit[N] |= Promoted;
    AnyCandidate = true;
  }
  if (!AnyCandidate)
    return Balanced;

  // Re-solve the augmented READ problem. The plan's forward-orientation
  // ReadProblem stays the *original*: the simulator's per-node
  // reference events (and the plan's C3 obligations) are a property of
  // the program, not of the speculation; the augmented problem lives in
  // the run's OrientedProblem, which is what the auditor re-checks.
  GntRun SpecRun = runGiveNTake(Ifg, Aug);
  CommPlan Spec;
  Spec.Opts = Balanced.Opts;
  Spec.Refs = Balanced.Refs;
  Spec.ReadProblem = Balanced.ReadProblem;
  Spec.WriteProblem = Balanced.WriteProblem;
  Spec.WriteRun = Balanced.WriteRun;
  Spec.ReadRun = std::move(SpecRun);
  if (Spec.WriteRun)
    emitCommPhase(Spec, G, Ifg, *Spec.WriteRun, Urgency::Lazy,
                  CommOpKind::WriteSend, CommOpKind::WriteRecv,
                  CommOpKind::AtomicWrite, Opts.Atomic);
  emitCommPhase(Spec, G, Ifg, *Spec.ReadRun, Urgency::Eager,
                CommOpKind::ReadSend, CommOpKind::ReadRecv,
                CommOpKind::AtomicRead, Opts.Atomic);

  // Global gate: adopt the speculation only on a strict expected-cost
  // win under the supplied profile; otherwise the balanced plan is the
  // answer, byte-identically.
  if (expectedMessageCost(P, Spec, Prof) <
      expectedMessageCost(P, Balanced, Prof))
    return Spec;
  return Balanced;
}

CommPlan gnt::losprePlacement(const Program &P, const Cfg &G,
                              const IntervalFlowGraph &Ifg,
                              const CommOptions &Opts) {
  CommPlan Plan;
  Plan.Opts = Opts;
  Plan.Refs = analyzeReferences(P, G);
  buildCommProblems(Plan.Refs, G, Ifg, Opts, Plan.ReadProblem,
                    Plan.WriteProblem);

  // WRITEs keep the balanced GIVE-N-TAKE discipline (lospre, like LCM,
  // is a READ placement formulation); the write phase is emitted first
  // so write-backs precede reads at shared anchors.
  if (Opts.GenerateWrites && !Opts.OwnerComputes) {
    Plan.WriteRun = runGiveNTake(Ifg, Plan.WriteProblem);
    emitCommPhase(Plan, G, Ifg, *Plan.WriteRun, Urgency::Lazy,
                  CommOpKind::WriteSend, CommOpKind::WriteRecv,
                  CommOpKind::AtomicWrite, Opts.Atomic);
  }

  // READs: atomic operations at the busy-code-motion EARLIEST points of
  // the elimination solve. Earliest insertions cover every occurrence,
  // so no per-occurrence reads are kept.
  if (Opts.GenerateReads) {
    LospreResult L = solveLospre(G, Ifg, Plan.ReadProblem);
    for (NodeId Id = 0; Id != G.size(); ++Id) {
      const CfgNode &Node = G.node(Id);
      if (!Node.EmitStmt)
        continue;
      auto add = [&](const AnchorKey &K, const BitVector &BV) {
        for (unsigned I : BV)
          Plan.Anchored[K].push_back({CommOpKind::AtomicRead, I});
      };
      add({Node.EmitStmt, Node.Where}, L.InsertAtEntry[Id]);
      EmitWhere ExitW = Node.Where == EmitWhere::Before ? EmitWhere::After
                                                        : Node.Where;
      add({Node.EmitStmt, ExitW}, L.InsertAtExit[Id]);
    }
  }
  return Plan;
}

CommPlan gnt::generateStrategyComm(PlacementStrategy S, const Program &P,
                                   const Cfg &G,
                                   const IntervalFlowGraph &Ifg,
                                   const CommOptions &Opts,
                                   const ExecProfile &Prof) {
  switch (S) {
  case PlacementStrategy::Balanced:
    return generateComm(P, G, Ifg, Opts);
  case PlacementStrategy::Speculative:
    return generateSpeculativeComm(P, G, Ifg, Opts, Prof);
  case PlacementStrategy::Lospre:
    return losprePlacement(P, G, Ifg, Opts);
  }
  return generateComm(P, G, Ifg, Opts);
}
