//===- comm/CommGen.h - Communication generation ----------------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Section 2/3.1 application: generating READ and WRITE
/// communication for FMini programs over distributed arrays.
///
///  - READs are a BEFORE problem: references consume, local definitions
///    produce "for free" (non-owner-computes), overlapping definitions
///    steal. Read_Send is the EAGER solution, Read_Recv the LAZY one.
///  - WRITEs are an AFTER problem: definitions consume (they create data
///    that must flow back to the owners); references to overlapping data
///    steal (the write-back must precede them). Write_Send is the LAZY
///    solution, Write_Recv the EAGER one.
///
/// The resulting productions are anchored to source positions and can be
/// printed as an annotated program in the style of Figures 2, 3 and 14.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_COMM_COMMGEN_H
#define GNT_COMM_COMMGEN_H

#include "comm/RefAnalysis.h"
#include "dataflow/GiveNTake.h"
#include "dataflow/Incremental.h"
#include "dataflow/Verifier.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace gnt {

/// Knobs for communication generation.
struct CommOptions {
  /// Owner-computes rule: definitions of distributed data happen at the
  /// owners, so they neither produce reads "for free" nor require WRITEs
  /// (they still steal cached copies).
  bool OwnerComputes = false;

  /// Hoist communication out of potentially zero-trip loops (the paper's
  /// default; Section 2 argues slight over-communication is acceptable).
  bool HoistZeroTrip = true;

  /// Atomic placement: one combined READ/WRITE operation at the LAZY
  /// point (e.g. for a library call), instead of split send/receive.
  bool Atomic = false;

  /// Generate the READ (Before) problem.
  bool GenerateReads = true;

  /// Generate the WRITE (After) problem.
  bool GenerateWrites = true;
};

/// One generated communication operation.
enum class CommOpKind {
  ReadSend,
  ReadRecv,
  WriteSend,
  WriteRecv,
  AtomicRead,
  AtomicWrite,
};

const char *commOpName(CommOpKind K);

struct CommOp {
  CommOpKind Kind;
  unsigned Item;
};

/// Source anchor for generated operations.
struct AnchorKey {
  const Stmt *S = nullptr;
  EmitWhere Where = EmitWhere::Before;

  bool operator<(const AnchorKey &RHS) const {
    if (S != RHS.S)
      return S < RHS.S;
    return Where < RHS.Where;
  }
};

/// The full communication plan for a program.
struct CommPlan {
  CommOptions Opts;
  RefAnalysisResult Refs;

  /// True for plans whose messages carry single elements (the naive
  /// baseline communicates per reference execution); GIVE-N-TAKE plans
  /// move whole sections.
  bool ElementMessages = false;

  /// Forward-orientation problem inputs (also consumed by the simulator
  /// for per-node steal/give/take events).
  GntProblem ReadProblem;
  GntProblem WriteProblem;

  /// Solver runs (present when the respective problem was generated).
  std::optional<GntRun> ReadRun;
  std::optional<GntRun> WriteRun;

  /// Generated operations by source anchor, in emission order.
  std::map<AnchorKey, std::vector<CommOp>> Anchored;

  /// Renders the annotated program (Figures 2/3/14 style).
  std::string annotate(const Program &P) const;

  /// Static placement counts per operation kind.
  std::map<CommOpKind, unsigned> staticCounts() const;

  /// Runs the independent C1/C3/O1 verifier on both solver runs.
  GntVerifyResult verify() const;
};

/// Analyzes \p P and computes the full communication plan. \p G and
/// \p Ifg must come from buildCfg / IntervalFlowGraph::build on \p P.
/// \p Inc, when set, routes the READ and WRITE solves through
/// runGiveNTakeIncremental with the context's Read/Write memo slots
/// (dataflow/Incremental.h), whose results are byte-identical to a
/// cold solve by contract.
CommPlan generateComm(const Program &P, const Cfg &G,
                      const IntervalFlowGraph &Ifg,
                      const CommOptions &Opts = {},
                      GntIncrementalContext *Inc = nullptr);

/// Builds the READ (Before) and WRITE (After) problem inputs from the
/// reference analysis. Shared with the baseline generators, which reuse
/// the same per-node reference events.
void buildCommProblems(const RefAnalysisResult &Refs, const Cfg &G,
                       const IntervalFlowGraph &Ifg, const CommOptions &Opts,
                       GntProblem &Read, GntProblem &Write);

/// Emits one solver run's productions into \p Plan.Anchored: nodes in
/// preorder, sends before receives, branch-node exit production
/// duplicated onto both arm entries. \p SendUrg selects which urgency is
/// the send (EAGER for READ phases, LAZY for WRITE phases); \p Atomic
/// emits the fused LAZY-only operation instead. Shared between
/// generateComm and the strategy planners (comm/Strategy.h), which must
/// anchor byte-identically.
void emitCommPhase(CommPlan &Plan, const Cfg &G, const IntervalFlowGraph &Ifg,
                   const GntRun &Run, Urgency SendUrg, CommOpKind SendKind,
                   CommOpKind RecvKind, CommOpKind AtomicKind, bool Atomic);

} // namespace gnt

#endif // GNT_COMM_COMMGEN_H
