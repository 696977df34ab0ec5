//===- comm/Strategy.h - Placement strategy zoo -----------------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// First-class placement strategies over the same interval dataflow
/// (DESIGN.md §15). The framework's default placement is the paper's
/// *balanced* discipline; this header adds two competitors and the
/// machinery they share:
///
///  - `speculative`: profile-guided placement. Consumes per-statement
///    execution frequencies (an ExecProfile, producible by the trace
///    simulator or supplied by the user in the gnt-profile-v1 text
///    format) and *augments* the READ problem: at every branch whose
///    profile bias meets the threshold, the takes of the likely arm are
///    duplicated onto the branch node itself, letting the solver hoist
///    their production past the branch (and, transitively, out of
///    enclosing loops). The augmented plan is adopted only when its
///    expected dynamic message cost under the profile strictly beats
///    the balanced plan's — otherwise the balanced plan is returned
///    byte-identically. Trades the paper's C2 guarantee (no wasted
///    communication) for expected-cost wins; C1 and C3 still hold.
///
///  - `lospre`: a linear-time lospre-style formulation (after Krause)
///    solved by interval elimination (dataflow/Lospre.h). READs become
///    atomic operations at busy-code-motion EARLIEST points —
///    safety-first like the LCM baseline but solved in O(E) elimination
///    sweeps instead of iteration — while WRITEs keep the balanced
///    GIVE-N-TAKE write run.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_COMM_STRATEGY_H
#define GNT_COMM_STRATEGY_H

#include "comm/CommGen.h"

#include <map>
#include <string>
#include <utility>

namespace gnt {

/// The placement-strategy axis surfaced as PipelineOptions::Strategy,
/// `gntc --strategy=` and the gntd `strategy` request field.
enum class PlacementStrategy {
  Balanced,    ///< The paper's balanced placement (default).
  Speculative, ///< Profile-guided speculative hoisting past biased branches.
  Lospre,      ///< Linear-time lospre-style elimination placement.
};

/// Stable lowercase name ("balanced", "speculative", "lospre").
const char *placementStrategyName(PlacementStrategy S);

/// Parses a strategy name; returns false on unknown names.
bool parsePlacementStrategy(const std::string &Name, PlacementStrategy &Out);

/// Minimum branch bias (max of taken/not-taken probability) for a branch
/// to become a speculation candidate.
inline constexpr double SpeculativeBiasThreshold = 0.75;

/// An execution profile keyed by statement ordinal — the position of the
/// statement in a forEachStmt preorder walk of the program body, the
/// same numbering the trace simulator uses. Counts are doubles so
/// profiles can be scaled or merged.
struct ExecProfile {
  /// Executions per statement ordinal.
  std::map<unsigned, double> Stmt;
  /// Then/else arm executions per If-statement ordinal.
  std::map<unsigned, std::pair<double, double>> Branch;
  /// Total body iterations per Do-statement ordinal.
  std::map<unsigned, double> Loop;

  bool empty() const {
    return Stmt.empty() && Branch.empty() && Loop.empty();
  }
};

/// Renders \p Prof in the gnt-profile-v1 text format:
///
///   gnt-profile-v1
///   stmt <ordinal> <count>
///   branch <ordinal> <then-count> <else-count>
///   loop <ordinal> <iterations>
///
std::string renderExecProfile(const ExecProfile &Prof);

/// Parses the gnt-profile-v1 format. An empty (or whitespace-only) text
/// parses as the empty profile. Returns false and sets \p Error on
/// malformed input.
bool parseExecProfile(const std::string &Text, ExecProfile &Prof,
                      std::string &Error);

/// Per-anchor execution frequencies of \p P under \p Prof: Before/After
/// anchors fire once per statement execution, ThenEntry/ThenExit and
/// ElseEntry/ElseExit once per arm execution, BodyStart/BodyEnd once per
/// loop iteration. Anchors without profile data have frequency 0.
class AnchorFrequencies {
public:
  AnchorFrequencies(const Program &P, const ExecProfile &Prof);

  double at(const Stmt *S, EmitWhere W) const;

private:
  std::map<const Stmt *, double> StmtFreq, ThenFreq, ElseFreq, LoopFreq;
};

/// Expected dynamic message count of \p Plan under \p Prof: each
/// message-charging operation (Read_Recv, Write_Recv, atomic Read/Write)
/// weighted by its anchor's execution frequency. For jump-free programs
/// this equals the trace simulator's Messages count for any execution
/// whose trajectory produced \p Prof (communication operations never
/// influence control flow).
double expectedMessageCost(const Program &P, const CommPlan &Plan,
                           const ExecProfile &Prof);

/// Profile-guided speculative placement (see file comment). With an
/// empty profile, no candidate branches, or no expected-cost win, the
/// returned plan is byte-identical to generateComm's.
CommPlan generateSpeculativeComm(const Program &P, const Cfg &G,
                                 const IntervalFlowGraph &Ifg,
                                 const CommOptions &Opts,
                                 const ExecProfile &Prof);

/// Lospre placement: atomic READs at busy-code-motion EARLIEST points
/// from the interval elimination solve, balanced GIVE-N-TAKE WRITEs.
CommPlan losprePlacement(const Program &P, const Cfg &G,
                         const IntervalFlowGraph &Ifg,
                         const CommOptions &Opts);

/// Strategy dispatcher. \p Prof is consulted by Speculative only.
CommPlan generateStrategyComm(PlacementStrategy S, const Program &P,
                              const Cfg &G, const IntervalFlowGraph &Ifg,
                              const CommOptions &Opts,
                              const ExecProfile &Prof);

} // namespace gnt

#endif // GNT_COMM_STRATEGY_H
