//===- dataflow/Incremental.h - Interval-incremental GNT solve -*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interval-level incremental solving for GIVE-N-TAKE: a memo of the
/// previous solve (structure digest, per-node input digests, and the
/// converged DataflowMatrix arena) lets runGiveNTakeIncremental() react
/// to an edit by re-evaluating only the schedule steps whose inputs
/// could have changed, splicing every other node's solved rows straight
/// out of the previous arena.
///
/// The dirty set is well-defined per interval because the three-pass
/// elimination schedule (Figure 15) evaluates every equation exactly
/// once in a fixed dependency order: a step whose transitive inputs —
/// init rows plus other steps' outputs — are all unchanged must produce
/// bit-identical output, so its previous rows can be kept. The closure
/// is computed per schedule step (S1/S2/S3/S4 masks) along the exact
/// edges each step reads:
///
///   S1(n) dirties when n's init rows changed, any ENTRY/FORWARD
///         successor's S1 dirtied, or the header summary (lastChild's
///         S2) dirtied;
///   S2(c) dirties when c's S1 dirtied or a FORWARD predecessor's S2
///         dirtied;
///   S3(n) dirties when n's S1 dirtied, a FORWARD predecessor's or the
///         enclosing header's S3 dirtied;
///   S4(n) dirties when n's or a FORWARD successor's S3 dirtied.
///
/// The closure is only the structural candidate set: because ROOT's
/// Eq. 1-2 summaries chain through every sibling, it degenerates to
/// all steps on most edits. The masked solver refines it with
/// row-granular value tracking (ArenaSolveMasks::Baseline): a
/// candidate step runs only when one of the rows it reads differs in
/// bytes from the memoized solve, so dirt that an interval absorbs —
/// an edit that leaves the loop's summary rows unchanged — stops at
/// that interval's boundary. The stats below count the steps that
/// actually ran after this pruning.
///
/// Three outcomes per call, all byte-identical to a cold solve by
/// contract (enforced by the incrementality-equivalence battery):
///
///   memo hit      nothing changed; the previous arena is re-exported
///                 zero-copy (results share it read-only);
///   partial solve some nodes changed and the oriented graph has no
///                 JUMP/SYNTHETIC edges; the arena is cloned and only
///                 masked steps re-run;
///   full solve    structure changed, first call, or the graph has
///                 jump edges (whose early reads must see bottom — a
///                 warm arena cannot provide that, see Section 5.3);
///                 the arena solver runs and refills the memo.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_DATAFLOW_INCREMENTAL_H
#define GNT_DATAFLOW_INCREMENTAL_H

#include "dataflow/GiveNTake.h"
#include "support/DataflowMatrix.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace gnt {

/// The previous solve of one (problem slot, option set): everything
/// needed to detect what an edit changed and to reuse what it did not.
/// The arena is immutable once stored — partial solves clone it — so
/// exported results may keep borrowing its rows indefinitely.
struct GntSolveMemo {
  /// Digest of the oriented graph shape + problem metadata (node count,
  /// direction, universe size, edges, interval structure, NoHoist set).
  /// A mismatch invalidates everything: node ids are not stable across
  /// structural edits.
  std::uint64_t StructureDigest = 0;
  /// Per-node FNV digest of the oriented TAKE/GIVE/STEAL init rows.
  std::vector<std::uint64_t> InputDigests;
  /// The converged solution arena (20 x Nodes rows). Immutable by
  /// discipline once stored: partial solves clone it before writing, so
  /// any number of exported results can keep borrowing its rows.
  std::shared_ptr<DataflowMatrix> Arena;
  unsigned Nodes = 0;
  unsigned UniverseSize = 0;

  bool valid() const { return Arena != nullptr; }
  void clear() {
    StructureDigest = 0;
    InputDigests.clear();
    Arena.reset();
    Nodes = 0;
    UniverseSize = 0;
  }
};

/// Counters describing what the incremental driver did. Monotone;
/// merged into service metrics and the gntd shutdown block.
struct GntIncrementalStats {
  unsigned long long FullSolves = 0;    ///< Cold or fallback solves.
  unsigned long long MemoHits = 0;      ///< Arena re-exported unchanged.
  unsigned long long PartialSolves = 0; ///< Masked re-solves.
  /// Node/interval accounting over partial solves only: how much of the
  /// graph the masked re-solves actually touched vs its size. A strict
  /// subset (Resolved < Total) is the whole point.
  unsigned long long NodesTotal = 0;
  unsigned long long NodesResolved = 0;
  unsigned long long IntervalsTotal = 0;
  unsigned long long IntervalsResolved = 0;

  void merge(const GntIncrementalStats &O) {
    FullSolves += O.FullSolves;
    MemoHits += O.MemoHits;
    PartialSolves += O.PartialSolves;
    NodesTotal += O.NodesTotal;
    NodesResolved += O.NodesResolved;
    IntervalsTotal += O.IntervalsTotal;
    IntervalsResolved += O.IntervalsResolved;
  }

  bool any() const {
    return FullSolves || MemoHits || PartialSolves;
  }
};

/// Digest of the *oriented* graph shape and problem metadata — every
/// structural fact the solver's schedule depends on. Equal digests mean
/// node ids, edges, interval structure, direction, universe size and
/// the NoHoist set all match, so per-node input digests are comparable.
std::uint64_t gntStructureDigest(const IntervalFlowGraph &Ifg,
                                 const GntProblem &P);

/// FNV digest of node \p N's init rows in \p P.
std::uint64_t gntNodeInputDigest(const GntProblem &P, NodeId N);

/// Drop-in replacement for runGiveNTake() that consults and refills
/// \p Memo: orients the problem with orientGiveNTake(), then serves the
/// result as a memo hit, a masked partial re-solve, or a full solve (see
/// file comment). Results are byte-identical to runGiveNTake() by
/// contract. Not thread-safe with respect to \p Memo — callers
/// serialize access per memo slot.
GntRun runGiveNTakeIncremental(const IntervalFlowGraph &Forward,
                               const GntProblem &P, GntSolveMemo &Memo,
                               GntIncrementalStats &Stats);

/// The memo slots one pipeline compilation can thread through its
/// solves: Comm mode uses Read/Write, PRE mode uses Pre. Owned by the
/// service's stage cache, keyed by the solve-relevant option subset.
struct GntIncrementalContext {
  GntSolveMemo Read;
  GntSolveMemo Write;
  GntSolveMemo Pre;
  GntIncrementalStats Stats;
};

/// Serializes \p Memo into a self-checking binary payload ("GNTMEMO1"
/// magic, little-endian u64 fields, trailing FNV checksum) suitable for
/// the service's DiskCache. Empty string when the memo is invalid.
std::string serializeGntMemo(const GntSolveMemo &Memo);

/// Rebuilds \p Memo from a payload produced by serializeGntMemo().
/// Defensive like the disk cache itself: any mismatch (magic, sizes,
/// checksum, truncation) returns false and leaves \p Memo cleared — a
/// corrupt artifact costs one full solve, never a wrong answer.
bool deserializeGntMemo(const std::string &Payload, GntSolveMemo &Memo);

} // namespace gnt

#endif // GNT_DATAFLOW_INCREMENTAL_H
