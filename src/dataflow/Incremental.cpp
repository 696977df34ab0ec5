//===- dataflow/Incremental.cpp - Interval-incremental GNT solve ------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "dataflow/Incremental.h"

#include "support/Hashing.h"

#include <cassert>
#include <cstring>

using namespace gnt;

namespace {

/// The arena row count per node (the 20 dataflow variables of
/// forEachGntField; GiveNTake.cpp's ArenaField layout).
constexpr unsigned NumGntFields = 20;

/// Folds one u64 into an FNV-1a state, byte by byte (little-endian, so
/// the digest is byte-order stable like the string hashers).
inline std::uint64_t mixU64(std::uint64_t H, std::uint64_t V) {
  for (unsigned I = 0; I != 8; ++I) {
    H ^= (V >> (8 * I)) & 0xff;
    H *= FnvPrime;
  }
  return H;
}

void putU64(std::string &S, std::uint64_t V) {
  for (unsigned I = 0; I != 8; ++I)
    S.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

std::uint64_t getU64(const std::string &S, std::size_t Off) {
  std::uint64_t V = 0;
  for (unsigned I = 0; I != 8; ++I)
    V |= static_cast<std::uint64_t>(static_cast<unsigned char>(S[Off + I]))
         << (8 * I);
  return V;
}

constexpr char MemoMagic[9] = "GNTMEMO1";

} // namespace

std::uint64_t gnt::gntStructureDigest(const IntervalFlowGraph &Ifg,
                                      const GntProblem &P) {
  const unsigned N = Ifg.size();
  std::uint64_t H = fnv1a("gnt-structure-v1");
  H = mixU64(H, N);
  H = mixU64(H, Ifg.root());
  H = mixU64(H, P.Dir == Direction::Before ? 0 : 1);
  H = mixU64(H, P.UniverseSize);
  H = mixU64(H, Ifg.isReversed() ? 1 : 0);
  H = mixU64(H, P.NoHoistHeaders.size());
  for (NodeId Hdr : P.NoHoistHeaders)
    H = mixU64(H, Hdr);
  for (NodeId Id = 0; Id != N; ++Id) {
    H = mixU64(H, Ifg.parent(Id));
    H = mixU64(H, Ifg.lastChild(Id));
    H = mixU64(H, Ifg.headerOf(Id));
    H = mixU64(H, Ifg.level(Id));
    std::span<const NodeId> Kids = Ifg.children(Id);
    H = mixU64(H, Kids.size());
    for (NodeId C : Kids)
      H = mixU64(H, C);
    std::span<const IfgEdge> Succs = Ifg.succs(Id);
    H = mixU64(H, Succs.size());
    for (const IfgEdge &E : Succs) {
      H = mixU64(H, E.Dst);
      H = mixU64(H, static_cast<std::uint64_t>(E.Type));
    }
  }
  return H;
}

std::uint64_t gnt::gntNodeInputDigest(const GntProblem &P, NodeId N) {
  const unsigned Words = (P.UniverseSize + BitVector::WordBits - 1) /
                         BitVector::WordBits;
  std::uint64_t H = FnvOffsetBasis;
  for (const std::vector<BitVector> *Init :
       {&P.TakeInit, &P.GiveInit, &P.StealInit}) {
    const BitVector::Word *Row = (*Init)[N].words();
    for (unsigned K = 0; K != Words; ++K)
      H = mixU64(H, Row[K]);
    H = mixU64(H, 0x5e9a7a70ull); // Separator between the three rows.
  }
  return H;
}

namespace {

/// The per-step structural dirty closure (see Incremental.h's file
/// comment): given the set of nodes whose init rows changed, marks
/// every schedule step whose transitive inputs could differ from the
/// memoized solve. Walks the exact edges each step reads, in the
/// solver's own evaluation order, so a marked step never reads an
/// unmarked-but-stale row. Requires a jump-free oriented graph
/// (FORWARD is then the only cross-sibling edge type).
///
/// The closure is a *candidate* set, deliberately row-blind: on a
/// straight-line chain of intervals it degenerates to every step,
/// because ROOT's Eq. 1-2 summaries structurally chain through every
/// sibling's S2 row and Pass 2 hands ROOT's dirt back to all its
/// children. The masked solver prunes it to the steps whose input rows
/// *actually* changed (ArenaSolveMasks::Baseline), which is what keeps
/// a single-loop edit's re-solve inside that loop.
struct DirtyClosure {
  std::vector<char> S1, S2, S3, S4;

  DirtyClosure(const IntervalFlowGraph &Ifg, const std::vector<char> &Changed)
      : S1(Ifg.size(), 0), S2(Ifg.size(), 0), S3(Ifg.size(), 0),
        S4(Ifg.size(), 0) {
    const std::vector<NodeId> &Pre = Ifg.preorder();
    using ET = EdgeType;

    // Pass 1 order (reverse preorder; S2 of the children first, then
    // S1 of the visited node), mirroring solveIntoArena exactly.
    for (auto It = Pre.rbegin(), E = Pre.rend(); It != E; ++It) {
      NodeId Node = *It;
      for (NodeId C : Ifg.children(Node)) {
        char D = S1[C];
        for (const IfgEdge &Edge : Ifg.preds(C))
          if (Edge.Type == ET::Forward)
            D |= S2[Edge.Src];
        S2[C] = D;
      }
      char D = Changed[Node];
      for (const IfgEdge &Edge : Ifg.succs(Node))
        if (Edge.Type == ET::Entry || Edge.Type == ET::Forward)
          D |= S1[Edge.Dst];
      if (Ifg.isHeader(Node) && Ifg.lastChild(Node) != InvalidNode)
        D |= S2[Ifg.lastChild(Node)];
      S1[Node] = D;
    }

    // Pass 2 order (preorder). ROOT is skipped by the solver (its
    // placement rows are pinned), but its S1 outputs feed its
    // children's Eq. 11 header terms, so it carries S1 dirtiness into
    // the S3 lattice. The header term is taken conservatively even for
    // NoHoist headers (whose summary reads are zero rows); the
    // value-level refinement inside the solver is what discriminates.
    for (NodeId Node : Pre) {
      char D = S1[Node];
      if (Node != Ifg.root()) {
        for (const IfgEdge &Edge : Ifg.preds(Node))
          if (Edge.Type == ET::Forward)
            D |= S3[Edge.Src];
        NodeId Header = Ifg.headerOf(Node);
        if (Header != InvalidNode)
          D |= S3[Header];
      }
      S3[Node] = D;
    }

    // Pass 3 (any order): RES_out unions the FORWARD successors'
    // GIVEN_in rows.
    for (NodeId Node : Pre) {
      char D = S3[Node];
      for (const IfgEdge &Edge : Ifg.succs(Node))
        if (Edge.Type == ET::Forward)
          D |= S3[Edge.Dst];
      S4[Node] = D;
    }
  }
};

bool hasJumpOrSynthetic(const IntervalFlowGraph &Ifg) {
  for (unsigned Id = 0, N = Ifg.size(); Id != N; ++Id)
    for (const IfgEdge &E : Ifg.succs(Id))
      if (E.Type == EdgeType::Jump || E.Type == EdgeType::Synthetic)
        return true;
  return false;
}

std::shared_ptr<DataflowMatrix> cloneArena(const DataflowMatrix &Src) {
  auto Clone = std::make_shared<DataflowMatrix>(Src.rows(), Src.bits(),
                                                DataflowMatrix::Uninit);
  // Rows are packed, so the whole arena is one run of words.
  if (Src.rows() && Src.wordsPerRow())
    std::memcpy(Clone->row(0), Src.row(0),
                static_cast<std::size_t>(Src.rows()) * Src.wordsPerRow() *
                    sizeof(DataflowMatrix::Word));
  return Clone;
}

} // namespace

GntRun gnt::runGiveNTakeIncremental(const IntervalFlowGraph &Forward,
                                    const GntProblem &P, GntSolveMemo &Memo,
                                    GntIncrementalStats &Stats) {
  GntRun Run = orientGiveNTake(Forward, P);
  const IntervalFlowGraph &Ifg = Run.OrientedIfg;
  const GntProblem &OP = Run.OrientedProblem;
  const unsigned N = Ifg.size();

  const std::uint64_t Structure = gntStructureDigest(Ifg, OP);
  std::vector<std::uint64_t> Digests(N);
  for (NodeId Id = 0; Id != N; ++Id)
    Digests[Id] = gntNodeInputDigest(OP, Id);

  if (Memo.valid() && Memo.StructureDigest == Structure && Memo.Nodes == N &&
      Memo.UniverseSize == OP.UniverseSize &&
      Memo.InputDigests.size() == N) {
    // Nodes outside preorder only matter through their (always-bottom)
    // rows, which every solve leaves at zero regardless of init, so
    // their digest changes are masked out of the dirty set.
    std::vector<char> Changed(N, 0);
    bool Any = false;
    for (NodeId Id : Ifg.preorder())
      if (Digests[Id] != Memo.InputDigests[Id]) {
        Changed[Id] = 1;
        Any = true;
      }

    if (!Any) {
      // Full memo hit: nothing to compute; re-export the previous
      // arena zero-copy. Several live results may share it — all
      // readers, by the immutability discipline of GntSolveMemo.
      ++Stats.MemoHits;
      Memo.InputDigests = std::move(Digests);
      Run.Result = detail::exportGntArena(Memo.Arena, N);
      return Run;
    }

    if (!hasJumpOrSynthetic(Ifg)) {
      // Masked partial re-solve on a clone of the previous arena. The
      // jump-free gate is what makes skipping the cold preamble sound:
      // without JUMP/SYNTHETIC edges the schedule reads every row
      // strictly after writing it, so a skipped step's cloned rows are
      // exactly what a cold solve would have recomputed.
      DirtyClosure Dirty(Ifg, Changed);
      auto Clone = cloneArena(*Memo.Arena);
      std::vector<char> Ran(N, 0);
      detail::ArenaSolveMasks Masks;
      Masks.S1 = &Dirty.S1;
      Masks.S2 = &Dirty.S2;
      Masks.S3 = &Dirty.S3;
      Masks.S4 = &Dirty.S4;
      // Value-level refinement: the old arena is the baseline the
      // solver diffs rows against, so only steps whose inputs actually
      // changed re-evaluate; Ran records the pruned footprint for the
      // stats below.
      Masks.Baseline = Memo.Arena.get();
      Masks.ChangedInit = &Changed;
      Masks.Ran = &Ran;
      detail::resolveArenaMasked(Ifg, OP, *Clone, Masks);

      ++Stats.PartialSolves;
      const std::vector<NodeId> &Pre = Ifg.preorder();
      std::vector<char> IntervalAll(N, 0), IntervalDirty(N, 0);
      for (NodeId Id : Pre) {
        ++Stats.NodesTotal;
        if (Ran[Id])
          ++Stats.NodesResolved;
        NodeId Key = Ifg.isHeader(Id) ? Id : Ifg.parent(Id);
        if (Key == InvalidNode)
          Key = Id;
        IntervalAll[Key] = 1;
        if (Ran[Id])
          IntervalDirty[Key] = 1;
      }
      for (unsigned Id = 0; Id != N; ++Id) {
        Stats.IntervalsTotal += IntervalAll[Id];
        Stats.IntervalsResolved += IntervalDirty[Id];
      }

      Memo.InputDigests = std::move(Digests);
      Memo.Arena = Clone;
      Run.Result = detail::exportGntArena(std::move(Clone), N);
      return Run;
    }
    // Jump edges present: fall through to a full solve (which still
    // refreshes the memo, so identical follow-ups become memo hits).
  }

  Run.Result = solveGiveNTake(Ifg, OP);
  ++Stats.FullSolves;

  Memo.clear();
  if (Run.Result.Arena) {
    // Recover the typed arena handle from the result's keep-alive
    // (aliasing constructor: shares ownership, re-types the pointee).
    Memo.Arena = std::shared_ptr<DataflowMatrix>(
        Run.Result.Arena, static_cast<DataflowMatrix *>(Run.Result.Arena.get()));
    Memo.StructureDigest = Structure;
    Memo.InputDigests = std::move(Digests);
    Memo.Nodes = N;
    Memo.UniverseSize = OP.UniverseSize;
  }
  return Run;
}

//===----------------------------------------------------------------------===//
// Memo persistence
//===----------------------------------------------------------------------===//

std::string gnt::serializeGntMemo(const GntSolveMemo &Memo) {
  if (!Memo.valid() || Memo.InputDigests.size() != Memo.Nodes)
    return std::string();
  const DataflowMatrix &M = *Memo.Arena;
  assert(M.rows() == NumGntFields * Memo.Nodes && "arena shape mismatch");
  std::string S;
  const unsigned Wpr = M.wordsPerRow();
  S.reserve(40 + 8 * Memo.Nodes +
            8 * static_cast<std::size_t>(M.rows()) * Wpr + 8);
  S.append(MemoMagic, 8);
  putU64(S, Memo.StructureDigest);
  putU64(S, Memo.Nodes);
  putU64(S, Memo.UniverseSize);
  for (std::uint64_t D : Memo.InputDigests)
    putU64(S, D);
  for (unsigned R = 0, E = M.rows(); R != E; ++R) {
    const DataflowMatrix::Word *Row = M.row(R);
    for (unsigned K = 0; K != Wpr; ++K)
      putU64(S, Row[K]);
  }
  putU64(S, fnv1a(S));
  return S;
}

bool gnt::deserializeGntMemo(const std::string &Payload, GntSolveMemo &Memo) {
  Memo.clear();
  if (Payload.size() < 40 || Payload.compare(0, 8, MemoMagic, 8) != 0)
    return false;
  const std::uint64_t Structure = getU64(Payload, 8);
  const std::uint64_t Nodes = getU64(Payload, 16);
  const std::uint64_t Universe = getU64(Payload, 24);
  // Sanity bounds before any size arithmetic: a corrupt header must not
  // drive a huge allocation (or overflow the expected-size formula).
  if (Nodes > (1u << 22) || Universe > (1u << 24))
    return false;
  const std::uint64_t Rows = NumGntFields * Nodes;
  const std::uint64_t Wpr = (Universe + BitVector::WordBits - 1) /
                            BitVector::WordBits;
  const std::uint64_t Expected = 32 + 8 * Nodes + 8 * Rows * Wpr + 8;
  if (Payload.size() != Expected)
    return false;
  const std::uint64_t Stored = getU64(Payload, Payload.size() - 8);
  if (fnv1a(Payload.substr(0, Payload.size() - 8)) != Stored)
    return false;

  Memo.StructureDigest = Structure;
  Memo.Nodes = static_cast<unsigned>(Nodes);
  Memo.UniverseSize = static_cast<unsigned>(Universe);
  std::size_t Off = 32;
  Memo.InputDigests.resize(Nodes);
  for (std::uint64_t I = 0; I != Nodes; ++I, Off += 8)
    Memo.InputDigests[I] = getU64(Payload, Off);
  auto M = std::make_shared<DataflowMatrix>(static_cast<unsigned>(Rows),
                                            static_cast<unsigned>(Universe),
                                            DataflowMatrix::Uninit);
  for (unsigned R = 0; R != Rows; ++R) {
    DataflowMatrix::Word *Row = M->row(R);
    for (unsigned K = 0; K != Wpr; ++K, Off += 8)
      Row[K] = getU64(Payload, Off);
  }
  // A forged tail word would break the BitVector invariant every sweep
  // assumes; reject rather than repair (repairing would hide that the
  // artifact no longer matches its checksum discipline).
  const DataflowMatrix::Word Tail = M->tailMask();
  if (Wpr)
    for (unsigned R = 0; R != Rows; ++R)
      if (M->row(R)[Wpr - 1] & ~Tail) {
        Memo.clear();
        return false;
      }
  Memo.Arena = std::move(M);
  return true;
}
