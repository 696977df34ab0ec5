//===- service/StageCache.h - Content-addressed stage cache ----*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed cache over the pipeline's stage DAG. Where the
/// result cache (BatchServer's LRU + DiskCache) is all-or-nothing — one
/// key over (options, whole source), one payload — the stage cache keys
/// every stage by exactly the inputs that stage consumes, so an edited
/// source re-runs only the stages whose inputs changed and two requests
/// sharing a frontend result share the work:
///
///   parse    : FNV(source text)            -> ParseArtifact (AST)
///   cfg      : FNV(canonical AST print)    -> CfgArtifact (raw CFG)
///   interval : FNV(canonical AST print)    -> IntervalArtifact (IFG)
///   solve    : FNV(AST print, solve opts)  -> SolveArtifact (plan/PRE)
///   annotate : FNV(solve key)              -> rendered program text
///
/// A whitespace-only edit changes the parse key but converges at cfg:
/// the canonical AST print is identical, so everything from the CFG on
/// is a hit. Option knobs that cannot change the solve (annotate,
/// audit, verify, werror, analyses — and the strategy knobs) are
/// excluded from the solve key.
///
/// The solve stage caches plans without their solver runs: a cached
/// CommPlan keeps its refs, problems and anchored operations but no
/// ReadRun/WriteRun, a cached ExprPreResult its insertions but an empty
/// Run. A hit serves only what annotation, the response and the
/// simulator read; the runs (20 x nodes rows per problem over the
/// oriented graph and problem) were most of an entry's bytes. Audit and
/// verify re-check the runs, so a request with either does not probe
/// the solve stage: it solves fresh, and its own result keeps the runs.
///
/// Artifacts nest by shared_ptr: a CfgArtifact keeps its ParseArtifact
/// alive, a SolveArtifact its IntervalArtifact. This is load-bearing,
/// not a convenience — CFG nodes, comm-plan anchors and PRE insertions
/// hold `const Stmt *` pointers into one specific Program object, so a
/// consumer must adopt an artifact's *whole chain* (its Program, its
/// CFG, its plan) rather than mix artifacts from different parses that
/// merely print identically. Pipeline::compile does exactly that.
///
/// The solve stage additionally supports *interval-level* incrementality
/// (PipelineOptions::Incremental): per solve-option set, a SolveSlot
/// holds the GntIncrementalContext whose memos carry the previous
/// solve's loop forest digest, per-node equation input digests and the
/// solved arena, letting runGiveNTakeIncremental re-solve only the
/// intervals whose inputs changed (dataflow/Incremental.h). Memos are
/// write-through persisted into the server's DiskCache so a restarted
/// gntd re-solves incrementally against the previous process's work; a
/// truncated or corrupted persisted memo deserializes to an empty memo
/// and silently falls back to a full solve. At most MaxSolveSlots slots
/// stay resident, least recently used first out: the options key
/// carries free-form profile and baseline text, so each distinct string
/// a client sends would otherwise keep a whole memo arena.
///
/// All methods are thread-safe. Per-stage hit/miss counters and the
/// aggregated incremental solver statistics are exposed through
/// statsSnapshot() for the service metrics.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_SERVICE_STAGECACHE_H
#define GNT_SERVICE_STAGECACHE_H

#include "cfg/Cfg.h"
#include "comm/CommGen.h"
#include "dataflow/Incremental.h"
#include "interval/IntervalFlowGraph.h"
#include "pre/ExprPre.h"
#include "service/Pipeline.h"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace gnt {

class DiskCache;

/// The cached pipeline stages, in dependency order. Distinct from
/// PipelineStage: only stages whose outputs are reusable artifacts are
/// cached (audit, verify and user analyses are always recomputed — they
/// exist to re-check, caching them would be self-defeating).
enum class CacheStage : unsigned {
  Parse,    ///< Source text -> AST.
  Cfg,      ///< AST -> raw (pre-normalization) CFG.
  Interval, ///< AST -> normalized CFG + interval flow graph.
  Solve,    ///< AST + solve options -> comm plan / PRE result.
  Annotate, ///< Solve -> rendered annotated program.
};
inline constexpr unsigned NumCacheStages = 5;

/// "parse", "cfg", "interval", "solve", "annotate" — stable lowercase
/// names used as metrics keys; pinned by a test.
const char *cacheStageName(CacheStage S);

/// Output of the parse stage. AstDigest is the FNV-1a hash of the
/// canonical AST print — the content address of every downstream stage.
struct ParseArtifact {
  std::shared_ptr<const Program> Prog;
  std::uint64_t AstDigest = 0;
};

/// Output of the CFG stage: the graph as built, before interval
/// normalization (critical-edge splitting happens in buildCfg; the
/// interval builder mutates further). Keeps its parse alive — every
/// CfgNode anchors `const Stmt *` into Parse->Prog.
struct CfgArtifact {
  std::shared_ptr<const ParseArtifact> Parse;
  Cfg RawG;
};

/// Output of the interval stage: the normalized CFG plus the interval
/// flow graph built over it.
struct IntervalArtifact {
  std::shared_ptr<const ParseArtifact> Parse;
  Cfg NormG;
  IntervalFlowGraph Ifg;
};

/// Output of the solve stage: exactly one of Plan/Pre is set, without
/// solver runs (see the file comment), and shared with every
/// PipelineResult that adopts this artifact. Anchors point into
/// Interval->Parse->Prog, hence the chain reference.
struct SolveArtifact {
  std::shared_ptr<const IntervalArtifact> Interval;
  std::shared_ptr<const CommPlan> Plan;
  std::shared_ptr<const ExprPreResult> Pre;
};

/// Incremental-solve state for one solve-option set: the three memo
/// slots (READ, WRITE, PRE — a run uses the ones its mode needs) plus
/// their accumulated statistics. Callers must hold M across the whole
/// solve; the memos are single-threaded by design.
struct SolveSlot {
  std::mutex M;
  GntIncrementalContext Ctx;
  bool DiskLoadAttempted = false;
};

/// Counter snapshot: per-stage cache hits/misses plus the aggregated
/// incremental solver statistics across all slots.
struct StageCacheStats {
  std::uint64_t Hits[NumCacheStages] = {};
  std::uint64_t Misses[NumCacheStages] = {};
  GntIncrementalStats Inc;

  std::uint64_t hits(CacheStage S) const {
    return Hits[static_cast<unsigned>(S)];
  }
  std::uint64_t misses(CacheStage S) const {
    return Misses[static_cast<unsigned>(S)];
  }
};

class StageCache {
public:
  struct Config {
    /// LRU capacity of each per-stage cache (entries, not bytes).
    std::size_t CapacityPerStage = 256;
  };

  /// Incremental solve slots kept resident (one per solve-option set).
  static constexpr std::size_t MaxSolveSlots = 16;

  /// \p Disk, when non-null, persists incremental solve memos across
  /// process restarts (borrowed; must outlive the cache).
  StageCache();
  explicit StageCache(Config C, DiskCache *Disk = nullptr);

  // Typed per-stage lookup/insert. Lookups count a hit or miss.
  std::shared_ptr<const ParseArtifact> lookupParse(std::uint64_t Key);
  void insertParse(std::uint64_t Key, std::shared_ptr<const ParseArtifact> A);
  std::shared_ptr<const CfgArtifact> lookupCfg(std::uint64_t Key);
  void insertCfg(std::uint64_t Key, std::shared_ptr<const CfgArtifact> A);
  std::shared_ptr<const IntervalArtifact> lookupInterval(std::uint64_t Key);
  void insertInterval(std::uint64_t Key,
                      std::shared_ptr<const IntervalArtifact> A);
  std::shared_ptr<const SolveArtifact> lookupSolve(std::uint64_t Key);
  void insertSolve(std::uint64_t Key, std::shared_ptr<const SolveArtifact> A);
  std::shared_ptr<const std::string> lookupAnnotate(std::uint64_t Key);
  void insertAnnotate(std::uint64_t Key, std::shared_ptr<const std::string> A);

  /// Returns (creating on first use) the incremental-solve slot for one
  /// solve-option set. On creation, persisted memos are loaded from the
  /// disk cache when one is attached; corrupt payloads load as empty
  /// memos (full-solve fallback). Creating a slot beyond MaxSolveSlots
  /// drops the least recently used one; a solve holding it keeps it
  /// alive through the returned pointer.
  std::shared_ptr<SolveSlot> solveSlot(const std::string &SolveOptsKey);

  /// Number of resident incremental solve slots.
  std::size_t solveSlots() const;

  /// Write-through persists \p Slot's valid memos under \p SolveOptsKey.
  /// Caller must hold Slot.M. No-op without a disk cache.
  void persistSlot(SolveSlot &Slot, const std::string &SolveOptsKey);

  /// Accumulates a delta of incremental solver statistics into the
  /// aggregate exposed by statsSnapshot().
  void noteIncremental(const GntIncrementalStats &Delta);

  StageCacheStats statsSnapshot() const;

  std::size_t entries(CacheStage S) const;

  // -- Content addressing -------------------------------------------------

  /// Key of the parse stage: options-independent hash of the source.
  static std::uint64_t parseKey(const std::string &Source);

  /// Canonical AST digest: FNV-1a of the annotation-free AST print.
  static std::uint64_t astDigest(const Program &P);

  /// Keys of the AST-addressed stages.
  static std::uint64_t cfgKey(std::uint64_t AstDigest);
  static std::uint64_t intervalKey(std::uint64_t AstDigest);
  static std::uint64_t solveKey(std::uint64_t AstDigest,
                                const std::string &SolveOptsKey);
  static std::uint64_t annotateKey(std::uint64_t SolveKey);

  /// The subset of PipelineOptions the solve stage actually consumes:
  /// mode, baseline and the comm knobs. Annotate/audit/verify/werror/
  /// analyses are downstream of the solve; Incremental is a strategy
  /// knob with a byte-identity contract. None of those may appear here
  /// — they would split solves that are provably identical.
  static std::string solveOptionsKey(const PipelineOptions &Opts);

  /// DiskCache key of one persisted memo slot ("read", "write", "pre").
  static std::uint64_t memoDiskKey(const std::string &SolveOptsKey,
                                   const char *MemoSlot);

private:
  /// A mutex-protected LRU of shared values; T carries its own const.
  template <typename T, typename K = std::uint64_t> class Lru {
  public:
    void setCapacity(std::size_t C) { Cap = C < 1 ? 1 : C; }
    std::shared_ptr<T> lookup(const K &Key);
    void insert(const K &Key, std::shared_ptr<T> Value);
    /// The value under \p Key, inserting a default-constructed one
    /// first when there is none (one step under the lock).
    std::shared_ptr<T> lookupOrCreate(const K &Key);
    std::size_t size() const;

  private:
    using Entry = std::pair<K, std::shared_ptr<T>>;
    /// Caller holds M. Marks the entry most recent.
    std::shared_ptr<T> *findLocked(const K &Key);
    /// Caller holds M and has checked that \p Key is absent.
    void addLocked(const K &Key, std::shared_ptr<T> Value);

    std::size_t Cap = 256;
    mutable std::mutex M;
    std::list<Entry> Order; // Most recent first.
    std::unordered_map<K, typename std::list<Entry>::iterator> Index;
  };

  void noteProbe(CacheStage S, bool Hit);

  Config Cfg_;
  DiskCache *Disk;
  Lru<const ParseArtifact> Parses;
  Lru<const CfgArtifact> Cfgs;
  Lru<const IntervalArtifact> Intervals;
  Lru<const SolveArtifact> Solves;
  Lru<const std::string> Annotations;
  Lru<SolveSlot, std::string> Slots;
  mutable std::mutex StatsMutex;
  StageCacheStats Stats;
};

template <typename T, typename K>
std::shared_ptr<T> *StageCache::Lru<T, K>::findLocked(const K &Key) {
  auto It = Index.find(Key);
  if (It == Index.end())
    return nullptr;
  Order.splice(Order.begin(), Order, It->second);
  return &It->second->second;
}

template <typename T, typename K>
void StageCache::Lru<T, K>::addLocked(const K &Key,
                                      std::shared_ptr<T> Value) {
  Order.emplace_front(Key, std::move(Value));
  Index.emplace(Key, Order.begin());
  if (Index.size() > Cap) {
    Index.erase(Order.back().first);
    Order.pop_back();
  }
}

template <typename T, typename K>
std::shared_ptr<T> StageCache::Lru<T, K>::lookup(const K &Key) {
  std::lock_guard<std::mutex> L(M);
  std::shared_ptr<T> *V = findLocked(Key);
  return V ? *V : nullptr;
}

template <typename T, typename K>
void StageCache::Lru<T, K>::insert(const K &Key, std::shared_ptr<T> Value) {
  std::lock_guard<std::mutex> L(M);
  if (std::shared_ptr<T> *V = findLocked(Key))
    *V = std::move(Value);
  else
    addLocked(Key, std::move(Value));
}

template <typename T, typename K>
std::shared_ptr<T> StageCache::Lru<T, K>::lookupOrCreate(const K &Key) {
  std::lock_guard<std::mutex> L(M);
  if (std::shared_ptr<T> *V = findLocked(Key))
    return *V;
  auto V = std::make_shared<T>();
  addLocked(Key, V);
  return V;
}

template <typename T, typename K>
std::size_t StageCache::Lru<T, K>::size() const {
  std::lock_guard<std::mutex> L(M);
  return Index.size();
}

} // namespace gnt

#endif // GNT_SERVICE_STAGECACHE_H
