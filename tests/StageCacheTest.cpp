//===- tests/StageCacheTest.cpp - Content-addressed stage cache tests -------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The stage cache's contracts, bottom up: stable stage names (they are
// metrics keys), content addressing (whitespace-only edits converge at
// the cfg stage, semantic edits do not; the solve-options key contains
// exactly the knobs the solve consumes), LRU eviction under pressure,
// per-stage hit/miss accounting through Pipeline::compile, solve hits
// without solver runs (audit and verify solve fresh), interval-level
// incremental re-solves touching a strict subset of nodes, a bounded
// table of incremental solve slots, and the defensive half: persisted
// solve memos survive a restart, while truncated or corrupted persisted
// memos silently fall back to a full solve — mirroring the DiskCache
// corruption battery one layer up.
//
//===----------------------------------------------------------------------===//

#include "dataflow/Dump.h"
#include "frontend/Parser.h"
#include "service/BatchServer.h"
#include "service/DiskCache.h"
#include "service/Pipeline.h"
#include "service/StageCache.h"

#include "TestUtil.h"

#include "gtest/gtest.h"

#include <string>
#include <vector>

using namespace gnt;
using gnt::test::TempDir;

namespace {

const char *kBase = "distribute x, y\n"
                    "array u, w\n"
                    "do i = 1, n\n"
                    "  u(i) = x(i) + 1\n"
                    "enddo\n"
                    "do j = 1, n\n"
                    "  w(j) = x(j) + y(j)\n"
                    "  u(j) = x(j)\n"
                    "enddo\n";

/// Same AST as kBase, different bytes.
const char *kBaseWhitespace = "\ndistribute x, y\n"
                              "array u, w\n"
                              "do i = 1, n\n"
                              "    u(i) = x(i) + 1\n"
                              "enddo\n\n"
                              "do j = 1, n\n"
                              "  w(j) = x(j) + y(j)\n"
                              "  u(j) = x(j)\n"
                              "enddo\n\n";

/// kBase with the y(j) use moved to the other statement of the second
/// loop: same reference universe, same loop forest, different equation
/// inputs in the second loop only — the dirty-interval edit.
const char *kBaseMovedUse = "distribute x, y\n"
                            "array u, w\n"
                            "do i = 1, n\n"
                            "  u(i) = x(i) + 1\n"
                            "enddo\n"
                            "do j = 1, n\n"
                            "  w(j) = x(j)\n"
                            "  u(j) = x(j) + y(j)\n"
                            "enddo\n";

PipelineOptions incrementalOptions() {
  PipelineOptions Opts;
  Opts.Annotate = true;
  Opts.Incremental = true;
  return Opts;
}

std::uint64_t digestOf(const std::string &Source) {
  ParseResult PR = parseProgram(Source);
  EXPECT_TRUE(PR.success());
  return StageCache::astDigest(PR.Prog);
}

} // namespace

//===----------------------------------------------------------------------===//
// Stage names and keys
//===----------------------------------------------------------------------===//

/// The stage names are the `stage` labels of the metric table's series
/// (exposition and JSON) — renaming one is a breaking change, so the
/// exact strings are pinned.
TEST(StageCacheTest, StageNamesArePinned) {
  ASSERT_EQ(NumCacheStages, 5u);
  EXPECT_STREQ(cacheStageName(CacheStage::Parse), "parse");
  EXPECT_STREQ(cacheStageName(CacheStage::Cfg), "cfg");
  EXPECT_STREQ(cacheStageName(CacheStage::Interval), "interval");
  EXPECT_STREQ(cacheStageName(CacheStage::Solve), "solve");
  EXPECT_STREQ(cacheStageName(CacheStage::Annotate), "annotate");
}

/// Whitespace-only edits change the parse key but converge at the AST
/// digest; semantic edits change both.
TEST(StageCacheTest, WhitespaceConvergesSemanticEditsDoNot) {
  EXPECT_NE(StageCache::parseKey(kBase), StageCache::parseKey(kBaseWhitespace));
  std::uint64_t Base = digestOf(kBase);
  EXPECT_EQ(Base, digestOf(kBaseWhitespace));
  EXPECT_EQ(StageCache::cfgKey(Base), StageCache::cfgKey(digestOf(kBaseWhitespace)));
  std::uint64_t Moved = digestOf(kBaseMovedUse);
  EXPECT_NE(Base, Moved);
  EXPECT_NE(StageCache::cfgKey(Base), StageCache::cfgKey(Moved));
  EXPECT_NE(StageCache::intervalKey(Base), StageCache::intervalKey(Moved));
}

/// The solve-options key audit, mirroring the result-cache canonical()
/// audit: execution strategies and post-solve knobs must NOT split
/// solves; knobs the solve consumes must.
TEST(StageCacheTest, SolveOptionsKeySeparatesStrategyFromSemantics) {
  PipelineOptions Base;
  std::string K = StageCache::solveOptionsKey(Base);

  // Strategy and post-solve knobs: same key.
  struct Strategy {
    const char *Name;
    void (*Apply)(PipelineOptions &);
  };
  const Strategy Strategies[] = {
      {"incremental", [](PipelineOptions &O) { O.Incremental = true; }},
      {"annotate", [](PipelineOptions &O) { O.Annotate = true; }},
      {"audit", [](PipelineOptions &O) { O.Audit = true; }},
      {"verify", [](PipelineOptions &O) { O.Verify = true; }},
      {"werror", [](PipelineOptions &O) { O.Werror = true; }},
      {"analyses",
       [](PipelineOptions &O) { O.ExtraAnalyses.push_back("liveness"); }},
  };
  for (const Strategy &S : Strategies) {
    PipelineOptions O = Base;
    S.Apply(O);
    EXPECT_EQ(StageCache::solveOptionsKey(O), K) << S.Name;
  }

  // Solve inputs: different key.
  const Strategy Semantic[] = {
      {"mode", [](PipelineOptions &O) { O.Mode = PipelineMode::Pre; }},
      {"baseline", [](PipelineOptions &O) { O.Baseline = "naive"; }},
      {"atomic", [](PipelineOptions &O) { O.Comm.Atomic = true; }},
      {"owner_computes",
       [](PipelineOptions &O) { O.Comm.OwnerComputes = true; }},
      {"hoist_zero_trip",
       [](PipelineOptions &O) { O.Comm.HoistZeroTrip = false; }},
      {"reads", [](PipelineOptions &O) { O.Comm.GenerateReads = false; }},
      {"writes", [](PipelineOptions &O) { O.Comm.GenerateWrites = false; }},
      {"strategy",
       [](PipelineOptions &O) { O.Strategy = PlacementStrategy::Lospre; }},
      {"profile",
       [](PipelineOptions &O) {
         O.Profile = "gnt-profile-v1\nbranch 1 9 1\n";
       }},
  };
  for (const Strategy &S : Semantic) {
    PipelineOptions O = Base;
    S.Apply(O);
    EXPECT_NE(StageCache::solveOptionsKey(O), K) << S.Name;
  }
}

//===----------------------------------------------------------------------===//
// LRU behavior and hit/miss accounting
//===----------------------------------------------------------------------===//

TEST(StageCacheTest, EvictsLeastRecentlyUsedUnderPressure) {
  StageCache::Config C;
  C.CapacityPerStage = 2;
  StageCache Cache(C);
  auto Artifact = [] { return std::make_shared<const ParseArtifact>(); };
  Cache.insertParse(1, Artifact());
  Cache.insertParse(2, Artifact());
  // Refresh key 1, then insert a third: key 2 is now the oldest.
  EXPECT_NE(Cache.lookupParse(1), nullptr);
  Cache.insertParse(3, Artifact());
  EXPECT_EQ(Cache.entries(CacheStage::Parse), 2u);
  EXPECT_NE(Cache.lookupParse(1), nullptr);
  EXPECT_EQ(Cache.lookupParse(2), nullptr);
  EXPECT_NE(Cache.lookupParse(3), nullptr);
  StageCacheStats S = Cache.statsSnapshot();
  EXPECT_EQ(S.hits(CacheStage::Parse), 3u);
  EXPECT_EQ(S.misses(CacheStage::Parse), 1u);
}

/// Compiling the same source twice hits every stage; a whitespace
/// variant misses only the parse stage.
TEST(StageCacheTest, PipelineStagesHitPerContentAddress) {
  StageCache Cache;
  PipelineOptions Opts;
  Opts.Annotate = true;
  PipelineResult First = Pipeline(Opts).compile(kBase, &Cache);
  ASSERT_TRUE(First.ok()) << First.Diags.renderText();
  StageCacheStats Cold = Cache.statsSnapshot();
  EXPECT_EQ(Cold.hits(CacheStage::Parse), 0u);
  EXPECT_EQ(Cold.misses(CacheStage::Parse), 1u);
  EXPECT_EQ(Cold.misses(CacheStage::Solve), 1u);

  PipelineResult Again = Pipeline(Opts).compile(kBase, &Cache);
  EXPECT_EQ(Again.Annotated, First.Annotated);
  StageCacheStats Warm = Cache.statsSnapshot();
  EXPECT_EQ(Warm.hits(CacheStage::Parse), 1u);
  EXPECT_EQ(Warm.hits(CacheStage::Solve), 1u);
  EXPECT_EQ(Warm.misses(CacheStage::Solve), 1u);

  PipelineResult Ws = Pipeline(Opts).compile(kBaseWhitespace, &Cache);
  EXPECT_EQ(Ws.Annotated, First.Annotated);
  StageCacheStats AfterWs = Cache.statsSnapshot();
  EXPECT_EQ(AfterWs.misses(CacheStage::Parse), 2u); // New bytes.
  // Same AST: the warm recompile and the whitespace variant each hit.
  EXPECT_EQ(AfterWs.hits(CacheStage::Cfg), 2u);
  EXPECT_EQ(AfterWs.hits(CacheStage::Solve), 2u);
  EXPECT_EQ(AfterWs.misses(CacheStage::Solve), 1u);
}

namespace {

/// The `gntc --dump-vars` text of both solver runs of \p R's plan.
std::string dumpRuns(const PipelineResult &R) {
  std::string S;
  for (const std::optional<GntRun> *Run :
       {&R.Plan->ReadRun, &R.Plan->WriteRun})
    S += *Run ? dumpGntRun(**Run, R.G) : "(no run)\n";
  return S;
}

} // namespace

/// A solve-stage hit adopts a plan without solver runs. Audited and
/// verified requests on the cached source do not probe the solve
/// stage: they solve fresh, keep their runs and match a cold compile.
TEST(StageCacheTest, SolveHitsCarryNoRunsAndRecheckingRequestsSolveFresh) {
  StageCache Cache;
  PipelineOptions Opts;
  Opts.Annotate = true;
  PipelineResult First = Pipeline(Opts).compile(kBase, &Cache);
  ASSERT_TRUE(First.ok()) << First.Diags.renderText();
  EXPECT_TRUE(First.Plan->ReadRun && First.Plan->WriteRun);

  PipelineResult Hit = Pipeline(Opts).compile(kBaseWhitespace, &Cache);
  ASSERT_EQ(Cache.statsSnapshot().hits(CacheStage::Solve), 1u);
  EXPECT_FALSE(Hit.Plan->ReadRun);
  EXPECT_FALSE(Hit.Plan->WriteRun);
  EXPECT_EQ(renderResultPayload(Hit), renderResultPayload(First));

  for (bool Audit : {true, false}) {
    PipelineOptions Check = Opts;
    Check.Audit = Audit;
    Check.Verify = !Audit;
    StageCacheStats Before = Cache.statsSnapshot();
    PipelineResult R = Pipeline(Check).compile(kBaseWhitespace, &Cache);
    StageCacheStats After = Cache.statsSnapshot();
    PipelineResult Cold = compilePipeline(kBaseWhitespace, Check);
    ASSERT_TRUE(R.ok()) << R.Diags.renderText();
    EXPECT_EQ(After.hits(CacheStage::Solve), Before.hits(CacheStage::Solve))
        << "audit=" << Audit;
    EXPECT_EQ(After.misses(CacheStage::Solve),
              Before.misses(CacheStage::Solve))
        << "audit=" << Audit;
    ASSERT_TRUE(R.Plan->ReadRun && R.Plan->WriteRun) << "audit=" << Audit;
    EXPECT_EQ(renderResultPayload(R), renderResultPayload(Cold))
        << "audit=" << Audit;
    EXPECT_EQ(R.Audit.EngineSolves, Cold.Audit.EngineSolves);
    EXPECT_EQ(dumpRuns(R), dumpRuns(Cold)) << "audit=" << Audit;
  }
}

//===----------------------------------------------------------------------===//
// Interval-level incrementality
//===----------------------------------------------------------------------===//

/// The dirty-interval rule in action: moving one use between the two
/// statements of the second loop keeps the loop forest and the item
/// universe, so the incremental solve re-solves a strict subset of
/// nodes — and still matches a cold compile byte for byte.
TEST(StageCacheTest, SingleLoopEditResolvesStrictSubset) {
  StageCache Cache;
  PipelineOptions Opts = incrementalOptions();
  PipelineResult First = Pipeline(Opts).compile(kBase, &Cache);
  ASSERT_TRUE(First.ok()) << First.Diags.renderText();
  GntIncrementalStats S0 = Cache.statsSnapshot().Inc;
  EXPECT_GT(S0.FullSolves, 0u); // Cold memos: everything solves fully.
  EXPECT_EQ(S0.PartialSolves, 0u);

  PipelineResult Edited = Pipeline(Opts).compile(kBaseMovedUse, &Cache);
  ASSERT_TRUE(Edited.ok()) << Edited.Diags.renderText();
  GntIncrementalStats S1 = Cache.statsSnapshot().Inc;
  EXPECT_GT(S1.PartialSolves, 0u);
  EXPECT_GT(S1.NodesTotal, S1.NodesResolved); // Strict subset.
  EXPECT_LT(S1.IntervalsResolved, S1.IntervalsTotal);

  PipelineResult Cold = compilePipeline(kBaseMovedUse, [] {
    PipelineOptions O;
    O.Annotate = true;
    return O;
  }());
  EXPECT_EQ(resultSignature(Edited), resultSignature(Cold));
  EXPECT_EQ(Edited.Annotated, Cold.Annotated);
}

/// The slot table is bounded. The options key carries the free-form
/// profile, which a balanced solve ignores, so a stream of distinct
/// profiles would otherwise keep one memo arena per request.
TEST(StageCacheTest, DistinctProfilesKeepAtMostMaxSolveSlots) {
  StageCache Cache;
  for (unsigned I = 0; I != 2000; ++I) {
    PipelineOptions Opts = incrementalOptions();
    Opts.Profile = "gnt-profile-v1\n# request " + std::to_string(I) + "\n";
    const char *Source = I % 2 ? kBaseMovedUse : kBase;
    PipelineResult R = Pipeline(Opts).compile(Source, &Cache);
    ASSERT_LE(Cache.solveSlots(), StageCache::MaxSolveSlots) << I;
    Opts.Incremental = false;
    ASSERT_EQ(renderResultPayload(R),
              renderResultPayload(compilePipeline(Source, Opts)))
        << I;
  }
  EXPECT_EQ(Cache.solveSlots(), StageCache::MaxSolveSlots);
}

//===----------------------------------------------------------------------===//
// Memo persistence and corruption fallback
//===----------------------------------------------------------------------===//

namespace {

/// Compiles kBase incrementally against a fresh stage cache wired to
/// \p Disk, persisting the solve memos.
void primeDisk(DiskCache &Disk) {
  StageCache Cache(StageCache::Config{}, &Disk);
  PipelineResult R = Pipeline(incrementalOptions()).compile(kBase, &Cache);
  ASSERT_TRUE(R.ok()) << R.Diags.renderText();
  ASSERT_GT(Cache.statsSnapshot().Inc.FullSolves, 0u);
}

/// The persisted READ-problem memo payload for the default options.
std::string persistedReadMemo(DiskCache &Disk) {
  std::string SolveOpts =
      StageCache::solveOptionsKey(incrementalOptions());
  std::string Payload;
  EXPECT_TRUE(
      Disk.lookupMemo(StageCache::memoDiskKey(SolveOpts, "read"), Payload));
  return Payload;
}

void storeReadMemo(DiskCache &Disk, const std::string &Payload) {
  std::string SolveOpts =
      StageCache::solveOptionsKey(incrementalOptions());
  Disk.insertMemo(StageCache::memoDiskKey(SolveOpts, "read"), Payload);
}

/// Incremental solver stats of one compile of \p Source against a
/// restarted stage cache backed by \p Disk.
GntIncrementalStats restartAndCompile(DiskCache &Disk,
                                      const std::string &Source,
                                      std::string *AnnotatedOut = nullptr) {
  StageCache Cache(StageCache::Config{}, &Disk);
  PipelineResult R = Pipeline(incrementalOptions()).compile(Source, &Cache);
  EXPECT_TRUE(R.ok()) << R.Diags.renderText();
  if (AnnotatedOut)
    *AnnotatedOut = R.Annotated;
  return Cache.statsSnapshot().Inc;
}

} // namespace

/// A restarted process reuses the previous process's solve memos: the
/// identical source is a pure memo hit, the dirty-interval edit is a
/// partial solve — no full re-solve either way.
TEST(StageCacheTest, PersistedMemosServeARestart) {
  TempDir Tmp;
  DiskCache Disk(Tmp.Path, 64);
  std::string Error;
  ASSERT_TRUE(Disk.open(Error)) << Error;
  primeDisk(Disk);

  GntIncrementalStats Same = restartAndCompile(Disk, kBase);
  EXPECT_GT(Same.MemoHits, 0u);
  EXPECT_EQ(Same.FullSolves, 0u);

  std::string Annotated;
  GntIncrementalStats Edit =
      restartAndCompile(Disk, kBaseMovedUse, &Annotated);
  EXPECT_GT(Edit.PartialSolves, 0u);
  EXPECT_EQ(Edit.FullSolves, 0u);
  PipelineResult Cold = compilePipeline(kBaseMovedUse, [] {
    PipelineOptions O;
    O.Annotate = true;
    return O;
  }());
  EXPECT_EQ(Annotated, Cold.Annotated);
}

/// Truncated persisted memo: deserializes to an empty memo, compile
/// falls back to a full solve, output unharmed.
TEST(StageCacheTest, TruncatedPersistedMemoFallsBackToFullSolve) {
  TempDir Tmp;
  DiskCache Disk(Tmp.Path, 64);
  std::string Error;
  ASSERT_TRUE(Disk.open(Error)) << Error;
  primeDisk(Disk);

  std::string Payload = persistedReadMemo(Disk);
  ASSERT_GT(Payload.size(), 16u);
  storeReadMemo(Disk, Payload.substr(0, Payload.size() / 2));

  std::string Annotated;
  GntIncrementalStats S = restartAndCompile(Disk, kBase, &Annotated);
  EXPECT_GT(S.FullSolves, 0u); // The READ memo was unusable.
  PipelineResult Cold = compilePipeline(kBase, [] {
    PipelineOptions O;
    O.Annotate = true;
    return O;
  }());
  EXPECT_EQ(Annotated, Cold.Annotated);
}

/// Bit-flipped persisted memo: the trailing checksum catches it.
TEST(StageCacheTest, CorruptedPersistedMemoFallsBackToFullSolve) {
  TempDir Tmp;
  DiskCache Disk(Tmp.Path, 64);
  std::string Error;
  ASSERT_TRUE(Disk.open(Error)) << Error;
  primeDisk(Disk);

  std::string Payload = persistedReadMemo(Disk);
  ASSERT_GT(Payload.size(), 40u);
  Payload[Payload.size() / 2] =
      static_cast<char>(Payload[Payload.size() / 2] ^ 0x20);
  storeReadMemo(Disk, Payload);

  std::string Annotated;
  GntIncrementalStats S = restartAndCompile(Disk, kBase, &Annotated);
  EXPECT_GT(S.FullSolves, 0u);
  PipelineResult Cold = compilePipeline(kBase, [] {
    PipelineOptions O;
    O.Annotate = true;
    return O;
  }());
  EXPECT_EQ(Annotated, Cold.Annotated);
}

/// Garbage bytes under the memo key: rejected at the magic check.
TEST(StageCacheTest, GarbagePersistedMemoFallsBackToFullSolve) {
  TempDir Tmp;
  DiskCache Disk(Tmp.Path, 64);
  std::string Error;
  ASSERT_TRUE(Disk.open(Error)) << Error;
  primeDisk(Disk);

  storeReadMemo(Disk, "not a memo at all");

  GntIncrementalStats S = restartAndCompile(Disk, kBase);
  EXPECT_GT(S.FullSolves, 0u);
}
