//===- tests/AllocBudgetTest.cpp - Heap allocations per compiled node -------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Clock-free cost gates: the number of heap allocations one default
/// compile makes per CFG node, and the bytes a warm stage cache retains
/// per CFG node. Both are deterministic, so unlike a timing they can
/// fail CI. This file replaces the global operator new with one that
/// counts allocations and tracks live bytes (glibc's
/// malloc_usable_size), which is why it builds into its own executable.
/// Sanitizer builds bring their own allocator, so there the replacement
/// is left out and the tests skip.
///
//===----------------------------------------------------------------------===//

#include "gen/RandomProgram.h"
#include "ir/AstPrinter.h"
#include "service/Pipeline.h"
#include "service/StageCache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) ||          \
    !defined(__GLIBC__)
#define GNT_COUNT_ALLOCATIONS 0
#else
#define GNT_COUNT_ALLOCATIONS 1
#include <malloc.h>
#endif

namespace {
std::atomic<bool> Counting{false};
std::atomic<unsigned long> Allocations{0};
/// Bytes currently allocated through operator new, at their usable size.
std::atomic<long long> LiveBytes{0};
} // namespace

#if GNT_COUNT_ALLOCATIONS
// The library's array forms forward to these. Not inlined, so the
// compiler never pairs a visible free() with a new-expression.
[[gnu::noinline]] void *operator new(std::size_t Size) {
  if (Counting.load(std::memory_order_relaxed))
    Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1)) {
    LiveBytes.fetch_add(static_cast<long long>(malloc_usable_size(P)),
                        std::memory_order_relaxed);
    return P;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void *P) noexcept {
  LiveBytes.fetch_sub(static_cast<long long>(malloc_usable_size(P)),
                      std::memory_order_relaxed);
  std::free(P);
}
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  operator delete(P);
}
#endif

using namespace gnt;

/// One default compile of the flat 1,600-statement family makes about 25
/// allocations per CFG node; 32 leaves room for library differences
/// while still failing on a per-node string, map or row allocation
/// creeping back into a layer (the earlier pipeline made 47).
TEST(AllocBudget, DefaultCompileAllocationsPerNode) {
  if (!GNT_COUNT_ALLOCATIONS)
    GTEST_SKIP() << "sanitizer builds replace the allocator";
  GenConfig Flat = genConfigForBucket(5, 7);
  Flat.TargetStmts = 1600;
  std::string Source = AstPrinter().print(generateRandomProgram(Flat));
  Pipeline P{PipelineOptions()};

  Allocations = 0;
  Counting = true;
  PipelineResult R = P.compile(Source);
  Counting = false;

  ASSERT_TRUE(R.ok());
  double PerNode = static_cast<double>(Allocations) / R.G.size();
  RecordProperty("allocations", static_cast<int>(Allocations));
  RecordProperty("cfg_nodes", static_cast<int>(R.G.size()));
  EXPECT_LE(PerNode, 32.0) << Allocations << " allocations for "
                           << R.G.size() << " CFG nodes";
}

/// What gntd keeps per solved program: 32 distinct 200-statement
/// programs (every generator family) compiled through one stage cache,
/// measured after the results are gone. A cached solve keeps no solver
/// runs, so the cache holds about 1.1 KB per CFG node; caching the
/// READ/WRITE runs as well retained about 3.7 KB. The budget fails as
/// soon as the runs, or anything of their size, stay in the cache.
TEST(AllocBudget, WarmStageCacheRetainedBytesPerNode) {
  if (!GNT_COUNT_ALLOCATIONS)
    GTEST_SKIP() << "sanitizer builds replace the allocator";
  std::vector<std::string> Sources;
  for (unsigned I = 0; I != 32; ++I) {
    GenConfig C = genConfigForBucket(I % NumGenBuckets, I / NumGenBuckets + 1);
    C.TargetStmts = 200;
    Sources.push_back(AstPrinter().print(generateRandomProgram(C)));
  }
  Pipeline P{PipelineOptions()};
  std::size_t Nodes = 0;
  long long Retained = 0;
  {
    long long Before = LiveBytes;
    StageCache Cache;
    for (const std::string &Source : Sources) {
      PipelineResult R = P.compile(Source, &Cache);
      ASSERT_TRUE(R.ok()) << R.Diags.renderText();
      Nodes += R.G.size();
    }
    ASSERT_EQ(Cache.entries(CacheStage::Solve), Sources.size());
    Retained = LiveBytes - Before;
  }
  double PerNode = static_cast<double>(Retained) / Nodes;
  RecordProperty("retained_bytes", static_cast<int>(Retained));
  RecordProperty("cfg_nodes", static_cast<int>(Nodes));
  EXPECT_LE(PerNode, 1280.0) << Retained << " bytes retained for " << Nodes
                             << " CFG nodes";
}
