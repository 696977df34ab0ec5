//===- tests/AllocBudgetTest.cpp - Heap allocations per compiled node -------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// A clock-free cost gate: the number of heap allocations one default
/// compile makes per CFG node. The count is deterministic, so unlike a
/// timing it can fail CI. This file replaces the global operator new
/// with a counting one, which is why it builds into its own executable.
/// Sanitizer builds bring their own allocator, so there the replacement
/// is left out and the test skips.
///
//===----------------------------------------------------------------------===//

#include "gen/RandomProgram.h"
#include "ir/AstPrinter.h"
#include "service/Pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GNT_COUNT_ALLOCATIONS 0
#else
#define GNT_COUNT_ALLOCATIONS 1
#endif

namespace {
std::atomic<bool> Counting{false};
std::atomic<unsigned long> Allocations{0};
} // namespace

#if GNT_COUNT_ALLOCATIONS
// The library's array forms forward to these. Not inlined, so the
// compiler never pairs a visible free() with a new-expression.
[[gnu::noinline]] void *operator new(std::size_t Size) {
  if (Counting.load(std::memory_order_relaxed))
    Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
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
