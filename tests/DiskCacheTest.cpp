//===- tests/DiskCacheTest.cpp - Persistent result cache tests --------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The persistent cache's whole job is to never return a wrong payload,
// no matter what happened to the bytes on disk. These tests cover the
// happy path (roundtrip, restart persistence, eviction, flush index)
// and every defensive check: bit flips in the payload, the header, and
// the magic; renamed entries; trailing garbage; truncation. Each
// corruption costs exactly one recompute (a miss plus a Corrupt count),
// never a hit with bad data. The BatchServer-level tests then confirm
// the same guarantees through the service: a restarted server answers
// from disk byte-identically, and a flipped bit silently recompiles.
//
//===----------------------------------------------------------------------===//

#include "service/BatchServer.h"
#include "service/DiskCache.h"

#include "TestUtil.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace gnt;
using gnt::test::TempDir;
namespace fs = std::filesystem;

namespace {

/// The single .gc entry file in \p Dir (fails the test when there is
/// not exactly one).
fs::path onlyEntry(const std::string &Dir) {
  fs::path Found;
  unsigned Count = 0;
  for (const auto &E : fs::directory_iterator(Dir))
    if (E.path().extension() == ".gc") {
      Found = E.path();
      ++Count;
    }
  EXPECT_EQ(Count, 1u);
  return Found;
}

void flipByteAt(const fs::path &File, std::size_t Offset) {
  std::fstream F(File, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(F.good());
  F.seekg(static_cast<std::streamoff>(Offset));
  char C = 0;
  F.get(C);
  F.seekp(static_cast<std::streamoff>(Offset));
  F.put(static_cast<char>(C ^ 0x40));
}

TEST(DiskCacheTest, RoundTrip) {
  TempDir Tmp;
  DiskCache Cache(Tmp.Path, 16);
  std::string Error;
  ASSERT_TRUE(Cache.open(Error)) << Error;

  std::string Payload;
  EXPECT_FALSE(Cache.lookup(42, Payload));
  Cache.insert(42, "{\"ok\":true}");
  ASSERT_TRUE(Cache.lookup(42, Payload));
  EXPECT_EQ(Payload, "{\"ok\":true}");
  EXPECT_EQ(Cache.entries(), 1u);
  EXPECT_EQ(Cache.stats().Hits.load(), 1u);
  EXPECT_EQ(Cache.stats().Misses.load(), 1u);
  EXPECT_EQ(Cache.stats().Writes.load(), 1u);
}

TEST(DiskCacheTest, SurvivesReopen) {
  TempDir Tmp;
  std::string Error;
  {
    DiskCache Cache(Tmp.Path, 16);
    ASSERT_TRUE(Cache.open(Error)) << Error;
    Cache.insert(7, "first");
    Cache.insert(9, "second");
    Cache.flush();
  }
  DiskCache Reopened(Tmp.Path, 16);
  ASSERT_TRUE(Reopened.open(Error)) << Error;
  EXPECT_EQ(Reopened.entries(), 2u);
  std::string Payload;
  ASSERT_TRUE(Reopened.lookup(7, Payload));
  EXPECT_EQ(Payload, "first");
  ASSERT_TRUE(Reopened.lookup(9, Payload));
  EXPECT_EQ(Payload, "second");
}

TEST(DiskCacheTest, PayloadBitFlipDiscarded) {
  TempDir Tmp;
  DiskCache Cache(Tmp.Path, 16);
  std::string Error;
  ASSERT_TRUE(Cache.open(Error)) << Error;
  Cache.insert(5, "payload-bytes-here");

  // Flip one bit inside the payload region (header is 40 bytes).
  flipByteAt(onlyEntry(Tmp.Path), 45);

  std::string Payload;
  EXPECT_FALSE(Cache.lookup(5, Payload));
  EXPECT_EQ(Cache.stats().Corrupt.load(), 1u);
  EXPECT_EQ(Cache.entries(), 0u);
  // The entry file itself is gone: corruption is evicted, not retried.
  unsigned Remaining = 0;
  for (const auto &E : fs::directory_iterator(Tmp.Path))
    if (E.path().extension() == ".gc")
      ++Remaining;
  EXPECT_EQ(Remaining, 0u);

  // A re-insert fully heals the slot.
  Cache.insert(5, "payload-bytes-here");
  ASSERT_TRUE(Cache.lookup(5, Payload));
  EXPECT_EQ(Payload, "payload-bytes-here");
}

TEST(DiskCacheTest, HeaderBitFlipDiscarded) {
  TempDir Tmp;
  DiskCache Cache(Tmp.Path, 16);
  std::string Error;
  ASSERT_TRUE(Cache.open(Error)) << Error;
  Cache.insert(5, "x");
  flipByteAt(onlyEntry(Tmp.Path), 18); // Inside the size field.
  std::string Payload;
  EXPECT_FALSE(Cache.lookup(5, Payload));
  EXPECT_EQ(Cache.stats().Corrupt.load(), 1u);
}

TEST(DiskCacheTest, MagicVersionMismatchDiscarded) {
  TempDir Tmp;
  DiskCache Cache(Tmp.Path, 16);
  std::string Error;
  ASSERT_TRUE(Cache.open(Error)) << Error;
  Cache.insert(5, "x");
  // A format bump shows up as different magic bytes ("GNTDCv2\n"...).
  flipByteAt(onlyEntry(Tmp.Path), 6);
  std::string Payload;
  EXPECT_FALSE(Cache.lookup(5, Payload));
  EXPECT_EQ(Cache.stats().Corrupt.load(), 1u);
}

TEST(DiskCacheTest, RenamedEntryDiscarded) {
  TempDir Tmp;
  std::string Error;
  {
    DiskCache Cache(Tmp.Path, 16);
    ASSERT_TRUE(Cache.open(Error)) << Error;
    Cache.insert(5, "x");
  }
  // Rename the entry to a different (valid-looking) key: the header's
  // embedded key no longer matches the file name.
  fs::rename(onlyEntry(Tmp.Path),
             fs::path(Tmp.Path) / "00000000000000aa.gc");
  DiskCache Reopened(Tmp.Path, 16);
  ASSERT_TRUE(Reopened.open(Error)) << Error;
  std::string Payload;
  EXPECT_FALSE(Reopened.lookup(0xaa, Payload));
  EXPECT_EQ(Reopened.stats().Corrupt.load(), 1u);
}

TEST(DiskCacheTest, TrailingGarbageDiscarded) {
  TempDir Tmp;
  DiskCache Cache(Tmp.Path, 16);
  std::string Error;
  ASSERT_TRUE(Cache.open(Error)) << Error;
  Cache.insert(5, "x");
  {
    std::ofstream F(onlyEntry(Tmp.Path),
                    std::ios::binary | std::ios::app);
    F << "extra";
  }
  std::string Payload;
  EXPECT_FALSE(Cache.lookup(5, Payload));
  EXPECT_EQ(Cache.stats().Corrupt.load(), 1u);
}

TEST(DiskCacheTest, TruncatedEntryDiscarded) {
  TempDir Tmp;
  DiskCache Cache(Tmp.Path, 16);
  std::string Error;
  ASSERT_TRUE(Cache.open(Error)) << Error;
  Cache.insert(5, "a-payload-long-enough-to-truncate");
  fs::resize_file(onlyEntry(Tmp.Path), 48);
  std::string Payload;
  EXPECT_FALSE(Cache.lookup(5, Payload));
  EXPECT_EQ(Cache.stats().Corrupt.load(), 1u);
}

TEST(DiskCacheTest, EvictsOldestFirst) {
  TempDir Tmp;
  DiskCache Cache(Tmp.Path, 2);
  std::string Error;
  ASSERT_TRUE(Cache.open(Error)) << Error;
  Cache.insert(1, "one");
  Cache.insert(2, "two");
  std::string Payload;
  ASSERT_TRUE(Cache.lookup(1, Payload)); // Refreshes 1; 2 is now oldest.
  Cache.insert(3, "three");
  EXPECT_EQ(Cache.entries(), 2u);
  EXPECT_EQ(Cache.stats().Evicted.load(), 1u);
  EXPECT_TRUE(Cache.lookup(1, Payload));
  EXPECT_FALSE(Cache.lookup(2, Payload));
  EXPECT_TRUE(Cache.lookup(3, Payload));
}

TEST(DiskCacheTest, FlushWritesIndex) {
  TempDir Tmp;
  DiskCache Cache(Tmp.Path, 16);
  std::string Error;
  ASSERT_TRUE(Cache.open(Error)) << Error;
  Cache.insert(0xbeef, "x");
  Cache.flush();
  std::ifstream F(fs::path(Tmp.Path) / "index.txt");
  ASSERT_TRUE(F.good());
  std::string Contents((std::istreambuf_iterator<char>(F)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(Contents.find("entries 1"), std::string::npos) << Contents;
  EXPECT_NE(Contents.find("000000000000beef"), std::string::npos)
      << Contents;
}

//===----------------------------------------------------------------------===//
// Memo category (byte-capped .gm entries)
//===----------------------------------------------------------------------===//

TEST(DiskCacheTest, MemoRoundTripIsSeparateFromResults) {
  TempDir Tmp;
  DiskCache Cache(Tmp.Path, 16);
  std::string Error;
  ASSERT_TRUE(Cache.open(Error)) << Error;
  // The same key in both categories must resolve independently: the
  // categories share the directory, never an entry.
  Cache.insert(0x1111, "result-payload");
  Cache.insertMemo(0x1111, "memo-payload");
  std::string Got;
  ASSERT_TRUE(Cache.lookup(0x1111, Got));
  EXPECT_EQ(Got, "result-payload");
  ASSERT_TRUE(Cache.lookupMemo(0x1111, Got));
  EXPECT_EQ(Got, "memo-payload");
  EXPECT_EQ(Cache.entries(), 1u);
  EXPECT_EQ(Cache.memoEntries(), 1u);
  // A memo lookup for a key present only as a result misses.
  EXPECT_FALSE(Cache.lookupMemo(0x2222, Got));
}

TEST(DiskCacheTest, MemoBytesEvictOldestFirst) {
  TempDir Tmp;
  // Header is 40 bytes; a 100-byte payload charges 140. Budget of 300
  // bytes holds two entries, never three.
  DiskCache Cache(Tmp.Path, 16, /*MaxMemoBytes=*/300);
  std::string Error;
  ASSERT_TRUE(Cache.open(Error)) << Error;
  const std::string Payload(100, 'm');
  Cache.insertMemo(1, Payload);
  Cache.insertMemo(2, Payload);
  EXPECT_EQ(Cache.memoEntries(), 2u);
  EXPECT_EQ(Cache.memoBytes(), 280u);
  Cache.insertMemo(3, Payload);
  EXPECT_EQ(Cache.memoEntries(), 2u);
  std::string Got;
  EXPECT_FALSE(Cache.lookupMemo(1, Got)); // Oldest evicted.
  EXPECT_TRUE(Cache.lookupMemo(2, Got));
  EXPECT_TRUE(Cache.lookupMemo(3, Got));
  EXPECT_EQ(Cache.stats().Evicted.load(), 1u);
}

TEST(DiskCacheTest, MemoEvictionNeverTouchesResults) {
  TempDir Tmp;
  DiskCache Cache(Tmp.Path, 16, /*MaxMemoBytes=*/150);
  std::string Error;
  ASSERT_TRUE(Cache.open(Error)) << Error;
  Cache.insert(7, std::string(500, 'r')); // Far over the *memo* budget.
  Cache.insertMemo(8, std::string(100, 'a'));
  Cache.insertMemo(9, std::string(100, 'b')); // Evicts memo 8 only.
  std::string Got;
  EXPECT_TRUE(Cache.lookup(7, Got));
  EXPECT_EQ(Got.size(), 500u);
  EXPECT_FALSE(Cache.lookupMemo(8, Got));
  EXPECT_TRUE(Cache.lookupMemo(9, Got));
  EXPECT_EQ(Cache.entries(), 1u);
  EXPECT_EQ(Cache.memoEntries(), 1u);
}

TEST(DiskCacheTest, MemoBudgetSurvivesReopen) {
  TempDir Tmp;
  {
    DiskCache Cache(Tmp.Path, 16, /*MaxMemoBytes=*/400);
    std::string Error;
    ASSERT_TRUE(Cache.open(Error)) << Error;
    Cache.insertMemo(1, std::string(100, 'x'));
    Cache.insertMemo(2, std::string(100, 'y'));
  }
  {
    // Reopen under a tighter budget: the scan must charge the on-disk
    // sizes and evict oldest-first down to the cap.
    DiskCache Cache(Tmp.Path, 16, /*MaxMemoBytes=*/150);
    std::string Error;
    ASSERT_TRUE(Cache.open(Error)) << Error;
    EXPECT_EQ(Cache.memoEntries(), 1u);
    std::string Got;
    EXPECT_FALSE(Cache.lookupMemo(1, Got));
    ASSERT_TRUE(Cache.lookupMemo(2, Got));
    EXPECT_EQ(Got, std::string(100, 'y'));
  }
}

TEST(DiskCacheTest, UncappedMemosNeverEvict) {
  TempDir Tmp;
  DiskCache Cache(Tmp.Path, 1, /*MaxMemoBytes=*/0);
  std::string Error;
  ASSERT_TRUE(Cache.open(Error)) << Error;
  for (std::uint64_t K = 1; K <= 8; ++K)
    Cache.insertMemo(K, std::string(64, 'z'));
  EXPECT_EQ(Cache.memoEntries(), 8u);
  EXPECT_EQ(Cache.stats().Evicted.load(), 0u);
}

TEST(DiskCacheTest, CorruptMemoRecomputedNotServed) {
  TempDir Tmp;
  DiskCache Cache(Tmp.Path, 16, /*MaxMemoBytes=*/0);
  std::string Error;
  ASSERT_TRUE(Cache.open(Error)) << Error;
  Cache.insertMemo(0xabcd, "memo-data");
  fs::path Entry;
  for (const auto &E : fs::directory_iterator(Tmp.Path))
    if (E.path().extension() == ".gm")
      Entry = E.path();
  ASSERT_FALSE(Entry.empty());
  flipByteAt(Entry, 45); // Payload byte.
  std::string Got;
  EXPECT_FALSE(Cache.lookupMemo(0xabcd, Got));
  EXPECT_EQ(Cache.stats().Corrupt.load(), 1u);
  EXPECT_EQ(Cache.memoEntries(), 0u); // Discarded, not retried forever.
}

TEST(DiskCacheTest, FlushReportsMemoCounters) {
  TempDir Tmp;
  DiskCache Cache(Tmp.Path, 16);
  std::string Error;
  ASSERT_TRUE(Cache.open(Error)) << Error;
  Cache.insertMemo(0xfeed, std::string(10, 'q'));
  Cache.flush();
  std::ifstream F(fs::path(Tmp.Path) / "index.txt");
  ASSERT_TRUE(F.good());
  std::string Contents((std::istreambuf_iterator<char>(F)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(Contents.find("memo-entries 1"), std::string::npos) << Contents;
  EXPECT_NE(Contents.find("memo-bytes 50"), std::string::npos) << Contents;
  EXPECT_NE(Contents.find("memo 000000000000feed"), std::string::npos)
      << Contents;
}

//===----------------------------------------------------------------------===//
// Through the BatchServer
//===----------------------------------------------------------------------===//

const char *TestProgram = "distribute x\n"
                          "do i = 1, n\n"
                          "  x(i) = x(i + 1)\n"
                          "enddo\n";

ServiceRequest testRequest() {
  ServiceRequest Req;
  Req.Id = "r1";
  Req.Source = TestProgram;
  return Req;
}

TEST(DiskCacheServiceTest, RestartServesFromDisk) {
  TempDir Tmp;
  ServiceConfig Config;
  Config.Workers = 0;
  Config.DiskCachePath = Tmp.Path;

  std::string FirstResponse;
  {
    BatchServer Server(Config);
    ASSERT_TRUE(Server.diskCacheError().empty())
        << Server.diskCacheError();
    FirstResponse = Server.serve(testRequest());
    EXPECT_EQ(Server.metrics().DiskHits, 0u);
    Server.flushDiskCache();
  }

  // A fresh server (cold in-memory LRU) answers from the disk layer,
  // byte-identically, without recompiling.
  BatchServer Restarted(Config);
  ASSERT_TRUE(Restarted.diskCacheError().empty());
  EXPECT_EQ(Restarted.serve(testRequest()), FirstResponse);
  EXPECT_EQ(Restarted.metrics().DiskHits, 1u);
  EXPECT_EQ(Restarted.metrics().CacheMisses, 0u);
}

TEST(DiskCacheServiceTest, CorruptEntryRecomputed) {
  TempDir Tmp;
  ServiceConfig Config;
  Config.Workers = 0;
  Config.DiskCachePath = Tmp.Path;

  std::string FirstResponse;
  {
    BatchServer Server(Config);
    FirstResponse = Server.serve(testRequest());
  }
  flipByteAt(onlyEntry(Tmp.Path), 60); // Somewhere in the payload.

  BatchServer Restarted(Config);
  // The flipped entry is discarded and the program recompiled: the
  // response is still byte-identical, served via a miss, and the
  // corruption is visible in the disk stats.
  EXPECT_EQ(Restarted.serve(testRequest()), FirstResponse);
  EXPECT_EQ(Restarted.metrics().DiskHits, 0u);
  EXPECT_EQ(Restarted.metrics().CacheMisses, 1u);
  ASSERT_NE(Restarted.diskCache(), nullptr);
  EXPECT_EQ(Restarted.diskCache()->stats().Corrupt.load(), 1u);
}

} // namespace
