//===- tests/SupportServiceTest.cpp - Hashing/JSON/ThreadPool tests ---------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The support pieces under the service subsystem: FNV-1a hashing (known
// vectors + chaining laws), the JSON reader (round trips with the
// writer), and the thread pool (completion, reuse, inline mode).
//
//===----------------------------------------------------------------------===//

#include "support/Hashing.h"
#include "support/Json.h"
#include "support/JsonParse.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>

using namespace gnt;

namespace {

TEST(Hashing, Fnv1aKnownVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(Hashing, AppendChainsLikeConcatenation) {
  std::uint64_t Chained = fnv1aAppend(fnv1a("give"), "ntake");
  EXPECT_EQ(Chained, fnv1a("giventake"));
  // A separator byte keeps part boundaries significant.
  std::uint64_t AB_c = fnv1aAppend(
      fnv1aAppend(fnv1a("ab"), std::string(1, '\0')), "c");
  std::uint64_t A_bc = fnv1aAppend(
      fnv1aAppend(fnv1a("a"), std::string(1, '\0')), "bc");
  EXPECT_NE(AB_c, A_bc);
}

TEST(Hashing, HexRenderingIsFixedWidth) {
  EXPECT_EQ(hashToHex(0), "0000000000000000");
  EXPECT_EQ(hashToHex(0xdeadbeefull), "00000000deadbeef");
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parseJson("null").Value.isNull());
  EXPECT_TRUE(parseJson("true").Value.B);
  EXPECT_FALSE(parseJson("false").Value.B);
  EXPECT_EQ(parseJson("42").Value.I, 42);
  EXPECT_EQ(parseJson("-7").Value.I, -7);
  EXPECT_DOUBLE_EQ(parseJson("2.5").Value.D, 2.5);
  EXPECT_DOUBLE_EQ(parseJson("1e3").Value.asDouble(), 1000.0);
  EXPECT_EQ(parseJson("\"hi\\n\\\"there\\\"\"").Value.S, "hi\n\"there\"");
  EXPECT_EQ(parseJson("\"\\u0041\\u00e9\"").Value.S, "A\xc3\xa9");
}

TEST(JsonParse, Structures) {
  JsonParseResult P =
      parseJson("{\"a\": [1, 2, {\"b\": true}], \"c\": \"x\"} ");
  ASSERT_TRUE(P.success()) << P.Error;
  const JsonValue *A = P.Value.field("a");
  ASSERT_NE(A, nullptr);
  ASSERT_TRUE(A->isArray());
  ASSERT_EQ(A->Elems.size(), 3u);
  EXPECT_EQ(A->Elems[0].I, 1);
  EXPECT_TRUE(A->Elems[2].field("b")->B);
  EXPECT_EQ(P.Value.field("c")->S, "x");
  EXPECT_EQ(P.Value.field("missing"), nullptr);
}

TEST(JsonParse, Errors) {
  EXPECT_FALSE(parseJson("").success());
  EXPECT_FALSE(parseJson("{").success());
  EXPECT_FALSE(parseJson("{\"a\":}").success());
  EXPECT_FALSE(parseJson("[1,]").success());
  EXPECT_FALSE(parseJson("\"unterminated").success());
  EXPECT_FALSE(parseJson("1 2").success());
  EXPECT_FALSE(parseJson("nul").success());
  EXPECT_FALSE(parseJson("1.").success());
  EXPECT_FALSE(parseJson("-").success());
  EXPECT_FALSE(parseJson("\"\\q\"").success());
  // Out-of-range numbers and runaway nesting are ordinary parse errors,
  // never exceptions or a stack overflow.
  EXPECT_FALSE(parseJson("{\"options\":{\"atomic\":99999999999999999999}}")
                   .success());
  EXPECT_FALSE(parseJson("{\"x\":1e999}").success());
  EXPECT_FALSE(parseJson(std::string(200000, '[')).success());
  EXPECT_TRUE(parseJson(std::string(JsonMaxDepth, '[') +
                        std::string(JsonMaxDepth, ']'))
                  .success());

  JsonParseResult P = parseJson("{\"a\": @}");
  EXPECT_FALSE(P.success());
  EXPECT_EQ(P.ErrorOffset, 6u);
}

TEST(JsonParse, RoundTripsWriterOutput) {
  JsonWriter W;
  W.beginObject();
  W.key("name").value("line\n\"quoted\"\ttab");
  W.key("count").value(123456789LL);
  W.key("flag").value(true);
  W.beginArray("items");
  W.value("a");
  W.value(2LL);
  W.endArray();
  W.endObject();

  JsonParseResult P = parseJson(W.str());
  ASSERT_TRUE(P.success()) << P.Error;
  EXPECT_EQ(P.Value.field("name")->S, "line\n\"quoted\"\ttab");
  EXPECT_EQ(P.Value.field("count")->I, 123456789LL);
  EXPECT_TRUE(P.Value.field("flag")->B);
  ASSERT_EQ(P.Value.field("items")->Elems.size(), 2u);
}

TEST(ThreadPool, RunsEveryJob) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(4);
    for (int I = 0; I < 1000; ++I)
      Pool.submit([&Count] { Count.fetch_add(1, std::memory_order_relaxed); });
    Pool.wait();
    EXPECT_EQ(Count.load(), 1000);
  }
}

TEST(ThreadPool, WaitIsReusableAcrossBatches) {
  std::atomic<int> Count{0};
  ThreadPool Pool(2);
  for (int Batch = 0; Batch < 3; ++Batch) {
    for (int I = 0; I < 50; ++I)
      Pool.submit([&Count] { Count.fetch_add(1, std::memory_order_relaxed); });
    Pool.wait();
    EXPECT_EQ(Count.load(), (Batch + 1) * 50);
  }
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.workers(), 0u);
  int X = 0;
  Pool.submit([&X] { X = 7; });
  EXPECT_EQ(X, 7); // Ran synchronously; no wait() needed.
  Pool.wait();     // Still safe to call.
}

TEST(ThreadPool, DestructorDrainsPendingJobs) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I < 200; ++I)
      Pool.submit([&Count] { Count.fetch_add(1, std::memory_order_relaxed); });
    // No wait(): teardown must finish the queue, not drop it.
  }
  EXPECT_EQ(Count.load(), 200);
}

} // namespace
