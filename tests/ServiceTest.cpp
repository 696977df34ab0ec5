//===- tests/ServiceTest.cpp - Batch server tests ---------------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The batch server's contract: responses in request order, byte-equal
// between serial and multi-worker runs (the determinism the tentpole
// acceptance criterion demands), per-job failure isolation, and an LRU
// result cache with honest hit/miss accounting.
//
//===----------------------------------------------------------------------===//

#include "service/BatchServer.h"

#include "gen/RandomProgram.h"
#include "ir/AstPrinter.h"
#include "support/Json.h"
#include "support/JsonParse.h"

#include <gtest/gtest.h>

using namespace gnt;

namespace {

/// Renders a seeded random program as an inline-source request line.
/// Every third job also runs the audit, so the workload covers both
/// cheap and expensive requests.
std::string requestLine(unsigned Seed) {
  GenConfig Config;
  Config.Seed = Seed;
  Config.TargetStmts = 18;
  std::string Source = AstPrinter().print(generateRandomProgram(Config));
  std::string Line = "{\"id\":\"job-" + std::to_string(Seed) +
                     "\",\"source\":\"" + jsonEscape(Source) + "\"";
  if (Seed % 3 == 0)
    Line += ",\"options\":{\"audit\":true}";
  Line += "}";
  return Line;
}

std::vector<std::string> workload(unsigned Count, unsigned FirstSeed = 1) {
  std::vector<std::string> Lines;
  for (unsigned I = 0; I < Count; ++I)
    Lines.push_back(requestLine(FirstSeed + I));
  return Lines;
}

TEST(ServiceRequest, ParsesFullRequest) {
  ServiceRequest Req;
  std::string Error;
  ASSERT_TRUE(parseServiceRequest(
      "{\"id\":\"a\",\"source\":\"continue\\n\",\"options\":"
      "{\"mode\":\"pre\",\"audit\":true,\"atomic\":true}}",
      "line-1", Req, Error))
      << Error;
  EXPECT_EQ(Req.Id, "a");
  EXPECT_EQ(Req.Source, "continue\n");
  EXPECT_EQ(Req.Opts.Mode, PipelineMode::Pre);
  EXPECT_TRUE(Req.Opts.Audit);
  EXPECT_TRUE(Req.Opts.Comm.Atomic);
}

TEST(ServiceRequest, DefaultsIdToLineNumber) {
  ServiceRequest Req;
  std::string Error;
  ASSERT_TRUE(
      parseServiceRequest("{\"source\":\"continue\\n\"}", "line-7", Req,
                          Error));
  EXPECT_EQ(Req.Id, "line-7");
}

TEST(ServiceRequest, RejectsMalformedInput) {
  ServiceRequest Req;
  std::string Error;
  EXPECT_FALSE(parseServiceRequest("not json", "l", Req, Error));
  EXPECT_NE(Error.find("malformed JSON"), std::string::npos);

  EXPECT_FALSE(parseServiceRequest("[1,2]", "l", Req, Error));
  EXPECT_FALSE(parseServiceRequest("{\"source\":\"x\",\"file\":\"y\"}", "l",
                                   Req, Error));
  EXPECT_FALSE(parseServiceRequest("{}", "l", Req, Error));
  EXPECT_FALSE(parseServiceRequest(
      "{\"source\":\"x\",\"options\":{\"no_such\":true}}", "l", Req, Error));
  EXPECT_NE(Error.find("no_such"), std::string::npos);
  EXPECT_FALSE(parseServiceRequest(
      "{\"source\":\"x\",\"options\":{\"audit\":\"yes\"}}", "l", Req,
      Error));
}

// The sharded and universe-compressed solves are gone, and so are the
// request options that selected them: `solver_shards` and
// `compress_universe` get the structured error any other unknown option
// gets.

/// Expects decoding a request with \p Options to fail as an unknown option.
void expectUnknownOption(const char *Options) {
  ServiceRequest Req;
  std::string Error;
  std::string Line =
      std::string("{\"source\":\"continue\\n\",\"options\":") + Options + "}";
  EXPECT_FALSE(parseServiceRequest(Line, "l", Req, Error)) << Options;
  EXPECT_NE(Error.find("unknown option"), std::string::npos) << Error;
}

/// Expects the batch server to answer a request with \p Options with an
/// error payload that never reaches the result cache: the plain request
/// for the same source compiles once, and its repeat is a hit.
void expectRejectedBeforeCache(const char *Options) {
  std::string Request = "{\"source\":\"distribute x\\narray u\\n"
                        "do i = 1, n\\n  u(i) = x(i)\\nenddo\\n\"";
  ServiceConfig Serial;
  Serial.Workers = 0;
  BatchServer Server(Serial);
  std::vector<std::string> Out = Server.run({
      Request + "}",
      Request + ",\"options\":" + Options + "}",
      Request + "}",
  });
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_NE(Out[1].find("\"ok\":false"), std::string::npos) << Out[1];
  EXPECT_NE(Out[1].find("unknown option"), std::string::npos) << Out[1];
  EXPECT_EQ(Server.metrics().Failed, 1u);
  EXPECT_EQ(Server.metrics().CacheMisses, 1u);
  EXPECT_EQ(Server.metrics().CacheHits, 1u);
  // Same payload modulo the echoed id.
  EXPECT_EQ(Out[0].substr(Out[0].find("\"result\"")),
            Out[2].substr(Out[2].find("\"result\"")));
}

TEST(ServiceRequest, DecodesSolverShards) {
  for (const char *Options : {"{\"solver_shards\":7}", "{\"solver_shards\":1}",
                              "{\"solver_shards\":\"7\"}"})
    expectUnknownOption(Options);
}

TEST(ServiceRequest, DecodesCompressUniverse) {
  for (const char *Options :
       {"{\"compress_universe\":true}", "{\"compress_universe\":false}"})
    expectUnknownOption(Options);
}

TEST(BatchServer, SolverShardsShareOneCacheEntry) {
  expectRejectedBeforeCache("{\"solver_shards\":4}");
}

TEST(BatchServer, CompressUniverseSharesOneCacheEntry) {
  expectRejectedBeforeCache("{\"compress_universe\":true}");
}

TEST(ResultCache, LruEvictsOldest) {
  ResultCache Cache(2);
  Cache.insert(1, "one");
  Cache.insert(2, "two");
  std::string Out;
  ASSERT_TRUE(Cache.lookup(1, Out)); // Refreshes 1; 2 becomes LRU.
  Cache.insert(3, "three");
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_TRUE(Cache.lookup(1, Out));
  EXPECT_EQ(Out, "one");
  EXPECT_FALSE(Cache.lookup(2, Out));
  EXPECT_TRUE(Cache.lookup(3, Out));
}

TEST(ResultCache, ZeroCapacityDisables) {
  ResultCache Cache(0);
  Cache.insert(1, "one");
  std::string Out;
  EXPECT_FALSE(Cache.lookup(1, Out));
  EXPECT_EQ(Cache.size(), 0u);
}

TEST(BatchServer, SerialAndParallelRunsAreByteIdentical) {
  std::vector<std::string> Lines = workload(40);

  ServiceConfig Serial;
  Serial.Workers = 0;
  BatchServer SerialServer(Serial);
  std::vector<std::string> Expected = SerialServer.run(Lines);
  ASSERT_EQ(Expected.size(), Lines.size());

  for (unsigned Workers : {2u, 8u}) {
    ServiceConfig Par;
    Par.Workers = Workers;
    BatchServer Server(Par);
    std::vector<std::string> Got = Server.run(Lines);
    ASSERT_EQ(Got.size(), Expected.size()) << Workers << " workers";
    for (size_t I = 0; I < Expected.size(); ++I)
      EXPECT_EQ(Got[I], Expected[I]) << Workers << " workers, response " << I;
    EXPECT_EQ(Server.metrics().Jobs, Lines.size());
  }
}

TEST(BatchServer, DuplicateRequestsStayDeterministicUnderThreads) {
  // A batch where every job appears twice: cache races between the two
  // copies must never leak into the responses.
  std::vector<std::string> Lines = workload(12);
  std::vector<std::string> Doubled = Lines;
  Doubled.insert(Doubled.end(), Lines.begin(), Lines.end());

  ServiceConfig Serial;
  Serial.Workers = 0;
  BatchServer SerialServer(Serial);
  std::vector<std::string> Expected = SerialServer.run(Doubled);

  ServiceConfig Par;
  Par.Workers = 8;
  BatchServer Server(Par);
  std::vector<std::string> Got = Server.run(Doubled);
  ASSERT_EQ(Got.size(), Expected.size());
  for (size_t I = 0; I < Expected.size(); ++I)
    EXPECT_EQ(Got[I], Expected[I]) << "response " << I;
}

TEST(BatchServer, RepeatedBatchHitsCache) {
  std::vector<std::string> Lines = workload(10);
  ServiceConfig Config;
  Config.Workers = 2;
  BatchServer Server(Config);

  std::vector<std::string> First = Server.run(Lines);
  EXPECT_EQ(Server.metrics().CacheHits, 0u);
  EXPECT_EQ(Server.metrics().CacheMisses, Lines.size());

  std::vector<std::string> Second = Server.run(Lines);
  EXPECT_EQ(Server.metrics().CacheHits, Lines.size());
  ASSERT_EQ(First.size(), Second.size());
  for (size_t I = 0; I < First.size(); ++I)
    EXPECT_EQ(First[I], Second[I]);
}

TEST(BatchServer, CacheDistinguishesOptions) {
  std::string Source = "distribute x\narray u\ndo i = 1, n\n"
                       "  u(i) = x(i)\nenddo\n";
  std::string Plain =
      "{\"source\":\"" + jsonEscape(Source) + "\"}";
  std::string Atomic = "{\"source\":\"" + jsonEscape(Source) +
                       "\",\"options\":{\"atomic\":true}}";
  BatchServer Server{ServiceConfig()};
  std::vector<std::string> Got = Server.run({Plain, Atomic});
  EXPECT_EQ(Server.metrics().CacheMisses, 2u);
  EXPECT_EQ(Server.metrics().CacheHits, 0u);
  EXPECT_NE(Got[0].substr(Got[0].find("result")),
            Got[1].substr(Got[1].find("result")));
}

TEST(BatchServer, FailuresAreIsolated) {
  std::vector<std::string> Lines = {
      requestLine(1),
      "{\"id\":\"bad-syntax\",\"source\":\"do i = \\n\"}",
      "this is not json",
      "{\"id\":\"bad-file\",\"file\":\"/no/such/path.fm\"}",
      requestLine(2),
      "", // Blank lines are skipped, not jobs.
  };
  ServiceConfig Config;
  Config.Workers = 4;
  BatchServer Server(Config);
  std::vector<std::string> Got = Server.run(Lines);
  ASSERT_EQ(Got.size(), 5u); // Blank line dropped.
  EXPECT_EQ(Server.metrics().Jobs, 5u);
  EXPECT_EQ(Server.metrics().Failed, 3u);

  // Every response is well-formed JSON with the right id and ok flag.
  auto check = [&](const std::string &Line, const char *Id, bool Ok) {
    JsonParseResult P = parseJson(Line);
    ASSERT_TRUE(P.success()) << P.Error << " in " << Line;
    const JsonValue *IdV = P.Value.field("id");
    ASSERT_NE(IdV, nullptr);
    EXPECT_EQ(IdV->S, Id);
    const JsonValue *Result = P.Value.field("result");
    ASSERT_NE(Result, nullptr);
    const JsonValue *OkV = Result->field("ok");
    ASSERT_NE(OkV, nullptr);
    EXPECT_EQ(OkV->B, Ok);
    if (!Ok) {
      const JsonValue *Diags = Result->field("diagnostics");
      ASSERT_NE(Diags, nullptr);
      EXPECT_FALSE(Diags->field("diagnostics")->Elems.empty());
    }
  };
  check(Got[0], "job-1", true);
  check(Got[1], "bad-syntax", false);
  check(Got[2], "line-3", false);
  check(Got[3], "bad-file", false);
  check(Got[4], "job-2", true);
}

TEST(BatchServer, MetricsRenderAndRoundTrip) {
  std::vector<std::string> Lines = workload(6);
  ServiceConfig Config;
  Config.Workers = 2;
  BatchServer Server(Config);
  Server.run(Lines);
  Server.run(Lines); // Second pass for cache hits.
  EXPECT_GT(Server.metrics().JobLatency.count(), 0u);

  MetricTable T = metricTable(Server.metricsSnapshot(), nullptr, nullptr);
  EXPECT_NE(renderPrometheus(T).find("\ngntd_jobs_total 12\n"),
            std::string::npos);

  JsonParseResult P = parseJson(renderJson(T));
  ASSERT_TRUE(P.success()) << P.Error;
  auto Value = [&P](const char *Series) {
    const JsonValue *V = P.Value.field(Series);
    return V ? V->asDouble() : -1.0;
  };
  EXPECT_EQ(Value("gntd_jobs_total"), 12.0);
  EXPECT_EQ(Value("gntd_cache_hits_total{layer=\"memory\"}"), 6.0);
  EXPECT_EQ(Value("gntd_cache_misses_total"), 6.0);
  EXPECT_GT(Value("gntd_job_latency_microseconds{quantile=\"0.99\"}"), 0.0);
}

TEST(LatencyStats, OrderStatistics) {
  LatencyStats L;
  for (double V : {5.0, 1.0, 3.0, 2.0, 4.0})
    L.record(V);
  EXPECT_EQ(L.sum(), 15.0);
  EXPECT_EQ(L.percentile(50), 3.0);
  EXPECT_EQ(L.percentile(0), 1.0);
  EXPECT_EQ(L.percentile(100), 5.0);
  LatencyStats Empty;
  EXPECT_EQ(Empty.percentile(99), 0.0);
}

TEST(LatencyStats, RetentionIsBounded) {
  // The smallest sample comes first, so it leaves the ring long before
  // the end; count and sum must still cover every sample.
  constexpr size_t N = 1000000;
  LatencyStats L;
  for (size_t I = 1; I <= N; ++I)
    L.record(static_cast<double>(I));
  EXPECT_LE(L.retained(), size_t(16384));
  EXPECT_EQ(L.count(), N);
  EXPECT_EQ(L.sum(), static_cast<double>(N) * (N + 1) / 2);
  // The quantiles see exactly the most recent window.
  EXPECT_EQ(L.percentile(0), static_cast<double>(N - L.retained() + 1));
  EXPECT_EQ(L.percentile(100), static_cast<double>(N));
}

} // namespace
