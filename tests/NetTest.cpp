//===- tests/NetTest.cpp - Socket server tests ------------------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Socket-level tests for the net subsystem, against real connections to
// an in-process NetServer on an ephemeral port.
//
// The centerpiece is the determinism battery: 20 seeds x worker counts
// {1,4,8} x connection counts {1,8}, each seed's requests shuffled into
// a different arrival order and scattered across the connections. Every
// single response must be byte-identical to what a serial stdio batch
// (BatchServer::run, Workers=0) produces for the same request — the
// wire, the thread pool, the admission queue, and the caches must never
// leak scheduling into payloads.
//
// Around it: overload sheds with structured `overloaded`/queue_full
// errors while every request still gets exactly one response; malformed
// frames get the stdio-identical error payload; oversized and truncated
// frames get structured bad_frame errors and a clean close (never a
// crash or hang); per-tenant quotas shed with reason quota; draining
// servers shed with reason draining while in-flight work completes; and
// GET /metrics on the same port serves Prometheus text. The framing,
// token bucket, and fair-queue primitives get direct unit tests too.
//
//===----------------------------------------------------------------------===//

#include "net/AdmissionQueue.h"
#include "net/Framing.h"
#include "net/NetServer.h"
#include "net/TokenBucket.h"

#include "gen/RandomProgram.h"
#include "ir/AstPrinter.h"
#include "service/BatchServer.h"
#include "support/Json.h"

#include "gtest/gtest.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

using namespace gnt;
using namespace gnt::net;

namespace {

//===----------------------------------------------------------------------===//
// Test client
//===----------------------------------------------------------------------===//

struct TestClient {
  int Fd = -1;

  ~TestClient() { close(); }

  void close() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }

  bool dial(std::uint16_t Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (Fd < 0)
      return false;
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Port);
    ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
        0) {
      close();
      return false;
    }
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    timeval Tv{20, 0}; // A hung server fails the test, never wedges it.
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
    return true;
  }

  bool send(const std::string &Data) {
    const char *P = Data.data();
    std::size_t Len = Data.size();
    while (Len) {
      ssize_t W = ::write(Fd, P, Len);
      if (W < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      P += W;
      Len -= static_cast<std::size_t>(W);
    }
    return true;
  }

  void finishSending() { ::shutdown(Fd, SHUT_WR); }

  /// Reads until EOF (or the receive timeout).
  std::string recvAll() {
    std::string Data;
    char Buf[64 * 1024];
    for (;;) {
      ssize_t R = ::read(Fd, Buf, sizeof(Buf));
      if (R < 0 && errno == EINTR)
        continue;
      if (R <= 0)
        break;
      Data.append(Buf, static_cast<std::size_t>(R));
    }
    return Data;
  }
};

std::vector<std::string> splitLines(const std::string &Data) {
  std::vector<std::string> Lines;
  std::size_t Pos = 0;
  while (Pos < Data.size()) {
    std::size_t Nl = Data.find('\n', Pos);
    if (Nl == std::string::npos)
      break;
    Lines.push_back(Data.substr(Pos, Nl - Pos));
    Pos = Nl + 1;
  }
  return Lines;
}

std::unique_ptr<NetServer> startServer(unsigned Workers, NetConfig NC = {}) {
  ServiceConfig SC;
  SC.Workers = Workers;
  NC.Port = 0;
  auto Server = std::make_unique<NetServer>(SC, NC);
  std::string Error;
  EXPECT_TRUE(Server->start(Error)) << Error;
  return Server;
}

std::string requestLine(const std::string &Id, const std::string &Source,
                        const std::string &Tenant = "") {
  JsonWriter W;
  W.beginObject();
  W.key("id").value(Id);
  if (!Tenant.empty())
    W.key("tenant").value(Tenant);
  W.key("source").value(Source);
  W.endObject();
  return W.str();
}

std::string seededSource(unsigned Bucket, unsigned Seed,
                         unsigned TargetStmts = 0) {
  GenConfig GC = genConfigForBucket(Bucket % NumGenBuckets, Seed);
  if (TargetStmts)
    GC.TargetStmts = TargetStmts;
  return AstPrinter().print(generateRandomProgram(GC));
}

//===----------------------------------------------------------------------===//
// Determinism battery
//===----------------------------------------------------------------------===//

// Any worker count, connection spread, and arrival order must produce
// responses byte-identical to a serial stdio batch. 20 seeds so the
// shuffles and program shapes vary; cheap programs so the battery stays
// fast.
TEST(NetDeterminismTest, Battery) {
  constexpr unsigned NumSeeds = 20;
  constexpr unsigned RequestsPerSeed = 8;
  const unsigned WorkerCounts[] = {1, 4, 8};
  const unsigned ConnCounts[] = {1, 8};

  // Build per-seed request sets and their serial stdio reference.
  std::vector<std::vector<std::string>> Requests(NumSeeds);
  std::vector<std::vector<std::string>> Reference(NumSeeds);
  ServiceConfig SerialConfig;
  SerialConfig.Workers = 0;
  BatchServer Serial(SerialConfig);
  for (unsigned Seed = 0; Seed < NumSeeds; ++Seed) {
    for (unsigned I = 0; I < RequestsPerSeed; ++I) {
      // Two of the eight repeat an earlier source under a fresh id:
      // cache hits must be byte-identical to cold compiles too.
      unsigned ProgSeed = (I >= 6) ? Seed * 31 + (I - 6) : Seed * 31 + I;
      std::string Id =
          "s" + std::to_string(Seed) + "-" + std::to_string(I);
      Requests[Seed].push_back(
          requestLine(Id, seededSource(I, ProgSeed, 12)));
    }
    Reference[Seed] = Serial.run(Requests[Seed]);
    ASSERT_EQ(Reference[Seed].size(), RequestsPerSeed);
  }

  for (unsigned Workers : WorkerCounts) {
    for (unsigned NumConns : ConnCounts) {
      auto Server = startServer(Workers);
      for (unsigned Seed = 0; Seed < NumSeeds; ++Seed) {
        // A seed-specific arrival order, scattered round-robin over the
        // connections.
        std::vector<unsigned> Order(RequestsPerSeed);
        std::iota(Order.begin(), Order.end(), 0u);
        std::mt19937 Rng(Seed * 1000 + Workers * 10 + NumConns);
        std::shuffle(Order.begin(), Order.end(), Rng);

        std::vector<TestClient> Clients(NumConns);
        std::vector<std::vector<unsigned>> PerConn(NumConns);
        for (TestClient &C : Clients)
          ASSERT_TRUE(C.dial(Server->port()));
        for (unsigned K = 0; K < RequestsPerSeed; ++K) {
          unsigned Conn = K % NumConns;
          ASSERT_TRUE(
              Clients[Conn].send(Requests[Seed][Order[K]] + "\n"));
          PerConn[Conn].push_back(Order[K]);
        }
        for (TestClient &C : Clients)
          C.finishSending();
        for (unsigned Conn = 0; Conn < NumConns; ++Conn) {
          std::vector<std::string> Lines =
              splitLines(Clients[Conn].recvAll());
          ASSERT_EQ(Lines.size(), PerConn[Conn].size())
              << "workers=" << Workers << " conns=" << NumConns
              << " seed=" << Seed;
          for (unsigned K = 0; K < Lines.size(); ++K)
            EXPECT_EQ(Lines[K], Reference[Seed][PerConn[Conn][K]])
                << "workers=" << Workers << " conns=" << NumConns
                << " seed=" << Seed << " slot=" << K;
        }
      }
      Server->requestDrain();
      Server->join();
    }
  }
}

//===----------------------------------------------------------------------===//
// Load discipline
//===----------------------------------------------------------------------===//

TEST(NetOverloadTest, QueueFullShedsWithStructuredError) {
  NetConfig NC;
  NC.MaxPending = 1;
  auto Server = startServer(/*Workers=*/1, NC);

  // One expensive job to pin the single worker, then a burst the
  // 1-deep queue cannot hold.
  std::string Slow = requestLine("slow", seededSource(0, 1, 4000));
  constexpr unsigned Burst = 30;
  std::string Small = seededSource(1, 2, 8);

  TestClient C;
  ASSERT_TRUE(C.dial(Server->port()));
  std::string Payload = Slow + "\n";
  for (unsigned I = 0; I < Burst; ++I)
    Payload += requestLine("b" + std::to_string(I), Small) + "\n";
  ASSERT_TRUE(C.send(Payload));
  C.finishSending();

  std::vector<std::string> Lines = splitLines(C.recvAll());
  // Every request is answered exactly once, shed or not.
  ASSERT_EQ(Lines.size(), Burst + 1);
  unsigned Shed = 0;
  for (const std::string &Line : Lines) {
    if (Line.find("\"error\":\"overloaded\"") != std::string::npos) {
      EXPECT_NE(Line.find("\"reason\":\"queue_full\""), std::string::npos)
          << Line;
      ++Shed;
    }
  }
  EXPECT_GT(Shed, 0u);
  EXPECT_EQ(Server->metrics().ShedQueueFull.load(), Shed);
  Server->requestDrain();
  Server->join();
}

TEST(NetOverloadTest, QuotaShedsPerTenant) {
  NetConfig NC;
  NC.QuotaRps = 1e-6; // Effectively no refill within the test.
  NC.QuotaBurst = 1;
  auto Server = startServer(/*Workers=*/1, NC);

  std::string Source = seededSource(0, 3, 8);
  TestClient C;
  ASSERT_TRUE(C.dial(Server->port()));
  ASSERT_TRUE(C.send(requestLine("a1", Source, "alice") + "\n" +
                     requestLine("a2", Source, "alice") + "\n" +
                     requestLine("b1", Source, "bob") + "\n"));
  C.finishSending();

  std::vector<std::string> Lines = splitLines(C.recvAll());
  ASSERT_EQ(Lines.size(), 3u);
  // Each tenant's first request is admitted on its full bucket; the
  // second alice request is out of tokens.
  EXPECT_EQ(Lines[0].find("\"error\":\"overloaded\""), std::string::npos);
  EXPECT_NE(Lines[1].find("\"reason\":\"quota\""), std::string::npos);
  EXPECT_NE(Lines[1].find("alice"), std::string::npos);
  EXPECT_EQ(Lines[2].find("\"error\":\"overloaded\""), std::string::npos);
  EXPECT_EQ(Server->metrics().ShedQuota.load(), 1u);
  Server->requestDrain();
  Server->join();
}

TEST(NetDrainTest, DrainingShedsNewWorkAndFinishesInFlight) {
  auto Server = startServer(/*Workers=*/1);
  TestClient C;
  ASSERT_TRUE(C.dial(Server->port()));

  // Park a genuinely slow job so the drain stays open, then submit
  // more work mid-drain.
  ASSERT_TRUE(
      C.send(requestLine("slow", seededSource(0, 1, 4000)) + "\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Server->requestDrain();
  ASSERT_TRUE(C.send(requestLine("late", seededSource(1, 2, 8)) + "\n"));
  C.finishSending();

  std::vector<std::string> Lines = splitLines(C.recvAll());
  ASSERT_EQ(Lines.size(), 2u);
  // The in-flight job completed with a real payload; the late one was
  // shed with reason draining.
  EXPECT_EQ(Lines[0].find("\"error\":\"overloaded\""), std::string::npos);
  EXPECT_NE(Lines[0].find("\"id\":\"slow\""), std::string::npos);
  EXPECT_NE(Lines[1].find("\"reason\":\"draining\""), std::string::npos);
  Server->join();
  EXPECT_EQ(Server->metrics().ShedDraining.load(), 1u);
}

//===----------------------------------------------------------------------===//
// Framing failures
//===----------------------------------------------------------------------===//

TEST(NetFramingTest, MalformedFrameMatchesStdioErrorBytes) {
  auto Server = startServer(/*Workers=*/2);
  std::vector<std::string> Garbage = {
      "this is not json",
      "{\"id\":\"x\",\"source\":12}",
      "{\"id\":\"y\"}",
      "[1,2,3]",
      "{\"options\":{\"atomic\":99999999999999999999}}",
      "{\"x\":1e999}",
      std::string(200000, '['),
  };
  // Well-formed frames whose program or analysis spec nests far past
  // the parsers' bounds: each is a structured error payload.
  std::string DeepProgram;
  for (unsigned I = 0; I != 20000; ++I)
    DeepProgram += "do i = 1, n\n";
  DeepProgram += "v = 1\n";
  for (unsigned I = 0; I != 20000; ++I)
    DeepProgram += "enddo\n";
  JsonWriter DeepSpec;
  DeepSpec.beginObject();
  DeepSpec.key("source").value(seededSource(0, 1, 8));
  DeepSpec.key("options").beginObject();
  DeepSpec.beginArray("analyses")
      .value("universe items\ntransfer out = " + std::string(200000, '~') +
             "in\n")
      .endArray();
  DeepSpec.endObject();
  DeepSpec.endObject();
  std::vector<std::string> Frames = Garbage;
  Frames.push_back(requestLine("deep-program", DeepProgram));
  Frames.push_back(DeepSpec.str());

  // The stdio batch reference for the same frames.
  ServiceConfig SerialConfig;
  SerialConfig.Workers = 0;
  std::vector<std::string> Reference = BatchServer(SerialConfig).run(Frames);

  TestClient C;
  ASSERT_TRUE(C.dial(Server->port()));
  std::string Payload;
  for (const std::string &Line : Frames)
    Payload += Line + "\n";
  // The server survives every one of them and answers the next frame.
  Payload += requestLine("after", seededSource(0, 1, 8)) + "\n";
  ASSERT_TRUE(C.send(Payload));
  C.finishSending();

  std::vector<std::string> Lines = splitLines(C.recvAll());
  ASSERT_EQ(Lines.size(), Frames.size() + 1);
  EXPECT_NE(Lines.back().find("\"id\":\"after\",\"result\":{\"ok\":true"),
            std::string::npos)
      << Lines.back();
  Lines.pop_back();
  for (unsigned I = 0; I < Lines.size(); ++I) {
    // Socket ids are c<conn>-<seq>; normalize both to compare payloads.
    std::string Got = Lines[I].substr(Lines[I].find(",\"result\""));
    std::string Want =
        Reference[I].substr(Reference[I].find(",\"result\""));
    EXPECT_EQ(Got, Want) << Frames[I].substr(0, 80);
    if (I >= Garbage.size())
      EXPECT_NE(Got.find("\"result\":{\"ok\":false"), std::string::npos)
          << Got;
  }
  EXPECT_EQ(Server->metrics().Malformed.load(), Garbage.size());
  Server->requestDrain();
  Server->join();
}

TEST(NetFramingTest, FileRequestsAreRejected) {
  // Only batch mode reads `file` paths; a socket client gets a
  // structured error that says nothing about the path, and the
  // connection keeps serving.
  auto Server = startServer(/*Workers=*/1);
  TestClient C;
  ASSERT_TRUE(C.dial(Server->port()));
  ASSERT_TRUE(C.send("{\"id\":\"f\",\"file\":\"examples/fm/fig11.fm\"}\n" +
                     requestLine("s", seededSource(0, 1, 8)) + "\n"));
  C.finishSending();
  std::vector<std::string> Lines = splitLines(C.recvAll());
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_NE(Lines[0].find("\"id\":\"f\",\"result\":{\"ok\":false"),
            std::string::npos)
      << Lines[0];
  EXPECT_NE(Lines[0].find("not served over a socket"), std::string::npos);
  EXPECT_NE(Lines[1].find("\"id\":\"s\",\"result\":{\"ok\":true"),
            std::string::npos)
      << Lines[1];
  Server->requestDrain();
  Server->join();
}

TEST(NetFramingTest, OversizedFrameAnsweredAndClosed) {
  NetConfig NC;
  NC.MaxFrameBytes = 64;
  auto Server = startServer(/*Workers=*/1, NC);
  TestClient C;
  ASSERT_TRUE(C.dial(Server->port()));
  // 200 bytes, no newline in sight: resynchronization is impossible.
  ASSERT_TRUE(C.send(std::string(200, 'a')));

  std::vector<std::string> Lines = splitLines(C.recvAll());
  ASSERT_EQ(Lines.size(), 1u);
  EXPECT_NE(Lines[0].find("\"error\":\"bad_frame\""), std::string::npos);
  EXPECT_NE(Lines[0].find("\"reason\":\"oversized\""), std::string::npos);
  EXPECT_EQ(Server->metrics().Oversized.load(), 1u);
  Server->requestDrain();
  Server->join();
}

TEST(NetFramingTest, TruncatedFrameAnsweredOnEof) {
  auto Server = startServer(/*Workers=*/1);
  TestClient C;
  ASSERT_TRUE(C.dial(Server->port()));
  ASSERT_TRUE(C.send("{\"id\":\"never-finished"));
  C.finishSending(); // EOF mid-frame.

  std::vector<std::string> Lines = splitLines(C.recvAll());
  ASSERT_EQ(Lines.size(), 1u);
  EXPECT_NE(Lines[0].find("\"error\":\"bad_frame\""), std::string::npos);
  EXPECT_NE(Lines[0].find("\"reason\":\"truncated\""), std::string::npos);
  EXPECT_EQ(Server->metrics().Truncated.load(), 1u);
  Server->requestDrain();
  Server->join();
}

TEST(NetFramingTest, InterleavedGoodAndBadFrames) {
  // A garbage line between two valid requests: both valid ones still
  // compile, the garbage gets its own error, the connection survives.
  auto Server = startServer(/*Workers=*/2);
  std::string Good = seededSource(2, 5, 8);
  TestClient C;
  ASSERT_TRUE(C.dial(Server->port()));
  ASSERT_TRUE(C.send(requestLine("g1", Good) + "\n!!!garbage!!!\n" +
                     requestLine("g2", Good) + "\n"));
  C.finishSending();

  std::vector<std::string> Lines = splitLines(C.recvAll());
  ASSERT_EQ(Lines.size(), 3u);
  EXPECT_NE(Lines[0].find("\"id\":\"g1\""), std::string::npos);
  EXPECT_NE(Lines[1].find("malformed JSON"), std::string::npos);
  EXPECT_NE(Lines[2].find("\"id\":\"g2\""), std::string::npos);
  // Identical sources, identical payloads: the second was a cache hit.
  EXPECT_EQ(Lines[0].substr(Lines[0].find(",\"result\"")),
            Lines[2].substr(Lines[2].find(",\"result\"")));
  Server->requestDrain();
  Server->join();
}

//===----------------------------------------------------------------------===//
// /metrics endpoint
//===----------------------------------------------------------------------===//

TEST(NetMetricsTest, ServesPrometheusText) {
  auto Server = startServer(/*Workers=*/2);

  // Generate some traffic first.
  TestClient Traffic;
  ASSERT_TRUE(Traffic.dial(Server->port()));
  ASSERT_TRUE(
      Traffic.send(requestLine("m1", seededSource(0, 7, 8)) + "\n"));
  Traffic.finishSending();
  EXPECT_EQ(splitLines(Traffic.recvAll()).size(), 1u);

  TestClient C;
  ASSERT_TRUE(C.dial(Server->port()));
  ASSERT_TRUE(C.send("GET /metrics HTTP/1.0\r\n\r\n"));
  std::string Response = C.recvAll();
  EXPECT_NE(Response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(Response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(Response.find("# TYPE gntd_frames_total counter"),
            std::string::npos);
  EXPECT_NE(Response.find("gntd_frames_total 1"), std::string::npos);
  EXPECT_NE(Response.find("gntd_jobs_total 1"), std::string::npos);
  EXPECT_NE(Response.find("gntd_job_latency_microseconds_count"),
            std::string::npos);
  EXPECT_NE(Response.find("quantile=\"0.999\""), std::string::npos);

  TestClient NotFound;
  ASSERT_TRUE(NotFound.dial(Server->port()));
  ASSERT_TRUE(NotFound.send("GET /nope HTTP/1.0\r\n\r\n"));
  EXPECT_NE(NotFound.recvAll().find("404 Not Found"), std::string::npos);

  Server->requestDrain();
  Server->join();
}

//===----------------------------------------------------------------------===//
// Net primitives
//===----------------------------------------------------------------------===//

TEST(FrameExtractorTest, ReassemblesSplitFrames) {
  FrameExtractor E(/*MaxFrameBytes=*/64);
  std::string Line;
  E.append("{\"a\":", 5);
  EXPECT_EQ(E.next(Line), FrameExtractor::Status::NeedMore);
  E.append("1}\r\n{\"b\":2}\n", 12);
  ASSERT_EQ(E.next(Line), FrameExtractor::Status::Frame);
  EXPECT_EQ(Line, "{\"a\":1}"); // CR stripped.
  ASSERT_EQ(E.next(Line), FrameExtractor::Status::Frame);
  EXPECT_EQ(Line, "{\"b\":2}");
  EXPECT_EQ(E.next(Line), FrameExtractor::Status::NeedMore);
  EXPECT_FALSE(E.hasPartial());
}

TEST(FrameExtractorTest, OversizedWithoutNewline) {
  FrameExtractor E(/*MaxFrameBytes=*/8);
  std::string Line;
  std::string Big(9, 'x');
  E.append(Big.data(), Big.size());
  EXPECT_EQ(E.next(Line), FrameExtractor::Status::Oversized);
}

TEST(FrameExtractorTest, StartsWithIsPrefixOfAvailable) {
  FrameExtractor E(64);
  E.append("GE", 2);
  EXPECT_TRUE(E.startsWith("GET ")); // Prefix of what we have so far.
  E.append("T /metrics", 10);
  EXPECT_TRUE(E.startsWith("GET "));
  FrameExtractor F(64);
  F.append("{\"id\"", 5);
  EXPECT_FALSE(F.startsWith("GET "));
}

TEST(TokenBucketTest, BurstThenRefill) {
  auto T0 = TokenBucket::Clock::now();
  TokenBucket B(/*RatePerSec=*/10, /*Burst=*/2, T0);
  EXPECT_TRUE(B.tryTake(T0)); // Starts full.
  EXPECT_TRUE(B.tryTake(T0));
  EXPECT_FALSE(B.tryTake(T0)); // Burst exhausted.
  // 100ms at 10/s refills exactly one token.
  auto T1 = T0 + std::chrono::milliseconds(100);
  EXPECT_TRUE(B.tryTake(T1));
  EXPECT_FALSE(B.tryTake(T1));
  // A long idle period caps at the burst, not the elapsed total.
  auto T2 = T1 + std::chrono::hours(1);
  EXPECT_TRUE(B.tryTake(T2));
  EXPECT_TRUE(B.tryTake(T2));
  EXPECT_FALSE(B.tryTake(T2));
}

TEST(AdmissionQueueTest, FairRoundRobinAcrossTenants) {
  AdmissionQueue Q(/*MaxPending=*/16);
  auto Enqueue = [&](const std::string &Tenant, std::uint64_t Seq) {
    NetJob Job;
    Job.Conn = 1;
    Job.Seq = Seq;
    Job.Req.Tenant = Tenant;
    return Q.tryEnqueue(std::move(Job));
  };
  // alice floods first; bob submits two afterwards.
  for (std::uint64_t I = 0; I < 4; ++I)
    ASSERT_TRUE(Enqueue("alice", I));
  ASSERT_TRUE(Enqueue("bob", 100));
  ASSERT_TRUE(Enqueue("bob", 101));

  // Fair dequeue alternates tenants instead of draining alice first.
  std::vector<std::string> Tenants;
  NetJob Job;
  while (Q.dequeue(Job))
    Tenants.push_back(Job.Req.Tenant);
  ASSERT_EQ(Tenants.size(), 6u);
  EXPECT_EQ(Tenants[0], "alice");
  EXPECT_EQ(Tenants[1], "bob");
  EXPECT_EQ(Tenants[2], "alice");
  EXPECT_EQ(Tenants[3], "bob");
  EXPECT_EQ(Tenants[4], "alice");
  EXPECT_EQ(Tenants[5], "alice");
}

TEST(AdmissionQueueTest, BoundedCapacity) {
  AdmissionQueue Q(2);
  NetJob Job;
  Job.Conn = 1;
  EXPECT_TRUE(Q.tryEnqueue(NetJob(Job)));
  EXPECT_TRUE(Q.tryEnqueue(NetJob(Job)));
  EXPECT_FALSE(Q.tryEnqueue(NetJob(Job))); // Full: caller sheds.
  EXPECT_EQ(Q.depth(), 2u);
  NetJob Out;
  EXPECT_TRUE(Q.dequeue(Out));
  EXPECT_TRUE(Q.tryEnqueue(NetJob(Job))); // Slot freed.
}

} // namespace
