//===- fuzz/NetOracle.cpp - Socket-path differential oracle -----------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/NetOracle.h"

#include "gen/RandomProgram.h"
#include "ir/AstPrinter.h"
#include "net/NetServer.h"
#include "service/BatchServer.h"
#include "support/Json.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>
#include <sstream>

using namespace gnt;
using namespace gnt::fuzz;
using namespace gnt::net;

namespace {

/// Pipeline option variants each program replays under; rendered into
/// the request's "options" object so the socket and stdio paths parse
/// the same bytes.
const char *const OptionVariants[] = {
    "",                  // Defaults (comm mode).
    "{\"mode\":\"pre\"}" // Expression PRE.
};
constexpr unsigned NumVariants =
    sizeof(OptionVariants) / sizeof(OptionVariants[0]);

std::string requestLine(const std::string &Id, const std::string &Source,
                        const char *Options) {
  JsonWriter W;
  W.beginObject();
  W.key("id").value(Id);
  W.key("source").value(Source);
  if (Options[0])
    W.key("options").raw(Options);
  W.endObject();
  return W.str();
}

std::vector<std::string> collectSources(const NetOracleOptions &Opts) {
  std::vector<std::string> Sources;
  if (!Opts.CorpusDir.empty()) {
    std::vector<std::filesystem::path> Files;
    std::error_code Ec;
    for (const auto &E :
         std::filesystem::directory_iterator(Opts.CorpusDir, Ec))
      if (E.path().extension() == ".fm")
        Files.push_back(E.path());
    std::sort(Files.begin(), Files.end()); // Directory order is not ours.
    for (const auto &File : Files) {
      if (Sources.size() >= Opts.MaxPrograms)
        break;
      std::ifstream In(File);
      if (!In)
        continue;
      std::ostringstream Buf;
      Buf << In.rdbuf();
      Sources.push_back(Buf.str());
    }
  }
  // Top up with generated programs across all structure buckets.
  unsigned Seed = Opts.Seed;
  while (Sources.size() < Opts.MaxPrograms) {
    GenConfig GC = genConfigForBucket(
        static_cast<unsigned>(Sources.size()) % NumGenBuckets, Seed++);
    Sources.push_back(AstPrinter().print(generateRandomProgram(GC)));
  }
  return Sources;
}

int dialLoopback(std::uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  timeval Tv{60, 0};
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  return Fd;
}

bool sendAll(int Fd, const std::string &Data) {
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

std::vector<std::string> recvLines(int Fd) {
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

/// First byte offset where \p A and \p B differ, rendered for humans.
std::string diffDetail(const std::string &A, const std::string &B) {
  std::size_t N = std::min(A.size(), B.size());
  std::size_t At = 0;
  while (At < N && A[At] == B[At])
    ++At;
  std::ostringstream Out;
  Out << "first divergence at byte " << At << ": socket `"
      << A.substr(At, 32) << "` vs serial `" << B.substr(At, 32) << "`";
  return Out.str();
}

} // namespace

NetOracleReport gnt::fuzz::runNetOracle(const NetOracleOptions &Opts) {
  NetOracleReport Report;

  std::vector<std::string> Sources = collectSources(Opts);
  Report.Programs = Sources.size();

  // Every (program, option-variant) pair becomes one request line.
  std::vector<std::string> Lines;
  for (unsigned P = 0; P < Sources.size(); ++P)
    for (unsigned V = 0; V < NumVariants; ++V)
      Lines.push_back(requestLine("p" + std::to_string(P) + "v" +
                                      std::to_string(V),
                                  Sources[P], OptionVariants[V]));

  // The serial stdio reference.
  ServiceConfig SerialConfig;
  SerialConfig.Workers = 0;
  std::vector<std::string> Reference = BatchServer(SerialConfig).run(Lines);

  // The live socket server.
  ServiceConfig SC;
  SC.Workers = Opts.Workers;
  NetConfig NC;
  NC.Port = 0;
  NetServer Server(SC, NC);
  std::string Error;
  if (!Server.start(Error)) {
    Report.Findings.push_back({"net.start", Error, ""});
    return Report;
  }

  // Seed-shuffled arrival, scattered over the connections.
  std::vector<unsigned> Order(Lines.size());
  std::iota(Order.begin(), Order.end(), 0u);
  std::mt19937 Rng(Opts.Seed * 2654435761u + 1);
  std::shuffle(Order.begin(), Order.end(), Rng);

  unsigned NumConns = Opts.Connections ? Opts.Connections : 1;
  std::vector<int> Fds(NumConns, -1);
  std::vector<std::vector<unsigned>> PerConn(NumConns);
  for (unsigned C = 0; C < NumConns; ++C) {
    Fds[C] = dialLoopback(Server.port());
    if (Fds[C] < 0) {
      Report.Findings.push_back({"net.connect", std::strerror(errno), ""});
      for (int Fd : Fds)
        if (Fd >= 0)
          ::close(Fd);
      Server.requestDrain();
      Server.join();
      return Report;
    }
  }
  std::vector<std::string> Batches(NumConns);
  for (unsigned K = 0; K < Order.size(); ++K) {
    Batches[K % NumConns] += Lines[Order[K]];
    Batches[K % NumConns] += '\n';
    PerConn[K % NumConns].push_back(Order[K]);
  }
  for (unsigned C = 0; C < NumConns; ++C) {
    if (!sendAll(Fds[C], Batches[C]))
      Report.Findings.push_back({"net.send", std::strerror(errno), ""});
    ::shutdown(Fds[C], SHUT_WR);
  }

  for (unsigned C = 0; C < NumConns; ++C) {
    std::vector<std::string> Got = recvLines(Fds[C]);
    ::close(Fds[C]);
    if (Got.size() != PerConn[C].size()) {
      std::ostringstream Out;
      Out << "connection " << C << " got " << Got.size()
          << " responses for " << PerConn[C].size() << " requests";
      Report.Findings.push_back({"net.missing-response", Out.str(), ""});
      continue;
    }
    for (unsigned K = 0; K < Got.size(); ++K) {
      const std::string &Want = Reference[PerConn[C][K]];
      ++Report.Requests;
      if (Got[K] != Want)
        Report.Findings.push_back({"net.payload-diff",
                                   diffDetail(Got[K], Want),
                                   Lines[PerConn[C][K]]});
    }
  }

  Server.requestDrain();
  Server.join();

  if (Opts.Verbose)
    std::fprintf(stderr,
                 "net-oracle: %llu requests over %u connections, "
                 "%zu findings\n",
                 Report.Requests, NumConns, Report.Findings.size());
  return Report;
}
