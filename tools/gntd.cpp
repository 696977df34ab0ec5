//===- tools/gntd.cpp - GIVE-N-TAKE compilation service ---------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// gntd: compile FMini programs through the placement pipeline as a
// service. Two modes share one request schema (JSON object per line,
// see service/BatchServer.h):
//
//   gntd [--port N]            socket mode (default): an epoll server
//                              speaks newline-framed JSON on the port,
//                              serves Prometheus text on GET /metrics,
//                              sheds load with structured `overloaded`
//                              errors, and drains gracefully on
//                              SIGTERM/SIGINT.
//   gntd --stdio [FILE]        batch mode: requests from FILE or stdin,
//                              responses on stdout in request order —
//                              byte-compatible with the historical
//                              stdin/stdout contract.
//
// Both modes schedule jobs on a worker pool, serve repeats from a
// content-hash LRU, and (with --disk-cache) layer a persistent
// content-addressed result cache underneath that survives restarts.
// On shutdown the metric table (service/Metrics.h) is printed on
// stderr in the same Prometheus exposition GET /metrics serves and,
// with --metrics-json, written as one flat JSON object of the same
// series.
//
//===----------------------------------------------------------------------===//

#include "net/NetServer.h"
#include "service/BatchServer.h"

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

using namespace gnt;
using namespace gnt::net;

namespace {

struct Options {
  bool Stdio = false;
  std::string File = "-";
  unsigned Workers = 0; // 0: pick hardware concurrency.
  bool WorkersSet = false;
  unsigned CacheSize = 1024;
  std::string MetricsJson;
  bool Quiet = false;

  // Socket mode.
  std::string Host = "127.0.0.1";
  unsigned Port = 7411;
  unsigned MaxPending = 256;
  unsigned MaxFrameBytes = 1u << 20;
  double QuotaRps = 0;
  double QuotaBurst = 32;
  unsigned DrainTimeoutMs = 10000;

  // Persistent cache (both modes).
  std::string DiskCache;
  unsigned DiskCacheEntries = 4096;
  std::uint64_t DiskCacheMemoBytes = 64ull << 20;
};

void usage(std::FILE *To) {
  std::fprintf(
      To,
      "usage: gntd [options]                    socket service (default)\n"
      "       gntd --stdio [REQUESTS.jsonl]     batch mode (`-`: stdin)\n"
      "\n"
      "Compilation service: one JSON request per line, one JSON response\n"
      "per line, per-connection (socket) or global (batch) request order.\n"
      "\n"
      "Common:\n"
      "  --workers N          worker threads (default: hardware\n"
      "                       concurrency; 0 compiles serially)\n"
      "  --cache-size N       in-memory result cache entries (default\n"
      "                       1024; 0 disables caching)\n"
      "  --disk-cache DIR     persistent result cache directory; entries\n"
      "                       survive restarts (default: off)\n"
      "  --disk-cache-entries N  persistent cache capacity (default 4096)\n"
      "  --disk-cache-memo-bytes N  byte budget for persisted solve\n"
      "                       memos, evicted oldest-first (default\n"
      "                       67108864; 0 = uncapped)\n"
      "  --metrics-json F     write the metrics as one flat JSON object\n"
      "                       {\"<series>\": value} to file F (`-` appends\n"
      "                       to stdout after the responses)\n"
      "  --quiet              suppress the shutdown metrics (Prometheus\n"
      "                       text) on stderr\n"
      "  --help               print this help\n"
      "\n"
      "Socket mode:\n"
      "  --host A             bind address (default 127.0.0.1)\n"
      "  --port N             TCP port (default 7411; 0 picks one and\n"
      "                       prints it)\n"
      "  --max-pending N      admission queue bound; excess requests are\n"
      "                       shed with a structured `overloaded` error\n"
      "                       (default 256)\n"
      "  --max-frame-bytes N  largest acceptable request frame (default\n"
      "                       1048576)\n"
      "  --quota-rps R        per-tenant admission rate limit in\n"
      "                       requests/second (default 0: off)\n"
      "  --quota-burst B      per-tenant burst allowance (default 32)\n"
      "  --drain-timeout-ms N hard cap on graceful drain (default 10000)\n"
      "\n"
      "GET /metrics on the same port serves Prometheus text exposition.\n"
      "SIGTERM/SIGINT drain gracefully: in-flight and queued jobs finish,\n"
      "buffers flush, the persistent cache index is written, metrics\n"
      "print on stderr.\n");
}

bool parseUnsigned(const char *Arg, const char *Flag, unsigned &Out,
                   unsigned Max = 1'000'000) {
  char *End = nullptr;
  long long V = std::strtoll(Arg, &End, 10);
  if (End == Arg || *End != '\0' || V < 0 || V > Max) {
    std::fprintf(stderr, "gntd: %s needs an integer in [0, %u], got %s\n",
                 Flag, Max, Arg);
    return false;
  }
  Out = static_cast<unsigned>(V);
  return true;
}

/// 64-bit variant for byte budgets, which can legitimately exceed the
/// 32-bit flag ceiling.
bool parseUnsigned64(const char *Arg, const char *Flag, std::uint64_t &Out,
                     std::uint64_t Max = std::uint64_t{1} << 40) {
  char *End = nullptr;
  long long V = std::strtoll(Arg, &End, 10);
  if (End == Arg || *End != '\0' || V < 0 ||
      static_cast<std::uint64_t>(V) > Max) {
    std::fprintf(stderr, "gntd: %s needs an integer in [0, %llu], got %s\n",
                 Flag, static_cast<unsigned long long>(Max), Arg);
    return false;
  }
  Out = static_cast<std::uint64_t>(V);
  return true;
}

bool parseDouble(const char *Arg, const char *Flag, double &Out) {
  char *End = nullptr;
  double V = std::strtod(Arg, &End);
  if (End == Arg || *End != '\0' || V < 0 || V > 1e9) {
    std::fprintf(stderr, "gntd: %s needs a non-negative number, got %s\n",
                 Flag, Arg);
    return false;
  }
  Out = V;
  return true;
}

bool parseArgs(int Argc, char **Argv, Options &O, int &Exit) {
  Exit = 2;
  bool SawFile = false;
  auto Value = [&](int &I, const char *Flag) -> const char * {
    if (++I == Argc) {
      std::fprintf(stderr, "gntd: %s needs a value\n", Flag);
      return nullptr;
    }
    return Argv[I];
  };
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    const char *V = nullptr;
    if (A == "--stdio") {
      O.Stdio = true;
    } else if (A == "--workers") {
      if (!(V = Value(I, "--workers")) ||
          !parseUnsigned(V, "--workers", O.Workers))
        return false;
      O.WorkersSet = true;
    } else if (A == "--cache-size") {
      if (!(V = Value(I, "--cache-size")) ||
          !parseUnsigned(V, "--cache-size", O.CacheSize))
        return false;
    } else if (A == "--disk-cache") {
      if (!(V = Value(I, "--disk-cache")))
        return false;
      O.DiskCache = V;
    } else if (A == "--disk-cache-entries") {
      if (!(V = Value(I, "--disk-cache-entries")) ||
          !parseUnsigned(V, "--disk-cache-entries", O.DiskCacheEntries))
        return false;
    } else if (A == "--disk-cache-memo-bytes") {
      if (!(V = Value(I, "--disk-cache-memo-bytes")) ||
          !parseUnsigned64(V, "--disk-cache-memo-bytes",
                           O.DiskCacheMemoBytes))
        return false;
    } else if (A == "--metrics-json") {
      if (!(V = Value(I, "--metrics-json")))
        return false;
      O.MetricsJson = V;
    } else if (A == "--host") {
      if (!(V = Value(I, "--host")))
        return false;
      O.Host = V;
    } else if (A == "--port") {
      if (!(V = Value(I, "--port")) ||
          !parseUnsigned(V, "--port", O.Port, 65535))
        return false;
    } else if (A == "--max-pending") {
      if (!(V = Value(I, "--max-pending")) ||
          !parseUnsigned(V, "--max-pending", O.MaxPending))
        return false;
    } else if (A == "--max-frame-bytes") {
      if (!(V = Value(I, "--max-frame-bytes")) ||
          !parseUnsigned(V, "--max-frame-bytes", O.MaxFrameBytes,
                         1u << 30))
        return false;
    } else if (A == "--quota-rps") {
      if (!(V = Value(I, "--quota-rps")) ||
          !parseDouble(V, "--quota-rps", O.QuotaRps))
        return false;
    } else if (A == "--quota-burst") {
      if (!(V = Value(I, "--quota-burst")) ||
          !parseDouble(V, "--quota-burst", O.QuotaBurst))
        return false;
    } else if (A == "--drain-timeout-ms") {
      if (!(V = Value(I, "--drain-timeout-ms")) ||
          !parseUnsigned(V, "--drain-timeout-ms", O.DrainTimeoutMs,
                         3'600'000))
        return false;
    } else if (A == "--quiet") {
      O.Quiet = true;
    } else if (A == "--help") {
      usage(stdout);
      Exit = 0;
      return false;
    } else if (!A.empty() && A[0] == '-' && A != "-") {
      std::fprintf(stderr, "gntd: unknown option %s\n", A.c_str());
      return false;
    } else {
      if (SawFile) {
        std::fprintf(stderr, "gntd: more than one input file\n");
        return false;
      }
      // A positional file implies batch mode: the historical CLI
      // (`gntd requests.jsonl`) keeps working unchanged.
      O.File = A;
      O.Stdio = true;
      SawFile = true;
    }
  }
  return true;
}

bool readLines(const std::string &File, std::vector<std::string> &Lines) {
  if (File == "-") {
    std::string Line;
    while (std::getline(std::cin, Line))
      Lines.push_back(Line);
    return true;
  }
  std::ifstream In(File);
  if (!In) {
    std::fprintf(stderr, "gntd: cannot open %s\n", File.c_str());
    return false;
  }
  std::string Line;
  while (std::getline(In, Line))
    Lines.push_back(Line);
  return true;
}

bool writeMetrics(const MetricTable &T, const Options &O) {
  if (!O.Quiet)
    std::fputs(renderPrometheus(T).c_str(), stderr);
  if (O.MetricsJson.empty())
    return true;
  if (O.MetricsJson == "-") {
    std::fputs(renderJson(T).c_str(), stdout);
    std::fputc('\n', stdout);
    return true;
  }
  std::ofstream Out(O.MetricsJson);
  if (!Out) {
    std::fprintf(stderr, "gntd: cannot write %s\n", O.MetricsJson.c_str());
    return false;
  }
  Out << renderJson(T) << "\n";
  return true;
}

// Signal plumbing. Both targets are lock-free atomics / eventfd writes,
// so the handlers are async-signal-safe.
std::atomic<bool> StopFlag{false};
NetServer *SignalServer = nullptr;

void onSignalBatch(int) { StopFlag.store(true, std::memory_order_release); }

void onSignalNet(int) {
  StopFlag.store(true, std::memory_order_release);
  if (SignalServer)
    SignalServer->requestDrain();
}

void installHandlers(void (*Handler)(int)) {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = Handler;
  sigemptyset(&SA.sa_mask);
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);
}

int runBatch(const Options &O, ServiceConfig Config) {
  std::vector<std::string> Lines;
  if (!readLines(O.File, Lines))
    return 1;

  // SIGTERM/SIGINT drain the batch instead of killing it: jobs not yet
  // started answer `cancelled`, finished work is flushed, the disk
  // cache index is written, and the metrics block still prints.
  Config.Stop = &StopFlag;
  installHandlers(onSignalBatch);

  BatchServer Server(Config);
  if (!Server.diskCacheError().empty())
    std::fprintf(stderr, "gntd: disk cache disabled: %s\n",
                 Server.diskCacheError().c_str());

  std::vector<std::string> Responses = Server.run(Lines);
  for (const std::string &R : Responses) {
    std::fputs(R.c_str(), stdout);
    std::fputc('\n', stdout);
  }
  Server.flushDiskCache();

  // Snapshot, not the raw reference: the snapshot carries the stage
  // cache's per-stage hit/miss counters and incremental solver totals.
  if (!writeMetrics(
          metricTable(Server.metricsSnapshot(), nullptr, Server.diskCache()),
          O))
    return 1;
  return 0;
}

int runSocket(const Options &O, ServiceConfig Config) {
  NetConfig NC;
  NC.Host = O.Host;
  NC.Port = static_cast<std::uint16_t>(O.Port);
  NC.MaxPending = O.MaxPending;
  NC.MaxFrameBytes = O.MaxFrameBytes;
  NC.QuotaRps = O.QuotaRps;
  NC.QuotaBurst = O.QuotaBurst;
  NC.DrainTimeoutMs = O.DrainTimeoutMs;

  NetServer Server(std::move(Config), NC);
  std::string Error;
  if (!Server.start(Error)) {
    std::fprintf(stderr, "gntd: %s\n", Error.c_str());
    return 1;
  }
  if (!Server.service().diskCacheError().empty())
    std::fprintf(stderr, "gntd: disk cache disabled: %s\n",
                 Server.service().diskCacheError().c_str());
  std::fprintf(stderr, "gntd: listening on %s:%u (GET /metrics for stats)\n",
               O.Host.c_str(), unsigned(Server.port()));

  SignalServer = &Server;
  installHandlers(onSignalNet);

  // The event loop owns the process from here; wait for a signal to
  // start the drain, then for the drain to finish.
  Server.join();
  SignalServer = nullptr;

  if (!writeMetrics(Server.metricTable(), O))
    return 1;
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  int Exit = 2;
  if (!parseArgs(Argc, Argv, O, Exit)) {
    if (Exit != 0)
      usage(stderr);
    return Exit;
  }
  if (!O.WorkersSet) {
    unsigned HW = std::thread::hardware_concurrency();
    O.Workers = HW ? HW : 1;
  }

  ServiceConfig Config;
  Config.Workers = O.Workers;
  Config.CacheCapacity = O.CacheSize;
  Config.DiskCachePath = O.DiskCache;
  Config.DiskCacheCapacity = O.DiskCacheEntries;
  Config.DiskCacheMemoBytes = O.DiskCacheMemoBytes;

  return O.Stdio ? runBatch(O, std::move(Config))
                 : runSocket(O, std::move(Config));
}
