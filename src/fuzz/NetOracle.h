//===- fuzz/NetOracle.h - Socket-path differential oracle -------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The network oracle layer (`gnt-fuzz --net`): replays corpus programs
/// through a live in-process NetServer socket — real connections, real
/// framing, real admission and worker scheduling — and diffs every
/// response line byte-for-byte against the serial stdio engine
/// (BatchServer with Workers=0) answering the same requests. Each
/// program is replayed under two pipeline option variants (comm and
/// PRE), and arrival order is
/// shuffled per seed across several connections, so the oracle
/// continuously re-proves the serving determinism bar: nothing between
/// the wire and the pipeline may leak scheduling, caching, or framing
/// state into payloads. Any byte of divergence is a finding with the
/// request line attached as the repro.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_FUZZ_NETORACLE_H
#define GNT_FUZZ_NETORACLE_H

#include <string>
#include <vector>

namespace gnt::fuzz {

struct NetOracleOptions {
  unsigned Seed = 1;
  /// Programs replayed; generated across the structure buckets when no
  /// corpus directory is given.
  unsigned MaxPrograms = 48;
  /// Optional directory of *.fm seed programs.
  std::string CorpusDir;
  unsigned Workers = 4;
  unsigned Connections = 4;
  bool Verbose = false;
};

struct NetOracleFinding {
  std::string Kind;    ///< "net.payload-diff", "net.missing-response", ...
  std::string Detail;  ///< What diverged, first differing bytes.
  std::string Request; ///< The request line that exposed it.
};

struct NetOracleReport {
  unsigned long long Requests = 0;
  unsigned long long Programs = 0;
  std::vector<NetOracleFinding> Findings;
  bool clean() const { return Findings.empty(); }
};

/// Runs the socket-vs-serial differential. Deterministic in Opts.Seed
/// (response payloads are order-independent; only arrival order and the
/// generated programs derive from the seed).
NetOracleReport runNetOracle(const NetOracleOptions &Opts = {});

} // namespace gnt::fuzz

#endif // GNT_FUZZ_NETORACLE_H
