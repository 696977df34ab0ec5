//===- net/NetServer.h - Epoll compilation service -------------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving subsystem that promotes gntd from a stdin batch tool to
/// a network service. One non-blocking epoll event loop owns every
/// socket: it multi-accepts connections, reads newline-framed JSON
/// requests incrementally into per-connection buffers, and feeds
/// decoded jobs through the load-discipline stack — per-tenant
/// token-bucket quotas, then a bounded admission queue with fair
/// (tenant round-robin) dequeue — into the existing worker ThreadPool.
/// Workers execute through BatchServer::serve (LRU + persistent disk
/// cache + pipeline) and post completions back to the loop over an
/// eventfd; the loop writes each connection's responses strictly in
/// that connection's request order, so any worker count and any
/// completion interleaving produce the same bytes on the wire.
///
/// Overload never stalls or kills a connection: a full queue, an
/// exhausted quota, or a draining server answers immediately with a
/// structured `overloaded` payload ({"error":"overloaded","reason":...})
/// and keeps serving. Framing failures (oversized or truncated frames,
/// non-JSON garbage) get structured errors too — the connection is
/// closed only when resynchronization is impossible.
///
/// The same port speaks just enough HTTP to serve Prometheus:
/// `GET /metrics` returns the text exposition of the metric table
/// (service/Metrics.h): the socket counters kept here plus every
/// service counter and latency summary.
///
/// requestDrain() (async-signal-safe) starts a graceful shutdown: the
/// listener closes, queued and in-flight jobs finish, response buffers
/// flush, then the loop exits; join() waits for that and flushes the
/// persistent cache index.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_NET_NETSERVER_H
#define GNT_NET_NETSERVER_H

#include "net/AdmissionQueue.h"
#include "net/TokenBucket.h"
#include "service/BatchServer.h"
#include "service/Metrics.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace gnt::net {

/// Most per-tenant quota buckets a server keeps. Tenant names are chosen
/// by clients, so the table must not grow with them; see
/// NetServer::quotaBucket().
inline constexpr std::size_t MaxTenantBuckets = 1024;

/// Socket-layer configuration; service execution (workers, caches) is
/// configured through the embedded ServiceConfig.
struct NetConfig {
  std::string Host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port, read back with port().
  std::uint16_t Port = 0;
  /// Admission queue bound: jobs admitted but not yet started. Requests
  /// beyond it are shed with reason "queue_full".
  unsigned MaxPending = 256;
  /// Largest acceptable request frame; longer unterminated input is
  /// answered with a structured error and the connection is closed.
  std::size_t MaxFrameBytes = 1 << 20;
  /// Per-tenant sustained admission rate in requests/second; 0 turns
  /// quota enforcement off entirely.
  double QuotaRps = 0;
  /// Per-tenant burst allowance (token bucket capacity).
  double QuotaBurst = 32;
  /// Hard cap on graceful drain; connections still unflushed after this
  /// are closed anyway so shutdown cannot hang on a dead client.
  unsigned DrainTimeoutMs = 10000;
};

class NetServer {
public:
  NetServer(ServiceConfig SC, NetConfig NC);
  ~NetServer();

  NetServer(const NetServer &) = delete;
  NetServer &operator=(const NetServer &) = delete;

  /// Binds, listens, and spawns the event loop and worker pool. False
  /// with \p Error set on any socket-layer failure.
  bool start(std::string &Error);

  /// The bound port (useful with Port = 0).
  std::uint16_t port() const { return BoundPort; }

  /// Begins graceful drain. Async-signal-safe once start() returned.
  void requestDrain();

  /// Waits for the drain to complete and releases every resource;
  /// flushes the persistent cache index. Idempotent.
  void join();

  BatchServer &service() { return Service; }
  const NetMetrics &metrics() const { return Net; }

  /// Every counter of this server and its service (GET /metrics
  /// serves its Prometheus rendering).
  MetricTable metricTable() const;

private:
  struct Conn;
  struct Completion {
    std::uint64_t ConnId;
    std::uint64_t Seq;
    std::string Response;
  };

  void eventLoop();
  void acceptReady();
  void handleReadable(Conn &C);
  void handleWritable(Conn &C);
  void processBuffered(Conn &C);
  void handleFrame(Conn &C, std::string Line);
  void handleHttp(Conn &C);
  /// Queues \p Line as the response for slot \p Seq of \p C.
  void routeResponse(Conn &C, std::uint64_t Seq, std::string Line);
  void flushReady(Conn &C);
  void tryWrite(Conn &C);
  void maybeFinish(Conn &C);
  void updateInterest(Conn &C);
  /// Marks \p C for closing; the loop reaps marked connections at the
  /// end of the iteration (so handlers never free state under
  /// themselves).
  void kill(Conn &C);
  void reapDead();
  void drainOutbox();
  bool drainComplete();
  void workerRun();
  void wakeLoop();
  /// The quota bucket charged for \p Tenant. A new name gets its own
  /// bucket while the table holds fewer than MaxTenantBuckets; when it
  /// is full, buckets that have refilled to their burst are dropped
  /// first, and if none can be, the name is charged to the shared
  /// overflow bucket.
  TokenBucket &quotaBucket(const std::string &Tenant,
                           TokenBucket::Clock::time_point Now);

  NetConfig Config;
  BatchServer Service;
  AdmissionQueue Queue;
  NetMetrics Net;

  std::unique_ptr<ThreadPool> Pool;
  std::thread Loop;

  int ListenFd = -1;
  int EpollFd = -1;
  int WakeFd = -1;
  std::uint16_t BoundPort = 0;
  bool Started = false;
  bool Joined = false;

  std::atomic<bool> Draining{false};
  /// Jobs admitted whose completion has not been routed yet.
  std::atomic<std::uint64_t> InFlight{0};

  std::mutex OutboxM;
  std::vector<Completion> Outbox;

  // Event-loop-thread state.
  std::map<std::uint64_t, std::unique_ptr<Conn>> Conns;
  std::uint64_t NextConnId = 2; ///< 0 = listener tag, 1 = wake tag.
  std::vector<std::uint64_t> DeadConns;
  std::map<std::string, TokenBucket> Buckets;
  std::optional<TokenBucket> OverflowBucket;
};

/// Structured shed payload: {"ok":false,"error":"overloaded",
/// "reason":<reason>,...} plus one engine diagnostic with \p Detail.
std::string renderShedPayload(const std::string &Reason,
                              const std::string &Detail);

/// Structured framing-failure payload with "error":"bad_frame".
std::string renderBadFramePayload(const std::string &Reason,
                                  const std::string &Detail);

} // namespace gnt::net

#endif // GNT_NET_NETSERVER_H
