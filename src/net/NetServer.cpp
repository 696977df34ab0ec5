//===- net/NetServer.cpp - Epoll compilation service ------------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/NetServer.h"

#include "net/Framing.h"
#include "support/Json.h"
#include "support/Support.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

using namespace gnt;
using namespace gnt::net;

//===----------------------------------------------------------------------===//
// Structured error payloads
//===----------------------------------------------------------------------===//

namespace {

std::string taggedErrorPayload(const std::string &Error,
                               const std::string &Reason,
                               const std::string &Detail) {
  DiagnosticSet Diags;
  Diagnostic D;
  D.Severity = DiagSeverity::Error;
  D.Check = CheckId::Engine;
  D.Message = Detail;
  Diags.add(std::move(D));
  JsonWriter W;
  W.beginObject();
  W.key("ok").value(false);
  W.key("error").value(Error);
  W.key("reason").value(Reason);
  W.key("annotated").value(std::string());
  W.key("diagnostics").raw(Diags.renderJson());
  W.endObject();
  return W.str();
}

constexpr std::uint64_t TagListen = 0;
constexpr std::uint64_t TagWake = 1;

} // namespace

std::string gnt::net::renderShedPayload(const std::string &Reason,
                                        const std::string &Detail) {
  return taggedErrorPayload("overloaded", Reason, Detail);
}

std::string gnt::net::renderBadFramePayload(const std::string &Reason,
                                            const std::string &Detail) {
  return taggedErrorPayload("bad_frame", Reason, Detail);
}

//===----------------------------------------------------------------------===//
// Connection state
//===----------------------------------------------------------------------===//

struct NetServer::Conn {
  explicit Conn(std::size_t MaxFrameBytes) : In(MaxFrameBytes) {}

  int Fd = -1;
  std::uint64_t Id = 0;

  FrameExtractor In;
  std::string Out;
  std::size_t OutOff = 0;

  /// Response slot numbering: every frame gets the next Seq; responses
  /// are written strictly in Seq order no matter when workers finish.
  std::uint64_t NextSeq = 0;
  std::uint64_t NextToSend = 0;
  std::map<std::uint64_t, std::string> Ready;
  /// Jobs of this connection sitting in the queue or running.
  unsigned Pending = 0;

  bool WantWrite = false;   ///< EPOLLOUT currently requested.
  bool StopReading = false; ///< EPOLLIN dropped (framing failure, EOF).
  bool Http = false;        ///< Switched to one-shot HTTP service.
  bool PeerEof = false;
  /// Close once every queued response is flushed and nothing is
  /// pending.
  bool CloseAfterDrain = false;
  bool Dead = false; ///< Marked for reap at end of loop iteration.
};

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

NetServer::NetServer(ServiceConfig SC, NetConfig NC)
    : Config(std::move(NC)), Service(std::move(SC)),
      Queue(Config.MaxPending) {}

NetServer::~NetServer() {
  if (Started && !Joined) {
    requestDrain();
    join();
  }
}

bool NetServer::start(std::string &Error) {
  ListenFd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (ListenFd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Config.Port);
  if (::inet_pton(AF_INET, Config.Host.c_str(), &Addr.sin_addr) != 1) {
    Error = "cannot parse host address `" + Config.Host + "`";
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0) {
    Error = "bind " + Config.Host + ":" + itostr(Config.Port) + ": " +
            std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  if (::listen(ListenFd, 512) < 0) {
    Error = std::string("listen: ") + std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  socklen_t Len = sizeof(Addr);
  ::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len);
  BoundPort = ntohs(Addr.sin_port);

  EpollFd = ::epoll_create1(EPOLL_CLOEXEC);
  WakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (EpollFd < 0 || WakeFd < 0) {
    Error = std::string("epoll/eventfd: ") + std::strerror(errno);
    join();
    return false;
  }
  epoll_event Ev{};
  Ev.events = EPOLLIN;
  Ev.data.u64 = TagListen;
  ::epoll_ctl(EpollFd, EPOLL_CTL_ADD, ListenFd, &Ev);
  Ev.data.u64 = TagWake;
  ::epoll_ctl(EpollFd, EPOLL_CTL_ADD, WakeFd, &Ev);

  // At least one worker: with zero the loop itself would compile and
  // every connection would stall behind the slowest job.
  unsigned Workers = Service.config().Workers;
  Pool = std::make_unique<ThreadPool>(Workers ? Workers : 1);

  Started = true;
  Loop = std::thread([this] { eventLoop(); });
  return true;
}

void NetServer::requestDrain() {
  Draining.store(true, std::memory_order_release);
  if (WakeFd >= 0)
    wakeLoop();
}

void NetServer::wakeLoop() {
  std::uint64_t OneU64 = 1;
  // write(2) on an eventfd is async-signal-safe; the counter semantics
  // coalesce any number of wakes into one loop iteration.
  [[maybe_unused]] ssize_t R = ::write(WakeFd, &OneU64, sizeof(OneU64));
}

void NetServer::join() {
  if (Joined)
    return;
  if (Loop.joinable())
    Loop.join();
  // Drain the pool only after the loop is gone: stragglers (drain
  // timeout) may still post completions that write WakeFd.
  Pool.reset();
  if (ListenFd >= 0)
    ::close(ListenFd);
  if (WakeFd >= 0)
    ::close(WakeFd);
  if (EpollFd >= 0)
    ::close(EpollFd);
  ListenFd = WakeFd = EpollFd = -1;
  Service.flushDiskCache();
  Joined = true;
}

MetricTable NetServer::metricTable() const {
  return gnt::metricTable(Service.metricsSnapshot(), &Net,
                          Service.diskCache());
}

//===----------------------------------------------------------------------===//
// Event loop
//===----------------------------------------------------------------------===//

void NetServer::eventLoop() {
  using Clock = std::chrono::steady_clock;
  epoll_event Events[64];
  bool ListenerClosed = false;
  Clock::time_point DrainStart{};

  for (;;) {
    int N = ::epoll_wait(EpollFd, Events, 64, 100);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    for (int I = 0; I < N; ++I) {
      std::uint64_t Tag = Events[I].data.u64;
      if (Tag == TagListen) {
        acceptReady();
        continue;
      }
      if (Tag == TagWake) {
        std::uint64_t Count;
        while (::read(WakeFd, &Count, sizeof(Count)) > 0) {
        }
        continue;
      }
      auto It = Conns.find(Tag);
      if (It == Conns.end())
        continue; // Closed earlier in this batch.
      Conn &C = *It->second;
      if (Events[I].events & (EPOLLERR | EPOLLHUP)) {
        // Peer reset: pending work for this connection completes and is
        // discarded at routing time.
        kill(C);
        continue;
      }
      if (Events[I].events & EPOLLIN)
        handleReadable(C);
      if (Events[I].events & EPOLLOUT)
        handleWritable(C);
    }

    drainOutbox();
    reapDead();

    if (Draining.load(std::memory_order_acquire)) {
      if (!ListenerClosed) {
        // Stop accepting; established connections keep draining.
        ::epoll_ctl(EpollFd, EPOLL_CTL_DEL, ListenFd, nullptr);
        ListenerClosed = true;
        DrainStart = Clock::now();
      }
      bool TimedOut =
          Clock::now() - DrainStart >
          std::chrono::milliseconds(Config.DrainTimeoutMs);
      if (drainComplete() || TimedOut)
        break;
    }
  }

  // Teardown: every remaining connection closes (flushed or not — the
  // drain-complete check above gave them their chance).
  for (auto &[Id, C] : Conns) {
    ::close(C->Fd);
    Net.ConnectionsClosed.fetch_add(1, std::memory_order_relaxed);
    Net.ConnectionsActive.fetch_sub(1, std::memory_order_relaxed);
  }
  Conns.clear();
}

void NetServer::acceptReady() {
  for (;;) {
    int Fd = ::accept4(ListenFd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      return; // EAGAIN or transient accept failure: try again later.
    }
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    auto C = std::make_unique<Conn>(Config.MaxFrameBytes);
    C->Fd = Fd;
    C->Id = NextConnId++;
    epoll_event Ev{};
    Ev.events = EPOLLIN;
    Ev.data.u64 = C->Id;
    ::epoll_ctl(EpollFd, EPOLL_CTL_ADD, Fd, &Ev);
    Net.ConnectionsAccepted.fetch_add(1, std::memory_order_relaxed);
    Net.ConnectionsActive.fetch_add(1, std::memory_order_relaxed);
    Conns[C->Id] = std::move(C);
  }
}

void NetServer::kill(Conn &C) {
  if (C.Dead)
    return;
  C.Dead = true;
  DeadConns.push_back(C.Id);
}

void NetServer::reapDead() {
  for (std::uint64_t Id : DeadConns) {
    auto It = Conns.find(Id);
    if (It == Conns.end())
      continue;
    ::epoll_ctl(EpollFd, EPOLL_CTL_DEL, It->second->Fd, nullptr);
    ::close(It->second->Fd);
    Conns.erase(It);
    Net.ConnectionsClosed.fetch_add(1, std::memory_order_relaxed);
    Net.ConnectionsActive.fetch_sub(1, std::memory_order_relaxed);
  }
  DeadConns.clear();
}

void NetServer::updateInterest(Conn &C) {
  epoll_event Ev{};
  Ev.events = (C.StopReading ? 0u : unsigned(EPOLLIN)) |
              (C.WantWrite ? unsigned(EPOLLOUT) : 0u);
  Ev.data.u64 = C.Id;
  ::epoll_ctl(EpollFd, EPOLL_CTL_MOD, C.Fd, &Ev);
}

//===----------------------------------------------------------------------===//
// Reading and framing
//===----------------------------------------------------------------------===//

void NetServer::handleReadable(Conn &C) {
  if (C.Dead || C.StopReading)
    return;
  char Buf[64 * 1024];
  for (;;) {
    ssize_t R = ::read(C.Fd, Buf, sizeof(Buf));
    if (R > 0) {
      C.In.append(Buf, static_cast<std::size_t>(R));
      continue;
    }
    if (R == 0) {
      C.PeerEof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      break;
    if (errno == EINTR)
      continue;
    kill(C);
    return;
  }
  processBuffered(C);
}

void NetServer::processBuffered(Conn &C) {
  if (C.Dead)
    return;

  // Sniff HTTP before committing to JSON framing: "GET " can only be a
  // metrics probe (a JSON-lines request always starts with '{').
  if (!C.Http && C.In.hasPartial() && C.In.startsWith("GET ")) {
    if (C.In.buffered() >= 4)
      C.Http = true;
    else if (!C.PeerEof)
      return; // "G", "GE", "GET": wait for the decisive byte.
  }
  if (C.Http) {
    handleHttp(C);
    return;
  }

  std::string Line;
  while (!C.StopReading) {
    FrameExtractor::Status S = C.In.next(Line);
    if (S == FrameExtractor::Status::Frame) {
      handleFrame(C, std::move(Line));
      if (C.Dead)
        return;
      continue;
    }
    if (S == FrameExtractor::Status::Oversized) {
      // No way to find the next frame boundary in an over-limit
      // stream: answer once, stop reading, close after flush.
      Net.Oversized.fetch_add(1, std::memory_order_relaxed);
      std::uint64_t Seq = C.NextSeq++;
      routeResponse(
          C, Seq,
          renderResponse(
              "c" + itostr(static_cast<long long>(C.Id)) + "-" +
                  itostr(static_cast<long long>(Seq + 1)),
              renderBadFramePayload(
                  "oversized",
                  "frame exceeds the " +
                      itostr(static_cast<long long>(Config.MaxFrameBytes)) +
                      "-byte limit; closing connection")));
      C.StopReading = true;
      C.CloseAfterDrain = true;
      updateInterest(C);
      maybeFinish(C);
      break;
    }
    break; // NeedMore.
  }

  if (C.PeerEof && !C.Dead && !C.StopReading) {
    if (C.In.hasPartial()) {
      // EOF mid-frame: the final request can never complete. Answer it
      // (the peer may have only shut down its write side) and close.
      Net.Truncated.fetch_add(1, std::memory_order_relaxed);
      std::uint64_t Seq = C.NextSeq++;
      routeResponse(
          C, Seq,
          renderResponse("c" + itostr(static_cast<long long>(C.Id)) + "-" +
                             itostr(static_cast<long long>(Seq + 1)),
                         renderBadFramePayload(
                             "truncated",
                             "connection ended inside an unterminated "
                             "frame of " +
                                 itostr(static_cast<long long>(
                                     C.In.buffered())) +
                                 " bytes")));
    }
    C.StopReading = true;
    C.CloseAfterDrain = true;
    updateInterest(C);
    maybeFinish(C);
  }
}

TokenBucket &NetServer::quotaBucket(const std::string &Tenant,
                                    TokenBucket::Clock::time_point Now) {
  auto It = Buckets.find(Tenant);
  if (It != Buckets.end())
    return It->second;
  if (Buckets.size() >= MaxTenantBuckets)
    for (auto I = Buckets.begin(); I != Buckets.end();)
      I = I->second.isFull(Now) ? Buckets.erase(I) : std::next(I);
  if (Buckets.size() < MaxTenantBuckets)
    return Buckets
        .try_emplace(Tenant, Config.QuotaRps, Config.QuotaBurst, Now)
        .first->second;
  if (!OverflowBucket)
    OverflowBucket.emplace(Config.QuotaRps, Config.QuotaBurst, Now);
  return *OverflowBucket;
}

void NetServer::handleFrame(Conn &C, std::string Line) {
  // Blank lines are skipped exactly like the stdio batch reader.
  if (Line.find_first_not_of(" \t\r\n") == std::string::npos)
    return;
  Net.Frames.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t Seq = C.NextSeq++;
  std::string DefaultId = "c" + itostr(static_cast<long long>(C.Id)) + "-" +
                          itostr(static_cast<long long>(Seq + 1));

  ServiceRequest Req;
  std::string Error;
  if (!parseServiceRequest(Line, DefaultId, Req, Error)) {
    // Same payload bytes a stdio batch would produce for this line.
    Net.Malformed.fetch_add(1, std::memory_order_relaxed);
    routeResponse(C, Seq,
                  renderResponse(DefaultId, renderErrorPayload(Error)));
    return;
  }

  // A remote client must not make the daemon open local paths: the
  // parse diagnostics would reveal whether a path exists and something
  // of its contents. Batch (stdio) mode keeps `file` requests.
  if (!Req.File.empty()) {
    routeResponse(C, Seq,
                  renderResponse(Req.Id,
                                 renderErrorPayload(
                                     "`file` requests are not served over "
                                     "a socket; send the program text as "
                                     "`source`")));
    return;
  }

  if (Draining.load(std::memory_order_acquire)) {
    Net.ShedDraining.fetch_add(1, std::memory_order_relaxed);
    routeResponse(C, Seq,
                  renderResponse(Req.Id,
                                 renderShedPayload(
                                     "draining",
                                     "overloaded: server is draining for "
                                     "shutdown")));
    return;
  }

  if (Config.QuotaRps > 0) {
    auto Now = TokenBucket::Clock::now();
    if (!quotaBucket(Req.Tenant, Now).tryTake(Now)) {
      Net.ShedQuota.fetch_add(1, std::memory_order_relaxed);
      routeResponse(
          C, Seq,
          renderResponse(Req.Id,
                         renderShedPayload(
                             "quota",
                             "overloaded: tenant `" + Req.Tenant +
                                 "` exceeded its admission quota")));
      return;
    }
  }

  NetJob Job;
  Job.Conn = C.Id;
  Job.Seq = Seq;
  std::string Id = Req.Id;
  Job.Req = std::move(Req);
  if (!Queue.tryEnqueue(std::move(Job))) {
    Net.ShedQueueFull.fetch_add(1, std::memory_order_relaxed);
    routeResponse(
        C, Seq,
        renderResponse(Id, renderShedPayload(
                               "queue_full",
                               "overloaded: admission queue is full (" +
                                   itostr(static_cast<long long>(
                                       Queue.capacity())) +
                                   " pending jobs)")));
    return;
  }

  ++C.Pending;
  std::uint64_t Depth = InFlight.fetch_add(1, std::memory_order_relaxed) + 1;
  Net.QueueDepth.store(Depth, std::memory_order_relaxed);
  Net.notePeak(Depth);
  // One pool task per admitted job; the task pulls the *next* job in
  // fair order, which is not necessarily this one.
  Pool->submit([this] { workerRun(); });
}

//===----------------------------------------------------------------------===//
// HTTP (/metrics)
//===----------------------------------------------------------------------===//

void NetServer::handleHttp(Conn &C) {
  std::string Line;
  FrameExtractor::Status S = C.In.next(Line);
  if (S == FrameExtractor::Status::NeedMore) {
    if (C.PeerEof)
      kill(C);
    return;
  }
  if (S == FrameExtractor::Status::Oversized) {
    kill(C);
    return;
  }

  Net.HttpRequests.fetch_add(1, std::memory_order_relaxed);
  // "GET <path> [HTTP/x.y]" — everything after the path is ignored, as
  // are any request headers still in flight (we answer and close).
  std::string Path;
  std::size_t SpaceA = Line.find(' ');
  if (SpaceA != std::string::npos) {
    std::size_t SpaceB = Line.find(' ', SpaceA + 1);
    Path = Line.substr(SpaceA + 1, SpaceB == std::string::npos
                                       ? std::string::npos
                                       : SpaceB - SpaceA - 1);
  }

  std::string Body;
  const char *Status;
  const char *Type;
  if (Path == "/metrics") {
    Body = renderPrometheus(metricTable());
    Status = "200 OK";
    Type = "text/plain; version=0.0.4; charset=utf-8";
  } else {
    Body = "not found; try /metrics\n";
    Status = "404 Not Found";
    Type = "text/plain; charset=utf-8";
  }
  C.Out += "HTTP/1.0 ";
  C.Out += Status;
  C.Out += "\r\nContent-Type: ";
  C.Out += Type;
  C.Out += "\r\nContent-Length: ";
  C.Out += itostr(static_cast<long long>(Body.size()));
  C.Out += "\r\nConnection: close\r\n\r\n";
  C.Out += Body;
  C.StopReading = true;
  C.CloseAfterDrain = true;
  tryWrite(C);
}

//===----------------------------------------------------------------------===//
// Response routing and writing
//===----------------------------------------------------------------------===//

void NetServer::workerRun() {
  NetJob Job;
  if (!Queue.dequeue(Job))
    return; // Tasks and jobs are 1:1; only a logic bug lands here.
  std::string Response = Service.serve(Job.Req);
  {
    std::lock_guard<std::mutex> Lock(OutboxM);
    Outbox.push_back({Job.Conn, Job.Seq, std::move(Response)});
  }
  wakeLoop();
}

void NetServer::drainOutbox() {
  std::vector<Completion> Local;
  {
    std::lock_guard<std::mutex> Lock(OutboxM);
    Local.swap(Outbox);
  }
  for (Completion &Done : Local) {
    std::uint64_t Depth =
        InFlight.fetch_sub(1, std::memory_order_relaxed) - 1;
    Net.QueueDepth.store(Depth, std::memory_order_relaxed);
    auto It = Conns.find(Done.ConnId);
    if (It == Conns.end() || It->second->Dead)
      continue; // Connection went away; the result is already cached.
    Conn &C = *It->second;
    --C.Pending;
    routeResponse(C, Done.Seq, std::move(Done.Response));
  }
}

void NetServer::routeResponse(Conn &C, std::uint64_t Seq, std::string Line) {
  C.Ready.emplace(Seq, std::move(Line));
  flushReady(C);
}

void NetServer::flushReady(Conn &C) {
  if (C.Dead)
    return;
  for (auto It = C.Ready.find(C.NextToSend); It != C.Ready.end();
       It = C.Ready.find(C.NextToSend)) {
    C.Out += It->second;
    C.Out += '\n';
    C.Ready.erase(It);
    ++C.NextToSend;
    Net.Responses.fetch_add(1, std::memory_order_relaxed);
  }
  tryWrite(C);
}

void NetServer::handleWritable(Conn &C) { tryWrite(C); }

void NetServer::tryWrite(Conn &C) {
  if (C.Dead)
    return;
  while (C.OutOff < C.Out.size()) {
    ssize_t W = ::write(C.Fd, C.Out.data() + C.OutOff,
                        C.Out.size() - C.OutOff);
    if (W > 0) {
      C.OutOff += static_cast<std::size_t>(W);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      break;
    if (errno == EINTR)
      continue;
    kill(C); // EPIPE et al: the peer is gone.
    return;
  }
  if (C.OutOff == C.Out.size()) {
    C.Out.clear();
    C.OutOff = 0;
  }
  bool NeedOut = !C.Out.empty();
  if (NeedOut != C.WantWrite) {
    C.WantWrite = NeedOut;
    updateInterest(C);
  }
  maybeFinish(C);
}

void NetServer::maybeFinish(Conn &C) {
  if (!C.Dead && C.CloseAfterDrain && C.Out.empty() && C.Ready.empty() &&
      C.Pending == 0)
    kill(C);
}

bool NetServer::drainComplete() {
  if (InFlight.load(std::memory_order_relaxed) != 0)
    return false;
  {
    std::lock_guard<std::mutex> Lock(OutboxM);
    if (!Outbox.empty())
      return false;
  }
  for (const auto &[Id, C] : Conns)
    if (!C->Out.empty() || !C->Ready.empty() || C->Pending != 0)
      return false;
  return true;
}
