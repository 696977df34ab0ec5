//===- perfbench/gnt-perf/ServeBench.cpp - The gntd_zipf workload ---------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// gntd_zipf drives a gntd process in socket mode (in-memory result
// cache, no disk cache) from one client thread that multiplexes every
// connection with ppoll:
//
//   warm-up  each plain program once, untimed, so repeats are hits;
//   phase 1  an open loop at a fixed offered rate below saturation,
//            latency timed from each request's scheduled send time;
//   phase 2  a closed loop (a fixed number of requests in flight per
//            connection) over the same mix, for throughput;
//   scrape   one timed GET /metrics.
//
// Every response that is not shed must equal, byte for byte, the
// response rendered in-process from Pipeline::compile.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"

#include "service/BatchServer.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <sstream>
#include <thread>

using namespace perf;

namespace {

/// Offered rate of the open loop. Fixed, so parent and change see the
/// same load; well below the saturation phase 2 measures on 4 cores.
constexpr double OpenLoopRps = 1500;
/// Requests each connection keeps in flight in the closed loop.
constexpr unsigned ClosedDepth = 8;
constexpr unsigned SetupProbes = 9;
/// The open-loop generator may send at most this late (p99) before the
/// run is marked invalid.
constexpr double MaxLatenessMs = 5.0;
/// Safety margin for a stuck server: waits past the schedule end.
constexpr double DrainTimeoutS = 30;

unsigned hardwareThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}
/// gntd leaves the client one core (and runs on the others, see
/// CpuSplit).
unsigned gntdWorkers() { return std::max(1u, hardwareThreads() - 1); }
/// At most nproc connections; the client itself is one thread.
unsigned clientConnections() { return std::min(4u, hardwareThreads()); }

//===----------------------------------------------------------------------===//
// gntd process
//===----------------------------------------------------------------------===//

struct Gntd {
  ChildProc Proc;
  unsigned Port = 0;
};

/// The CPUs this process may run on, split in two: the first one for
/// the client thread, the others for gntd. Server is empty on one CPU.
struct CpuSplit {
  cpu_set_t All, Client, Server;
  bool Split = false;

  CpuSplit() {
    CPU_ZERO(&All);
    CPU_ZERO(&Client);
    CPU_ZERO(&Server);
    if (sched_getaffinity(0, sizeof(All), &All) != 0)
      return;
    bool First = true;
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &All)) {
        CPU_SET(C, First ? &Client : &Server);
        Split |= !First;
        First = false;
      }
  }
};

/// Pins the calling thread to \p Set while alive (threads it starts
/// inherit the pin), then restores its previous CPUs.
class ScopedAffinity {
public:
  ScopedAffinity(const cpu_set_t &Set, bool Enabled) {
    Active = Enabled && sched_getaffinity(0, sizeof(Saved), &Saved) == 0 &&
             sched_setaffinity(0, sizeof(Set), &Set) == 0;
  }
  ~ScopedAffinity() {
    if (Active)
      sched_setaffinity(0, sizeof(Saved), &Saved);
  }
  ScopedAffinity(const ScopedAffinity &) = delete;
  ScopedAffinity &operator=(const ScopedAffinity &) = delete;

private:
  cpu_set_t Saved;
  bool Active = false;
};

/// Starts gntd on every CPU but the client's: the affinity is inherited
/// by gntd and all its threads.
bool startGntd(const RunOptions &O, Gntd &G, std::string &Err) {
  bool Ok;
  {
    CpuSplit Cpus;
    ScopedAffinity Pin(Cpus.Server, Cpus.Split);
    Ok = spawnProcess({O.Gntd, "--port", "0", "--workers",
                       std::to_string(gntdWorkers()), "--cache-size", "4096",
                       "--quiet"},
                      2, G.Proc, Err);
  }
  if (!Ok)
    return false;
  std::string Line;
  while (readLine(G.Proc.Fd, Line, 30)) {
    auto At = Line.find("listening on ");
    if (At == std::string::npos)
      continue;
    auto Colon = Line.find(':', At + 13);
    if (Colon != std::string::npos) {
      G.Port = static_cast<unsigned>(std::atoi(Line.c_str() + Colon + 1));
      return G.Port != 0;
    }
  }
  Err = "gntd did not report a listening port";
  ::kill(G.Proc.Pid, SIGKILL);
  reapProcess(G.Proc);
  return false;
}

/// Drains gntd with SIGTERM (SIGKILL after a grace period) and waits
/// for it; returns its exit code.
int stopGntd(Gntd &G) {
  if (G.Proc.Pid <= 0)
    return 0;
  ::kill(G.Proc.Pid, SIGTERM);
  auto Deadline = Clock::now() + std::chrono::seconds(20);
  int Status = 0;
  pid_t Got;
  while ((Got = ::waitpid(G.Proc.Pid, &Status, WNOHANG)) == 0 &&
         Clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  if (Got == 0) {
    ::kill(G.Proc.Pid, SIGKILL);
    ::waitpid(G.Proc.Pid, &Status, 0);
  }
  if (G.Proc.Fd >= 0)
    ::close(G.Proc.Fd);
  G.Proc = ChildProc();
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : 128 + WTERMSIG(Status);
}

int dial(unsigned Port, std::string &Err) {
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<std::uint16_t>(Port));
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Err = std::string("connect: ") + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return Fd;
}

bool writeAll(int Fd, const std::string &S) {
  std::size_t Off = 0;
  while (Off < S.size()) {
    ssize_t W = ::write(Fd, S.data() + Off, S.size() - Off);
    if (W < 0 && errno == EINTR)
      continue;
    if (W <= 0)
      return false;
    Off += static_cast<std::size_t>(W);
  }
  return true;
}

/// Blocking read until EOF (the metrics endpoint closes after replying).
bool readToEof(int Fd, std::string &Out, double TimeoutS) {
  char Buf[65536];
  auto Deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(TimeoutS));
  while (Clock::now() < Deadline) {
    pollfd P{Fd, POLLIN, 0};
    if (::poll(&P, 1, 100) <= 0)
      continue;
    ssize_t R = ::read(Fd, Buf, sizeof(Buf));
    if (R < 0 && errno == EINTR)
      continue;
    if (R <= 0)
      return R == 0;
    Out.append(Buf, static_cast<std::size_t>(R));
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Expected responses
//===----------------------------------------------------------------------===//

std::string expectedPayload(const std::string &Source, bool Werror) {
  gnt::PipelineOptions Opts;
  Opts.Werror = Werror;
  return gnt::renderResultPayload(gnt::Pipeline(Opts).compile(Source));
}

bool payloadOk(const std::string &Payload) {
  return Payload.rfind("{\"ok\":true", 0) == 0;
}

/// In-process expectations for the stream: computed once per distinct
/// plain and variant payload; edit responses are kept and checked after
/// the run.
struct Expectations {
  const ServeMix &Mix;
  std::vector<std::string> PlainLine;      ///< Full response per program.
  std::vector<std::string> VariantPayload; ///< Werror payload per program.
  std::vector<std::pair<unsigned, std::string>> EditResponses;

  explicit Expectations(const ServeMix &Mix, Report &R) : Mix(Mix) {
    for (std::size_t P = 0; P < Mix.programs().size(); ++P) {
      const std::string &Src = Mix.programs()[P].Source;
      std::string Plain = expectedPayload(Src, false);
      std::string Variant = expectedPayload(Src, true);
      if (!payloadOk(Plain) || !payloadOk(Variant))
        R.fail(Mix.programs()[P].Name + ": in-process compile fails");
      PlainLine.push_back(
          gnt::renderResponse(Mix.id({StreamRequest::Plain,
                                      static_cast<unsigned>(P), 0}),
                              Plain));
      VariantPayload.push_back(std::move(Variant));
    }
  }

  /// False on a mismatch (edits are deferred and always pass here).
  bool check(const StreamRequest &Q, std::string &&Line) {
    switch (Q.K) {
    case StreamRequest::Plain:
      return Line == PlainLine[Q.Prog];
    case StreamRequest::Variant:
      return Line == gnt::renderResponse(Mix.id(Q), VariantPayload[Q.Prog]);
    case StreamRequest::Edit:
      EditResponses.emplace_back(Q.Serial, std::move(Line));
      return true;
    }
    return false;
  }

  /// Checks the deferred edit responses on every core; returns the
  /// mismatch count.
  unsigned checkEdits(Report &R) {
    std::vector<char> Bad(EditResponses.size(), 0);
    std::atomic<std::size_t> Next{0};
    std::vector<std::thread> Workers;
    for (unsigned W = 0; W < hardwareThreads(); ++W)
      Workers.emplace_back([&] {
        for (std::size_t I; (I = Next++) < EditResponses.size();) {
          StreamRequest Q{StreamRequest::Edit, 0, EditResponses[I].first};
          std::string Payload = expectedPayload(Mix.sourceOf(Q), false);
          Bad[I] = !payloadOk(Payload) ||
                   EditResponses[I].second !=
                       gnt::renderResponse(Mix.id(Q), Payload);
        }
      });
    for (std::thread &T : Workers)
      T.join();
    unsigned Count = 0;
    for (std::size_t I = 0; I < Bad.size(); ++I)
      if (Bad[I]) {
        ++Count;
        R.note("FAIL: edit " + std::to_string(EditResponses[I].first) +
               " response differs from the in-process compile");
      }
    EditResponses.clear();
    return Count;
  }
};

//===----------------------------------------------------------------------===//
// The client: one thread, every connection multiplexed with ppoll
//===----------------------------------------------------------------------===//

struct PhaseStats {
  std::vector<double> LatencyUs;   ///< Non-shed, matching responses.
  std::vector<double> RepeatUs;    ///< Plain repeats of completed programs.
  std::vector<double> LatenessUs;  ///< Open loop: send time minus due time.
  std::vector<double> KindUs[3];   ///< Latency by request kind.
  unsigned long long Sent = 0, Completed = 0, Shed = 0, Mismatched = 0,
                     Lost = 0;
  double ElapsedS = 0;
  /// Closed loop, per one-second window: completions per second and
  /// server CPU milliseconds per completion.
  std::vector<double> WindowRps, WindowCpuMs;
};

class Client {
public:
  Client(ServeMix &Mix, Expectations &Exp, unsigned Port, unsigned Conns,
         Report &R)
      : Mix(Mix), Exp(Exp), R(R), Done(Mix.programs().size(), 0) {
    for (unsigned I = 0; I < Conns; ++I) {
      std::string Err;
      int Fd = dial(Port, Err);
      if (Fd < 0) {
        R.fail("client: " + Err);
        continue;
      }
      Cs.emplace_back();
      Cs.back().Fd = Fd;
    }
  }
  ~Client() {
    for (Conn &C : Cs)
      ::close(C.Fd);
  }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;
  bool ok() const { return !Cs.empty(); }

  /// Sends each plain program once and waits for every answer.
  void warmUp(PhaseStats &S) {
    for (unsigned P = 0; P < Mix.programs().size(); ++P)
      send(P % Cs.size(), {StreamRequest::Plain, P, 0}, Clock::now(), S);
    drain(S, Clock::now() + std::chrono::seconds(60));
  }

  /// Open loop: request K is due at Start + K / Rps, on connection
  /// K mod connections, whether or not earlier ones were answered.
  void openLoop(double Rps, double Seconds, PhaseStats &S) {
    auto N = static_cast<unsigned long long>(Rps * Seconds);
    auto Start = Clock::now() + std::chrono::milliseconds(5);
    auto Due = [&](unsigned long long K) {
      return Start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(K / Rps));
    };
    unsigned long long K = 0;
    while (K < N) {
      auto Now = Clock::now();
      while (K < N && Due(K) <= Now) {
        S.LatenessUs.push_back(
            std::chrono::duration<double, std::micro>(Now - Due(K)).count());
        send(K % Cs.size(), Mix.next(), Due(K), S);
        ++K;
      }
      // Poll without sleeping: a halted vCPU can take milliseconds to
      // wake, which would make the generator itself late. The client has
      // a core to itself.
      if (K < N)
        pump(Clock::now(), S);
    }
    drain(S, Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(DrainTimeoutS)));
    S.ElapsedS = secondsBetween(Start, Clock::now());
  }

  /// Closed loop: every connection keeps ClosedDepth requests in
  /// flight and sends the next one when an answer arrives. Completions
  /// and the server's CPU (process \p Server) are sampled every second.
  void closedLoop(double Seconds, pid_t Server, PhaseStats &S) {
    auto Start = Clock::now();
    auto End = Start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(Seconds));
    Refill = true;
    RefillUntil = End;
    for (unsigned D = 0; D < ClosedDepth; ++D)
      for (unsigned C = 0; C < Cs.size(); ++C)
        send(C, Mix.next(), Clock::now(), S);
    auto WindowStart = Start;
    auto Done0 = S.Completed;
    double Cpu0 = procCpuSeconds(Server);
    while (Clock::now() < End && inFlight()) {
      auto WindowEnd = std::min(End, WindowStart + std::chrono::seconds(1));
      pump(WindowEnd, S);
      auto Now = Clock::now();
      if (Now < WindowEnd)
        continue;
      double Cpu1 = procCpuSeconds(Server);
      double Done = static_cast<double>(S.Completed - Done0);
      if (Done > 0 && secondsBetween(WindowStart, Now) > 0.5) {
        S.WindowRps.push_back(Done / secondsBetween(WindowStart, Now));
        S.WindowCpuMs.push_back((Cpu1 - Cpu0) * 1000.0 / Done);
      }
      WindowStart = Now;
      Done0 = S.Completed;
      Cpu0 = Cpu1;
    }
    Refill = false;
    drain(S, Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(DrainTimeoutS)));
    S.ElapsedS = secondsBetween(Start, Clock::now());
  }

private:
  struct Pending {
    StreamRequest Q;
    Clock::time_point Due;
    bool Repeat;
  };
  struct Conn {
    int Fd = -1;
    std::string In;
    std::string Out;
    std::size_t OutOff = 0;
    std::deque<Pending> Q;
    bool Dead = false;
  };

  bool inFlight() const {
    for (const Conn &C : Cs)
      if (!C.Q.empty() && !C.Dead)
        return true;
    return false;
  }

  void send(unsigned Ci, const StreamRequest &Q, Clock::time_point Due,
            PhaseStats &S) {
    Conn &C = Cs[Ci];
    bool Repeat = Q.K == StreamRequest::Plain && Done[Q.Prog];
    C.Q.push_back({Q, Due, Repeat});
    C.Out += Mix.line(Q);
    ++S.Sent;
    flush(C);
  }

  void flush(Conn &C) {
    while (C.OutOff < C.Out.size() && !C.Dead) {
      ssize_t W = ::send(C.Fd, C.Out.data() + C.OutOff,
                         C.Out.size() - C.OutOff, MSG_DONTWAIT | MSG_NOSIGNAL);
      if (W < 0 && errno == EINTR)
        continue;
      if (W < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        return;
      if (W <= 0) {
        C.Dead = true;
        return;
      }
      C.OutOff += static_cast<std::size_t>(W);
    }
    if (C.OutOff == C.Out.size()) {
      C.Out.clear();
      C.OutOff = 0;
    }
  }

  /// Waits for socket activity until \p Until and handles it.
  void pump(Clock::time_point Until, PhaseStats &S) {
    std::vector<pollfd> Fds;
    for (Conn &C : Cs)
      Fds.push_back({C.Fd,
                     static_cast<short>(C.Dead ? 0
                                               : POLLIN | (C.Out.empty() ? 0
                                                                         : POLLOUT)),
                     0});
    auto Left = Until - Clock::now();
    if (Left < Clock::duration::zero())
      Left = Clock::duration::zero();
    auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Left).count();
    timespec Ts{static_cast<time_t>(Ns / 1000000000),
                static_cast<long>(Ns % 1000000000)};
    int N = ::ppoll(Fds.data(), Fds.size(), &Ts, nullptr);
    if (N <= 0)
      return;
    char Buf[65536];
    for (std::size_t I = 0; I < Fds.size(); ++I) {
      Conn &C = Cs[I];
      if (Fds[I].revents & POLLOUT)
        flush(C);
      if (!(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      ssize_t Got = ::recv(C.Fd, Buf, sizeof(Buf), MSG_DONTWAIT);
      if (Got < 0 && (errno == EAGAIN || errno == EINTR))
        continue;
      if (Got <= 0) {
        C.Dead = true;
        continue;
      }
      C.In.append(Buf, static_cast<std::size_t>(Got));
      std::size_t Pos = 0, Nl;
      while ((Nl = C.In.find('\n', Pos)) != std::string::npos) {
        auto Now = Clock::now();
        std::string Line = C.In.substr(Pos, Nl - Pos);
        Pos = Nl + 1;
        if (C.Q.empty()) {
          R.fail("client: response without a request");
          continue;
        }
        Pending P = C.Q.front();
        C.Q.pop_front();
        answer(P, std::move(Line), Now, S);
        if (Refill && Now < RefillUntil)
          send(static_cast<unsigned>(I), Mix.next(), Clock::now(), S);
      }
      C.In.erase(0, Pos);
    }
  }

  void answer(const Pending &P, std::string &&Line, Clock::time_point Now,
              PhaseStats &S) {
    double Us = std::chrono::duration<double, std::micro>(Now - P.Due).count();
    if (Line.find("\"error\":\"overloaded\"") != std::string::npos) {
      ++S.Shed;
      return;
    }
    if (!Exp.check(P.Q, std::move(Line))) {
      ++S.Mismatched;
      R.note("FAIL: response to " + Mix.id(P.Q) +
             " differs from the in-process compile");
      return;
    }
    ++S.Completed;
    S.LatencyUs.push_back(Us);
    S.KindUs[P.Q.K].push_back(Us);
    if (P.Repeat)
      S.RepeatUs.push_back(Us);
    if (P.Q.K == StreamRequest::Plain)
      Done[P.Q.Prog] = 1;
  }

  void drain(PhaseStats &S, Clock::time_point Deadline) {
    while (inFlight() && Clock::now() < Deadline)
      pump(Deadline, S);
    for (Conn &C : Cs) {
      S.Lost += C.Q.size();
      C.Q.clear();
    }
  }

  ServeMix &Mix;
  Expectations &Exp;
  Report &R;
  std::vector<Conn> Cs;
  std::vector<char> Done;
  bool Refill = false;
  Clock::time_point RefillUntil;
};

//===----------------------------------------------------------------------===//
// Set-up probes and the metrics scrape
//===----------------------------------------------------------------------===//

/// Median time from spawning gntd to its first successful response.
double measureSetup(const RunOptions &O, const std::string &FirstLine,
                    const std::string &Expected, Report &R) {
  std::vector<double> Times;
  for (unsigned I = 0; I < SetupProbes; ++I) {
    Gntd G;
    std::string Err, Buf, Line;
    auto T0 = Clock::now();
    if (!startGntd(O, G, Err)) {
      R.fail("set-up probe: " + Err);
      return 0;
    }
    int Fd = dial(G.Port, Err);
    bool Ok = Fd >= 0 && writeAll(Fd, FirstLine) && readLine(Fd, Line, 60);
    auto T1 = Clock::now();
    if (Fd >= 0)
      ::close(Fd);
    stopGntd(G);
    if (!Ok || Line != Expected) {
      R.fail("set-up probe: no correct first response");
      return 0;
    }
    Times.push_back(secondsBetween(T0, T1));
  }
  R.note(format("setup_s: median of %zu gntd starts (spawn -> first "
                "response), min %.4f max %.4f",
                Times.size(), *std::min_element(Times.begin(), Times.end()),
                *std::max_element(Times.begin(), Times.end())));
  return median(Times);
}

/// Parsed Prometheus samples: "name{labels}" -> value.
struct Scrape {
  std::map<std::string, double> Samples;
  double Ms = 0;
  bool Ok = false;

  double get(const std::string &Key) const {
    auto It = Samples.find(Key);
    return It == Samples.end() ? 0 : It->second;
  }
};

Scrape scrapeMetrics(unsigned Port) {
  Scrape S;
  std::string Err, Body;
  auto T0 = Clock::now();
  int Fd = dial(Port, Err);
  if (Fd < 0)
    return S;
  bool Ok = writeAll(Fd, "GET /metrics HTTP/1.0\r\n\r\n") &&
            readToEof(Fd, Body, 30);
  S.Ms = secondsBetween(T0, Clock::now()) * 1000.0;
  ::close(Fd);
  S.Ok = Ok && Body.rfind("HTTP/1.0 200", 0) == 0;
  std::istringstream In(Body.substr(std::min(Body.size(), Body.find("\r\n\r\n"))));
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#' || Line[0] == '\r')
      continue;
    auto Sp = Line.rfind(' ');
    if (Sp == std::string::npos)
      continue;
    S.Samples[Line.substr(0, Sp)] = std::strtod(Line.c_str() + Sp + 1, nullptr);
  }
  return S;
}

double ratio(double A, double B) { return B > 0 ? A / B : 0; }

/// Phase 1 of the workload (also the traced socket session).
void runOpenLoop(Client &C, double Seconds, PhaseStats &S, Report &R) {
  C.openLoop(OpenLoopRps, Seconds, S);
  double LateP99 = quantile(S.LatenessUs, 0.99) / 1000.0;
  R.Stamp["open_loop_rps"] = format("%.0f", OpenLoopRps);
  R.Stamp["generator_late_p99_ms"] = format("%.4f", LateP99);
  R.Stamp["generator_late_max_ms"] =
      format("%.4f", S.LatenessUs.empty()
                         ? 0.0
                         : *std::max_element(S.LatenessUs.begin(),
                                             S.LatenessUs.end()) /
                               1000.0);
  if (LateP99 > MaxLatenessMs)
    R.Invalid.push_back(format("open-loop generator ran %.3f ms late at p99 "
                               "(bound %.1f ms)",
                               LateP99, MaxLatenessMs));
}

void stampServer(Report &R) {
  R.Stamp["gntd_workers"] = std::to_string(gntdWorkers());
  R.Stamp["client_connections"] = std::to_string(clientConnections());
  R.Stamp["closed_loop_in_flight"] =
      std::to_string(clientConnections() * ClosedDepth);
}

} // namespace

void perf::runServeWorkload(const RunOptions &O, Report &R) {
  stampServer(R);
  ServeMix Mix(O.Seed);
  Expectations Exp(Mix, R);
  if (Mix.editSwaps() == 0)
    R.note("note: no edit of this seed's target re-solves partially");

  R.set("setup_s",
        measureSetup(O, Mix.line({StreamRequest::Plain, 0, 0}),
                     Exp.PlainLine[0], R),
        "s");

  Gntd G;
  std::string Err;
  if (!startGntd(O, G, Err)) {
    R.fail(Err);
    return;
  }
  PhaseStats Warm, P1, P2;
  double Cpu0 = 0, Cpu1 = 0;
  Scrape S;
  {
    CpuSplit Cpus;
    ScopedAffinity Pin(Cpus.Client, Cpus.Split);
    Client C(Mix, Exp, G.Port, clientConnections(), R);
    if (C.ok()) {
      C.warmUp(Warm);
      Cpu0 = procCpuSeconds(G.Proc.Pid);
      runOpenLoop(C, O.Seconds / 2, P1, R);
      C.closedLoop(O.Seconds / 2, G.Proc.Pid, P2);
      Cpu1 = procCpuSeconds(G.Proc.Pid);
    }
    S = scrapeMetrics(G.Port);
  }
  double PeakMb = procPeakRssMb(G.Proc.Pid);
  int Exit = stopGntd(G);
  if (Exit != 0)
    R.fail(format("gntd exited with %d", Exit));
  if (!S.Ok)
    R.fail("GET /metrics failed");

  unsigned long long Bad = Exp.checkEdits(R);
  for (const PhaseStats *P : {&Warm, &P1, &P2}) {
    R.Attempted += P->Sent;
    Bad += P->Shed + P->Mismatched + P->Lost;
  }
  if (Bad) {
    R.Failed += Bad;
    R.Correct = false;
  }
  if (P1.LatencyUs.empty() || P2.Completed == 0) {
    R.fail("no responses measured");
    return;
  }

  if (P2.WindowRps.empty()) {
    R.fail("the closed loop completed no one-second window");
    return;
  }
  TailLatency Tail = tailLatency(P1.LatencyUs);
  R.set("throughput_rps", median(P2.WindowRps), "1/s");
  R.set("latency_p50_ms", quantile(P1.LatencyUs, 0.5) / 1000.0, "ms");
  R.set("latency_p99_ms", Tail.Value / 1000.0, "ms");
  R.set("cpu_ms_per_req", median(P2.WindowCpuMs), "ms");
  R.set("peak_rss_mb", PeakMb, "MiB");
  R.note(format("gntd_zipf: phase 1 open loop %.0f rps x %.1f s: %llu sent, "
                "%llu ok, %llu shed; %s",
                OpenLoopRps, O.Seconds / 2, P1.Sent, P1.Completed, P1.Shed,
                Tail.How.c_str()));
  const char *const Kinds[] = {"plain", "werror variant", "edit"};
  for (unsigned K = 0; K < 3; ++K)
    R.note(format("gntd_zipf: phase 1 %s: %zu ok, p50 %.3f ms, p99 %.3f ms",
                  Kinds[K], P1.KindUs[K].size(),
                  quantile(P1.KindUs[K], 0.5) / 1000.0,
                  quantile(P1.KindUs[K], 0.99) / 1000.0));
  // The mix proportions are assumptions (Inputs.h); report what follows
  // from them, so a claim can name the property it depends on.
  double Kinds12[3], All = 0;
  for (unsigned K = 0; K < 3; ++K)
    All += Kinds12[K] = static_cast<double>(P1.KindUs[K].size() +
                                            P2.KindUs[K].size());
  double CacheHits = S.get("gntd_cache_hits_total{layer=\"memory\"}");
  double CacheMisses = S.get("gntd_cache_misses_total");
  R.note(format("gntd_zipf: completed requests by kind over both phases: "
                "plain %.4f, werror variant %.4f, edit %.4f; result-cache "
                "hit ratio %.4f (warm-up included)",
                Kinds12[0] / All, Kinds12[1] / All, Kinds12[2] / All,
                CacheHits / std::max(1.0, CacheHits + CacheMisses)));
  R.note(format("gntd_zipf: generator lateness p50 %.3f p99 %.3f max %.3f ms",
                quantile(P1.LatenessUs, 0.5) / 1000.0,
                quantile(P1.LatenessUs, 0.99) / 1000.0,
                quantile(P1.LatenessUs, 1) / 1000.0));
  R.note(format("gntd_zipf: phase 2 closed loop, %u in flight: %llu ok in "
                "%.3f s, median of %zu one-second windows; server CPU %.3f s "
                "over both phases",
                clientConnections() * ClosedDepth, P2.Completed, P2.ElapsedS,
                P2.WindowRps.size(), Cpu1 - Cpu0));
  R.note(format("gntd_zipf: result cache hits %.0f / misses %.0f, shed %.0f, "
                "incremental intervals %.0f / %.0f; scrape %.3f ms",
                CacheHits, CacheMisses,
                S.get("gntd_shed_total{reason=\"queue_full\"}") +
                    S.get("gntd_shed_total{reason=\"quota\"}") +
                    S.get("gntd_shed_total{reason=\"draining\"}"),
                S.get("gntd_incremental_intervals_resolved_total"),
                S.get("gntd_incremental_intervals_seen_total"), S.Ms));
}

void perf::runServeTrace(const RunOptions &O, SpanRecorder &Spans, Report &R) {
  stampServer(R);
  // In-process decomposition of BatchServer::serve: decode -> lookup ->
  // compile -> render -> insert, next to the real serve() on an
  // identical stream; the two must answer byte for byte alike.
  {
    ServeMix Mix(O.Seed);
    gnt::ServiceConfig Config;
    Config.CacheCapacity = 4096;
    gnt::BatchServer Server(Config);
    gnt::ResultCache Cache(Config.CacheCapacity);
    gnt::StageCache Stages;
    std::vector<double> DecodeUs, RenderUs, HitUs, MissMs;
    unsigned N = 0;
    auto T0 = Clock::now();
    auto Next = [&](unsigned I) {
      return I < Mix.programs().size()
                 ? StreamRequest{StreamRequest::Plain, I, 0}
                 : Mix.next();
    };
    for (unsigned I = 0;
         I < Mix.programs().size() + 200 ||
         (secondsBetween(T0, Clock::now()) < O.Seconds / 4 && I < 20000);
         ++I, ++N) {
      StreamRequest Q = Next(I);
      std::string Line = Mix.line(Q);
      Line.pop_back();
      std::string Id = Mix.id(Q);
      gnt::ServiceRequest Req;
      std::string Err, Response;
      bool Hit;
      {
        Scoped Root(&Spans, "service.request", Id);
        int D = Spans.open("service.decode", Id);
        bool Decoded = gnt::parseServiceRequest(Line, "line", Req, Err);
        DecodeUs.push_back(Spans.close(D));
        if (!Decoded) {
          R.fail("decode: " + Err);
          continue;
        }
        std::string Payload;
        std::uint64_t Key;
        {
          Scoped _(&Spans, "service.lookup", Id);
          Key = gnt::pipelineCacheKey(Req.Source, Req.Opts);
          Hit = Cache.lookup(Key, Payload);
        }
        if (!Hit) {
          gnt::PipelineResult Res;
          {
            Scoped _(&Spans, "service.compile", Id);
            Res = gnt::Pipeline(Req.Opts).compile(Req.Source, &Stages);
          }
          int Rn = Spans.open("service.render", Id);
          Payload = gnt::renderResultPayload(Res);
          Response = gnt::renderResponse(Req.Id, Payload);
          RenderUs.push_back(Spans.close(Rn));
          Scoped _(&Spans, "service.insert", Id);
          Cache.insert(Key, Payload);
        } else {
          Response = gnt::renderResponse(Req.Id, Payload);
        }
      }
      auto A = Clock::now();
      std::string Served = Server.serve(Req);
      double Us = std::chrono::duration<double, std::micro>(Clock::now() - A)
                      .count();
      (Hit ? HitUs : MissMs).push_back(Hit ? Us : Us / 1000.0);
      ++R.Attempted;
      if (Served != Response)
        R.fail("composed serve path differs from BatchServer::serve for " +
               Id);
    }
    R.set("service.decode_us", median(DecodeUs), "us");
    R.set("service.render_us", median(RenderUs), "us");
    R.set("service.serve_hit_us", median(HitUs), "us");
    R.set("service.serve_miss_ms", median(MissMs), "ms");
    R.note(format("service trace: %u requests in-process, %zu hits, %zu "
                  "misses",
                  N, HitUs.size(), MissMs.size()));
  }

  // The socket session: a warm-up and a short open loop, then the scrape.
  ServeMix Mix(O.Seed);
  Expectations Exp(Mix, R);
  Gntd G;
  std::string Err;
  if (!startGntd(O, G, Err)) {
    R.fail(Err);
    return;
  }
  PhaseStats Warm, P1;
  Scrape S;
  {
    CpuSplit Cpus;
    ScopedAffinity Pin(Cpus.Client, Cpus.Split);
    Client C(Mix, Exp, G.Port, clientConnections(), R);
    if (C.ok()) {
      C.warmUp(Warm);
      runOpenLoop(C, std::min(3.0, O.Seconds / 2), P1, R);
    }
    S = scrapeMetrics(G.Port);
  }
  int Exit = stopGntd(G);
  if (Exit != 0)
    R.fail(format("gntd exited with %d", Exit));
  if (!S.Ok)
    R.fail("GET /metrics failed");
  unsigned long long Bad = Exp.checkEdits(R);
  for (const PhaseStats *P : {&Warm, &P1}) {
    R.Attempted += P->Sent;
    Bad += P->Shed + P->Mismatched + P->Lost;
  }
  if (Bad) {
    R.Failed += Bad;
    R.Correct = false;
  }

  double Hits = S.get("gntd_cache_hits_total{layer=\"memory\"}");
  double Misses = S.get("gntd_cache_misses_total");
  R.set("service.result_cache_hit_ratio", ratio(Hits, Hits + Misses), "ratio");
  for (const char *Stage : {"parse", "cfg", "interval", "solve", "annotate"}) {
    std::string L = format("{stage=\"%s\"}", Stage);
    double H = S.get("gntd_stage_cache_hits_total" + L);
    double M = S.get("gntd_stage_cache_misses_total" + L);
    R.set(std::string("service.stage_hit_ratio.") + Stage, ratio(H, H + M),
          "ratio");
  }
  R.set("dataflow.incremental_resolved_ratio",
        ratio(S.get("gntd_incremental_intervals_resolved_total"),
              S.get("gntd_incremental_intervals_seen_total")),
        "ratio");
  R.set("net.rtt_hit_us", median(P1.RepeatUs), "us");
  R.set("net.queue_and_wire_ms",
        quantile(P1.LatencyUs, 0.5) / 1000.0 -
            S.get("gntd_job_latency_microseconds{quantile=\"0.5\"}") / 1000.0,
        "ms");
  R.set("net.queue_depth_peak", S.get("gntd_queue_depth_peak"), "count");
  R.set("net.shed_total",
        S.get("gntd_shed_total{reason=\"queue_full\"}") +
            S.get("gntd_shed_total{reason=\"quota\"}") +
            S.get("gntd_shed_total{reason=\"draining\"}"),
        "count");
  R.set("net.metrics_scrape_ms", S.Ms, "ms");
}
