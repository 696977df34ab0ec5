//===- perfbench/gnt-perf/Bench.cpp - Shared benchmark plumbing -----------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Json.h"

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

using namespace perf;

std::string perf::format(const char *Fmt, ...) {
  char Buf[1024];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  return Buf;
}

double perf::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Pos);
  if (Lo + 1 >= V.size())
    return V.back();
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Lo + 1] - V[Lo]) * Frac;
}

double perf::median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double perf::tailQuantileFor(std::size_t N) {
  if (N == 0)
    return 0.5;
  double Q = 1.0 - 10.0 / static_cast<double>(N);
  return std::clamp(Q, 0.5, 0.99);
}

TailLatency perf::tailLatency(const std::vector<double> &Samples) {
  std::size_t Windows = Samples.size() / TailWindow;
  if (Windows < 2) {
    double Q = tailQuantileFor(Samples.size());
    return {quantile(Samples, Q),
            format("tail quantile %.4f of %zu samples", Q, Samples.size())};
  }
  std::vector<double> Per;
  for (std::size_t W = 0; W < Windows; ++W)
    Per.push_back(quantile(
        std::vector<double>(Samples.begin() + W * TailWindow,
                            Samples.begin() + (W + 1) * TailWindow),
        0.99));
  return {median(Per),
          format("p99 of each of %zu windows of %zu samples, median over "
                 "windows (%zu samples in all)",
                 Windows, TailWindow, Samples.size())};
}

double perf::selfCpuSeconds() {
  timespec T;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) * 1e-9;
}

double perf::procCpuSeconds(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Stat;
  if (!std::getline(In, Stat))
    return -1;
  // Fields after the parenthesized command name; utime and stime are
  // fields 14 and 15 of the whole line.
  auto Close = Stat.rfind(')');
  if (Close == std::string::npos)
    return -1;
  std::istringstream SS(Stat.substr(Close + 2));
  std::string Field;
  unsigned long long UTime = 0, STime = 0;
  for (unsigned I = 3; I <= 15 && (SS >> Field); ++I) {
    if (I == 14)
      UTime = std::stoull(Field);
    if (I == 15)
      STime = std::stoull(Field);
  }
  return static_cast<double>(UTime + STime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double perf::procPeakRssMb(pid_t Pid) {
  std::ifstream In(Pid ? "/proc/" + std::to_string(Pid) + "/status"
                       : std::string("/proc/self/status"));
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return -1;
}

int SpanRecorder::open(const std::string &Name, const std::string &Request) {
  Span S;
  S.Name = Name;
  S.Request = Request;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.StartUs = std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
                  .count();
  Spans.push_back(std::move(S));
  Stack.push_back(static_cast<int>(Spans.size() - 1));
  return Stack.back();
}

double SpanRecorder::close(int Index) {
  Span &S = Spans[Index];
  S.EndUs = std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
                .count();
  if (!Stack.empty() && Stack.back() == Index)
    Stack.pop_back();
  return S.EndUs - S.StartUs;
}

std::map<std::string, double> SpanRecorder::selfMicros(std::size_t Begin,
                                                       std::size_t End) const {
  std::map<int, double> Self;
  for (std::size_t I = Begin; I < End; ++I) {
    const Span &S = Spans[I];
    Self[static_cast<int>(I)] += S.EndUs - S.StartUs;
    if (S.Parent >= 0)
      Self[S.Parent] -= S.EndUs - S.StartUs;
  }
  std::map<std::string, double> Out;
  for (const auto &[I, Us] : Self)
    Out[Spans[I].Name] += Us;
  return Out;
}

bool perf::spawnProcess(const std::vector<std::string> &Argv, int CaptureFd,
                        ChildProc &C, std::string &Error) {
  int Pipe[2];
  if (pipe2(Pipe, O_CLOEXEC) != 0) {
    Error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_addopen(&Actions, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], CaptureFd);
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  int Rc = posix_spawn(&C.Pid, Args[0], &Actions, nullptr, Args.data(),
                       environ);
  posix_spawn_file_actions_destroy(&Actions);
  ::close(Pipe[1]);
  if (Rc != 0) {
    ::close(Pipe[0]);
    Error = "cannot start " + Argv[0] + ": " + std::strerror(Rc);
    C.Pid = -1;
    return false;
  }
  C.Fd = Pipe[0];
  return true;
}

bool perf::readLine(int Fd, std::string &Line, double TimeoutS) {
  Line.clear();
  auto Deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(TimeoutS));
  char Ch;
  while (true) {
    int Left = static_cast<int>(
        std::chrono::duration<double, std::milli>(Deadline - Clock::now())
            .count());
    if (Left <= 0)
      return false;
    pollfd P{Fd, POLLIN, 0};
    int N = ::poll(&P, 1, Left);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    ssize_t R = ::read(Fd, &Ch, 1);
    if (R <= 0)
      return false;
    if (Ch == '\n')
      return true;
    Line += Ch;
  }
}

int perf::reapProcess(ChildProc &C) {
  int Status = 0;
  if (C.Pid > 0)
    while (::waitpid(C.Pid, &Status, 0) < 0 && errno == EINTR) {
    }
  if (C.Fd >= 0)
    ::close(C.Fd);
  C = ChildProc();
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : 128 + WTERMSIG(Status);
}

bool SpanRecorder::write(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\"spans\":[\n";
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << format("{\"id\":%zu,\"parent\":%d,\"name\":\"%s\","
                  "\"request\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}",
                  I, S.Parent, gnt::jsonEscape(S.Name).c_str(),
                  gnt::jsonEscape(S.Request).c_str(), S.StartUs, S.EndUs)
        << (I + 1 < Spans.size() ? ",\n" : "\n");
  }
  Out << "]}\n";
  return static_cast<bool>(Out);
}
