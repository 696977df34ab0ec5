//===- perfbench/gnt-perf/Bench.h - Shared benchmark plumbing ---*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the workloads share: run options, the report every workload
/// fills (metrics by name with units, attempted/failed counts, notes),
/// order statistics, process accounting read from /proc, and the
/// in-memory span recorder of the traced run.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_PERFBENCH_BENCH_H
#define GNT_PERFBENCH_BENCH_H

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perf {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// Command-line settings of one benchmark run.
struct RunOptions {
  std::string Workload;
  unsigned Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Root = ".";      ///< Repository checkout (corpus files).
  std::string Gntd;            ///< Path of the gntd binary.
  std::string TraceOut;        ///< Where the traced run writes its spans.
  std::string SelfExe;         ///< This binary, for set-up probes.
};

/// One named measurement.
struct Metric {
  double Value = 0;
  std::string Unit;
};

/// Everything a workload reports. Notes are human-readable lines that
/// precede the final JSON object (sample counts, tables, the stamp).
struct Report {
  std::map<std::string, Metric> Metrics;
  unsigned long long Attempted = 0;
  unsigned long long Failed = 0;
  bool Correct = true;
  std::vector<std::string> Notes;
  /// Environment stamp entries (key -> JSON token).
  std::map<std::string, std::string> Stamp;
  std::vector<std::string> Invalid; ///< Reasons the run is not valid.

  void set(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = {Value, Unit};
  }
  void note(const std::string &Line) { Notes.push_back(Line); }
  /// Records a correctness failure: counted, noted, and the run marked
  /// incorrect.
  void fail(const std::string &Why) {
    ++Failed;
    Correct = false;
    Notes.push_back("FAIL: " + Why);
  }
};

/// printf into a std::string.
std::string format(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Sorts \p V and returns its \p Q quantile (0..1) by linear
/// interpolation between closest ranks; 0 for an empty set.
double quantile(std::vector<double> V, double Q);

double median(std::vector<double> V);

/// The tail quantile reported as "p99": 0.99 when at least ten samples
/// lie beyond it, otherwise the highest quantile that keeps ten samples
/// beyond it (never below the median).
double tailQuantileFor(std::size_t N);

/// Samples per window of tailLatency(): p99 leaves exactly ten beyond.
inline constexpr std::size_t TailWindow = 1000;

struct TailLatency {
  double Value = 0;
  std::string How; ///< Which quantile over how many samples, for notes.
};

/// The "p99" of latency samples in completion order. With at least two
/// windows of TailWindow samples it is the median over those windows of
/// each window's p99, so a host stall that spoils one stretch of the run
/// does not set the figure; otherwise tailQuantileFor() over all.
TailLatency tailLatency(const std::vector<double> &Samples);

/// Process CPU time (user + system) of this process, in seconds.
double selfCpuSeconds();

/// User + system CPU of process \p Pid from /proc, in seconds; negative
/// when unreadable.
double procCpuSeconds(pid_t Pid);

/// Peak resident set (VmHWM) of process \p Pid (0 = self) in MiB;
/// negative when unreadable.
double procPeakRssMb(pid_t Pid);

/// A child process whose stdout or stderr is a pipe we read.
struct ChildProc {
  pid_t Pid = -1;
  int Fd = -1;
};

/// Starts \p Argv (Argv[0] a path) with stdin on /dev/null and file
/// descriptor \p CaptureFd (1 or 2) on a pipe.
bool spawnProcess(const std::vector<std::string> &Argv, int CaptureFd,
                  ChildProc &C, std::string &Error);

/// Reads one line (without the newline) from \p Fd; false on EOF or
/// when \p TimeoutS passes first.
bool readLine(int Fd, std::string &Line, double TimeoutS);

/// Waits for the child to end, closes its pipe, returns its exit code
/// (128 + signal when killed).
int reapProcess(ChildProc &C);

/// One traced interval: name, start and end (microseconds since the
/// recorder's epoch), the enclosing span, and the request it serves.
struct Span {
  std::string Name;
  double StartUs = 0;
  double EndUs = 0;
  int Parent = -1;
  std::string Request;
};

/// Keeps spans in memory; written out once, at the end of the run.
class SpanRecorder {
public:
  SpanRecorder() : Epoch(Clock::now()) {}

  /// Opens a span under the innermost open one; returns its index.
  int open(const std::string &Name, const std::string &Request);
  /// Closes span \p Index and returns its duration in microseconds.
  double close(int Index);

  /// Self time per span name over spans [Begin, End): duration minus
  /// the part covered by the span's direct children, summed over all
  /// spans of that name.
  std::map<std::string, double> selfMicros(std::size_t Begin,
                                           std::size_t End) const;

  const std::vector<Span> &spans() const { return Spans; }

  /// Writes every span as one JSON document; false on I/O failure.
  bool write(const std::string &Path) const;

private:
  Clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// RAII span.
class Scoped {
public:
  Scoped(SpanRecorder *R, const std::string &Name, const std::string &Req)
      : R(R), Index(R ? R->open(Name, Req) : -1) {}
  ~Scoped() {
    if (R)
      R->close(Index);
  }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;

private:
  SpanRecorder *R;
  int Index;
};

// Workload entry points (CompileBench.cpp / ServeBench.cpp).
void runCompileWorkload(const RunOptions &O, Report &R);
void runCompileTrace(const RunOptions &O, SpanRecorder &Spans, Report &R);
void runServeWorkload(const RunOptions &O, Report &R);
void runServeTrace(const RunOptions &O, SpanRecorder &Spans, Report &R);

/// Child-process body of a compile set-up probe: generates the first
/// program of the set alone, compiles it, reports readiness on stdout.
int runSetupProbe(const RunOptions &O);

} // namespace perf

#endif // GNT_PERFBENCH_BENCH_H
