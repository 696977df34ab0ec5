//===- perfbench/gnt-perf/Main.cpp - gnt-perf entry point -----------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// gnt-perf --workload W --seed N --seconds S --trace 0|1
//          --root DIR --gntd PATH [--trace-out FILE]
//
// Runs one workload (cold_compile, gntd_zipf) and
// prints a human-readable report followed, as the last line, by one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run reports the per-layer ones. perfbench/run.py
// builds this binary and calls it; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Json.h"
#include "support/SimdKernels.h"

#include <malloc.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

using namespace perf;

namespace {

const char *const Workloads[] = {"cold_compile", "gntd_zipf"};

/// The metric names BENCHMARK.json promises, in report order.
const char *const EndToEnd[] = {"throughput_rps", "latency_p50_ms",
                                "latency_p99_ms", "cpu_ms_per_req",
                                "peak_rss_mb",    "setup_s"};

std::vector<std::string> perLayerNames() {
  std::vector<std::string> N;
  for (const char *L :
       {"frontend.parse", "cfg.build", "interval.build", "comm.refs",
        "comm.problems", "dataflow.solve_read", "dataflow.solve_write",
        "comm.emit", "comm.annotate", "analysis.audit_ifg",
        "analysis.audit_checks", "analysis.audit_diff", "dataflow.verify"})
    for (const char *Suffix : {".ms", ".share", ".scaling_exp"})
      N.push_back(std::string(L) + Suffix);
  for (const char *M :
       {"service.pipeline_other.ms", "cfg.nodes", "comm.items",
        "comm.references", "dataflow.row_words", "analysis.reference_sweeps",
        "analysis.engine_node_visits", "service.decode_us",
        "service.render_us", "service.serve_hit_us", "service.serve_miss_ms",
        "service.result_cache_hit_ratio", "service.stage_hit_ratio.parse",
        "service.stage_hit_ratio.cfg", "service.stage_hit_ratio.interval",
        "service.stage_hit_ratio.solve", "service.stage_hit_ratio.annotate",
        "net.rtt_hit_us", "net.queue_and_wire_ms",
        "dataflow.incremental_resolved_ratio", "net.queue_depth_peak",
        "net.shed_total", "net.metrics_scrape_ms", "trace.overhead_ratio",
        "error_rate"})
    N.push_back(M);
  return N;
}

void usage() {
  std::fprintf(stderr,
               "usage: gnt-perf --workload W --seed N --seconds S --trace 0|1 "
               "--root DIR --gntd PATH [--trace-out FILE]\n"
               "workloads: cold_compile gntd_zipf\n");
}

bool parseArgs(int Argc, char **Argv, RunOptions &O, bool &Probe) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--probe") {
      Probe = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed") {
      unsigned long S = std::strtoul(V.c_str(), &End, 10);
      if (*End || S > UINT_MAX)
        return false;
      O.Seed = static_cast<unsigned>(S);
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      if (*End || !(O.Seconds > 0) || O.Seconds > 60)
        return false;
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        return false;
      O.Trace = V == "1";
    } else if (A == "--root")
      O.Root = V;
    else if (A == "--gntd")
      O.Gntd = V;
    else if (A == "--trace-out")
      O.TraceOut = V;
    else
      return false;
  }
  for (const char *W : Workloads)
    if (O.Workload == W)
      return true;
  return false;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      auto Colon = Line.find(':');
      return Colon == std::string::npos ? Line : Line.substr(Colon + 2);
    }
  return "unknown";
}

std::string quoted(const std::string &S) {
  std::string Q = "\"";
  Q += gnt::jsonEscape(S);
  Q += '"';
  return Q;
}

void stamp(const RunOptions &O, Report &R) {
#ifdef __OPTIMIZE__
  const bool Optimized = true;
#else
  const bool Optimized = false;
#endif
  utsname U{};
  uname(&U);
  const char *Override = std::getenv("GNT_KERNEL");
  R.Stamp["workload"] = quoted(O.Workload);
  R.Stamp["seed"] = std::to_string(O.Seed);
  R.Stamp["seconds"] = format("%g", O.Seconds);
  R.Stamp["trace"] = O.Trace ? "true" : "false";
  R.Stamp["build_type"] = quoted(GNT_PERF_BUILD_TYPE);
  R.Stamp["optimized"] = Optimized ? "true" : "false";
  R.Stamp["compiler"] = quoted(GNT_PERF_COMPILER);
  R.Stamp["cpu"] = quoted(cpuModel());
  R.Stamp["nproc"] = std::to_string(std::thread::hardware_concurrency());
  R.Stamp["kernel"] = quoted(std::string(U.sysname) + " " + U.release);
  R.Stamp["simd_kernel"] = quoted(gnt::solverKernelName());
  R.Stamp["gnt_kernel_env"] = Override ? quoted(Override) : "null";
  if (!Optimized)
    R.Invalid.push_back("the build is unoptimized");
}

} // namespace

int main(int Argc, char **Argv) {
  // Fix glibc's allocator thresholds: every block under 32 MiB comes
  // from a heap that is never trimmed. Left dynamic, the first large
  // free raises the mmap threshold mid-run, and the compile workloads'
  // VmHWM depended on which program freed a large block first (34 or
  // 46 MiB, depending on the seed); a low fixed threshold instead makes
  // every compile page-fault its arenas in afresh.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  RunOptions O;
  bool Probe = false;
  if (!parseArgs(Argc, Argv, O, Probe)) {
    usage();
    return 2;
  }
  {
    char Buf[4096];
    ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
    O.SelfExe = N > 0 ? std::string(Buf, static_cast<std::size_t>(N)) : Argv[0];
  }
  bool Serve = O.Workload == "gntd_zipf";
  if (Probe)
    return runSetupProbe(O);
  if (O.Gntd.empty() && (Serve || O.Trace)) {
    usage();
    return 2;
  }

  Report R;
  stamp(O, R);
  std::vector<std::string> Expected;
  if (O.Trace) {
    SpanRecorder Spans;
    runCompileTrace(O, Spans, R);
    runServeTrace(O, Spans, R);
    R.set("error_rate",
          static_cast<double>(R.Failed) /
              static_cast<double>(std::max<unsigned long long>(R.Attempted, 1)),
          "ratio");
    if (!O.TraceOut.empty()) {
      if (Spans.write(O.TraceOut))
        R.note(format("spans: %zu written to %s", Spans.spans().size(),
                      O.TraceOut.c_str()));
      else
        R.fail("cannot write spans to " + O.TraceOut);
    }
    Expected = perLayerNames();
  } else {
    if (Serve)
      runServeWorkload(O, R);
    else
      runCompileWorkload(O, R);
    Expected.assign(std::begin(EndToEnd), std::end(EndToEnd));
  }

  // Exactly the promised metrics: a missing one is a failed run.
  std::map<std::string, Metric> Out;
  for (const std::string &Name : Expected) {
    auto It = R.Metrics.find(Name);
    if (It == R.Metrics.end()) {
      R.fail("metric " + Name + " was not measured");
      Out[Name] = {0, "count"};
    } else if (!std::isfinite(It->second.Value)) {
      R.fail("metric " + Name + " is not a finite number");
      Out[Name] = {0, It->second.Unit};
    } else {
      Out[Name] = It->second;
    }
  }
  R.Stamp["valid"] = R.Invalid.empty() ? "true" : "false";
  std::string Reasons = "[";
  for (const std::string &Why : R.Invalid)
    Reasons += (Reasons.size() > 1 ? "," : "") + quoted(Why);
  R.Stamp["invalid_reasons"] = Reasons + "]";

  for (const std::string &Line : R.Notes)
    std::printf("%s\n", Line.c_str());
  for (const auto &[Name, M] : Out)
    std::printf("metric %-40s %14.6f %s\n", Name.c_str(), M.Value,
                M.Unit.c_str());
  std::string Stamp = "{";
  for (const auto &[K, V] : R.Stamp)
    Stamp += (Stamp.size() > 1 ? "," : "") + quoted(K) + ":" + V;
  std::printf("stamp %s}\n", Stamp.c_str());
  if (!R.Invalid.empty())
    std::printf("INVALID RUN: not usable for a claim (see stamp)\n");

  std::string Json = format("{\"correct\": %s, \"attempted\": %llu, "
                            "\"failed\": %llu, \"metrics\": {",
                            R.Correct ? "true" : "false",
                            std::max<unsigned long long>(R.Attempted, 1),
                            R.Failed);
  bool First = true;
  for (const auto &[Name, M] : Out) {
    Json += (First ? "" : ", ") + quoted(Name) + ": {\"value\": " +
            format("%.17g", M.Value) + ", \"unit\": " + quoted(M.Unit) + "}";
    First = false;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
