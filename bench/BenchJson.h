//===- bench/BenchJson.h - Perf-trajectory JSON reporter -------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// A ConsoleReporter wrapper that additionally records every benchmark
// run and writes a compact trajectory file to the working directory
// when the process exits benchmarking. bench_solver_scaling
// (BENCH_solver.json) and bench_placement_quality
// (BENCH_placement_tournament.json) emit the same schema, so local runs
// and the CI artifact line up point for point:
//
//   {"schema": "gnt-bench-v1",
//    "benchmarks": [
//      {"name": "BM_GntSolve/1600",
//       "config": {"items": 188.0, ...},    // the run's counters
//       "metric": 12345.678,                // real time per iteration
//       "unit": "ns"}, ...]}
//
// Aggregate rows (mean/median/stddev from --benchmark_repetitions) are
// skipped: the trajectory is one point per configuration.
//
//===----------------------------------------------------------------------===//

#ifndef GNT_BENCH_BENCHJSON_H
#define GNT_BENCH_BENCHJSON_H

#include "support/Json.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

namespace gnt::bench {

class TrajectoryReporter : public benchmark::ConsoleReporter {
public:
  explicit TrajectoryReporter(std::string Path) : Path(std::move(Path)) {}

  void ReportRuns(const std::vector<Run> &Runs) override {
    for (const Run &R : Runs) {
      if (R.error_occurred || R.run_type == Run::RT_Aggregate)
        continue;
      Row Record;
      Record.Name = R.benchmark_name();
      Record.Metric = R.GetAdjustedRealTime();
      Record.Unit = benchmark::GetTimeUnitString(R.time_unit);
      for (const auto &[Name, Counter] : R.counters)
        Record.Config.emplace_back(Name, Counter.value);
      Rows.push_back(std::move(Record));
    }
    ConsoleReporter::ReportRuns(Runs);
  }

  void Finalize() override {
    ConsoleReporter::Finalize();
    write();
  }

private:
  struct Row {
    std::string Name;
    std::vector<std::pair<std::string, double>> Config;
    double Metric = 0;
    std::string Unit;
  };

  static void jsonDouble(JsonWriter &W, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.3f", V);
    W.raw(Buf);
  }

  void write() const {
    JsonWriter W;
    W.beginObject();
    W.key("schema").value("gnt-bench-v1");
    W.beginArray("benchmarks");
    for (const Row &R : Rows) {
      W.beginObject();
      W.key("name").value(R.Name);
      W.key("config");
      W.beginObject();
      for (const auto &[Name, Value] : R.Config) {
        W.key(Name);
        jsonDouble(W, Value);
      }
      W.endObject();
      W.key("metric");
      jsonDouble(W, R.Metric);
      W.key("unit").value(R.Unit);
      W.endObject();
    }
    W.endArray();
    W.endObject();
    if (std::FILE *F = std::fopen(Path.c_str(), "w")) {
      std::fputs(W.str().c_str(), F);
      std::fputc('\n', F);
      std::fclose(F);
      std::printf("trajectory written to %s\n", Path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    }
  }

  std::string Path;
  std::vector<Row> Rows;
};

/// Shared driver: initialize, run everything through a
/// TrajectoryReporter, write \p Path.
inline int runBenchmarksWithTrajectory(int argc, char **argv,
                                       const std::string &Path) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  TrajectoryReporter Reporter(Path);
  benchmark::RunSpecifiedBenchmarks(&Reporter);
  return 0;
}

} // namespace gnt::bench

#endif // GNT_BENCH_BENCHJSON_H
