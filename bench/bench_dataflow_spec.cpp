//===- bench/bench_dataflow_spec.cpp - User-analysis solve cost -------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Solve cost of the user-specified analyses (analysis/SpecCompile.h):
// for each built-in spec, the iterative worklist oracle against the
// flat arena round-robin sweeps — the two backends every production
// run compares byte for byte — across program sizes, plus the
// end-to-end differential run (universe construction + both solves +
// identity check).
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "BenchUtil.h"

#include "analysis/SpecCompile.h"
#include "analysis/SpecLang.h"

#include <benchmark/benchmark.h>

using namespace gnt;
using namespace gnt::bench;

namespace {

/// Compiles builtin \p Index for \p B (universe construction included).
CompiledAnalysis compileBuiltin(const Built &B, unsigned Index) {
  const auto &[Name, Text] = builtinAnalysisSpecs()[Index];
  SpecParseResult PR = parseAndLintAnalysisSpec(Text);
  if (!PR.ok())
    throw std::runtime_error("builtin spec failed to lint: " + Name);
  SpecUniverseData Data =
      buildSpecUniverse(PR.Spec->Universe, B.Prog, B.G, B.Ifg);
  return compileAnalysisSpec(*PR.Spec, Data, B.Ifg.size());
}

void setSpecCounters(benchmark::State &State, const Built &B,
                     const CompiledAnalysis &C) {
  State.counters["nodes"] = B.G.size();
  State.counters["items"] = C.UniverseSize;
}

void BM_SpecIterative(benchmark::State &State) {
  Built B = buildRandom(3, static_cast<unsigned>(State.range(1)));
  CompiledAnalysis C = compileBuiltin(B, static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    DataflowResult R = runAnalysisIterative(C, B.Ifg);
    benchmark::DoNotOptimize(R.In.size());
  }
  setSpecCounters(State, B, C);
}

void BM_SpecArena(benchmark::State &State) {
  Built B = buildRandom(3, static_cast<unsigned>(State.range(1)));
  CompiledAnalysis C = compileBuiltin(B, static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    ArenaSpecResult R = runAnalysisArena(C, B.Ifg);
    benchmark::DoNotOptimize(R.Sweeps);
  }
  setSpecCounters(State, B, C);
}

/// One full production run: both backends plus the byte-identity check.
void BM_SpecDifferential(benchmark::State &State) {
  Built B = buildRandom(3, static_cast<unsigned>(State.range(1)));
  const std::string &Name =
      builtinAnalysisSpecs()[static_cast<unsigned>(State.range(0))].first;
  for (auto _ : State) {
    AnalysisRun R = runAnalysisSpec(Name, B.Prog, B.G, B.Ifg);
    if (!R.ok())
      throw std::runtime_error("differential failed for " + Name);
    benchmark::DoNotOptimize(R.solutionHash());
  }
  State.counters["nodes"] = B.G.size();
}

void forEachBuiltinAndSize(benchmark::internal::Benchmark *Bench) {
  for (unsigned Builtin = 0; Builtin != 4; ++Builtin)
    for (unsigned Stmts : {100u, 400u, 1600u})
      Bench->Args({static_cast<long>(Builtin), static_cast<long>(Stmts)});
}

} // namespace

BENCHMARK(BM_SpecIterative)->Apply(forEachBuiltinAndSize);
BENCHMARK(BM_SpecArena)->Apply(forEachBuiltinAndSize);
BENCHMARK(BM_SpecDifferential)->Apply(forEachBuiltinAndSize);

int main(int argc, char **argv) {
  return gnt::bench::runBenchmarksWithTrajectory(argc, argv,
                                                 "BENCH_dataflow_spec.json");
}
