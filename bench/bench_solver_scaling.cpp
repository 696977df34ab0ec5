//===- bench/bench_solver_scaling.cpp - Experiment E8 -----------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Experiment E8 (DESIGN.md): the paper's Section 5.2 complexity claim —
// the elimination solver evaluates each equation once per node, giving
// O(E) set operations ("linear in the program size in most cases"). We
// sweep generated program sizes and nesting depths, reporting time per
// node, and compare against the iterative bitvector solver of the LCM
// baseline whose pass count grows with loop depth.
//
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "BenchUtil.h"

#include <benchmark/benchmark.h>

#include <random>

using namespace gnt;
using namespace gnt::bench;

namespace {

void report() {
  std::printf("== E8: solver complexity (Section 5.2) ==\n");
  std::printf("Paper claim: each equation evaluated once per node -> O(E).\n"
              "Expect near-constant ns/node for GIVE-N-TAKE; the iterative\n"
              "LCM baseline repeats passes until a fixed point.\n\n");
  std::printf("  %8s | %8s | %8s\n", "stmts", "nodes", "lcm iters");
  for (unsigned Stmts : {50u, 100u, 200u, 400u, 800u, 1600u}) {
    Built B = buildRandom(5, Stmts);
    RefAnalysisResult Refs = analyzeReferences(B.Prog, B.G);
    GntProblem Read, Write;
    buildCommProblems(Refs, B.G, B.Ifg, CommOptions(), Read, Write);
    LcmResult L = lazyCodeMotion(B.G, Refs.Items.size(), Read.TakeInit,
                                 Read.StealInit, Read.GiveInit);
    std::printf("  %8u | %8u | %8u\n", Stmts, B.G.size(), L.Iterations);
  }
  std::printf("\n");
}

void BM_GntSolve(benchmark::State &State) {
  unsigned Stmts = static_cast<unsigned>(State.range(0));
  Built B = buildRandom(5, Stmts);
  RefAnalysisResult Refs = analyzeReferences(B.Prog, B.G);
  GntProblem Read, Write;
  buildCommProblems(Refs, B.G, B.Ifg, CommOptions(), Read, Write);
  for (auto _ : State) {
    GntResult R = solveGiveNTake(B.Ifg, Read);
    benchmark::DoNotOptimize(R.Take.size());
  }
  State.counters["nodes"] = B.G.size();
  State.counters["items"] = Refs.Items.size();
  State.counters["ns/node"] = benchmark::Counter(
      static_cast<double>(State.iterations()) * B.G.size(),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_GntSolve)->Arg(50)->Arg(100)->Arg(200)->Arg(400)->Arg(800)
    ->Arg(1600)->Arg(3200);

void BM_LcmSolve(benchmark::State &State) {
  unsigned Stmts = static_cast<unsigned>(State.range(0));
  Built B = buildRandom(5, Stmts);
  RefAnalysisResult Refs = analyzeReferences(B.Prog, B.G);
  GntProblem Read, Write;
  buildCommProblems(Refs, B.G, B.Ifg, CommOptions(), Read, Write);
  for (auto _ : State) {
    LcmResult R = lazyCodeMotion(B.G, Refs.Items.size(), Read.TakeInit,
                                 Read.StealInit, Read.GiveInit);
    benchmark::DoNotOptimize(R.InsertAtEntry.size());
  }
  State.counters["nodes"] = B.G.size();
  State.counters["ns/node"] = benchmark::Counter(
      static_cast<double>(State.iterations()) * B.G.size(),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_LcmSolve)->Arg(50)->Arg(100)->Arg(200)->Arg(400)->Arg(800)
    ->Arg(1600)->Arg(3200);

/// Nesting-depth sweep at fixed size: the elimination solver's pass count
/// does not depend on depth, the iterative one's does.
void BM_GntSolveDepth(benchmark::State &State) {
  unsigned Depth = static_cast<unsigned>(State.range(0));
  Built B = buildRandom(11, 400, Depth);
  RefAnalysisResult Refs = analyzeReferences(B.Prog, B.G);
  GntProblem Read, Write;
  buildCommProblems(Refs, B.G, B.Ifg, CommOptions(), Read, Write);
  for (auto _ : State) {
    GntResult R = solveGiveNTake(B.Ifg, Read);
    benchmark::DoNotOptimize(R.Take.size());
  }
  State.counters["nodes"] = B.G.size();
}
BENCHMARK(BM_GntSolveDepth)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

void BM_LcmSolveDepth(benchmark::State &State) {
  unsigned Depth = static_cast<unsigned>(State.range(0));
  Built B = buildRandom(11, 400, Depth);
  RefAnalysisResult Refs = analyzeReferences(B.Prog, B.G);
  GntProblem Read, Write;
  buildCommProblems(Refs, B.G, B.Ifg, CommOptions(), Read, Write);
  unsigned Iters = 0;
  for (auto _ : State) {
    LcmResult R = lazyCodeMotion(B.G, Refs.Items.size(), Read.TakeInit,
                                 Read.StealInit, Read.GiveInit);
    Iters = R.Iterations;
    benchmark::DoNotOptimize(R.InsertAtEntry.size());
  }
  State.counters["nodes"] = B.G.size();
  State.counters["iters"] = Iters;
}
BENCHMARK(BM_LcmSolveDepth)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

/// Graph construction cost (normalization + interval analysis).
void BM_IntervalBuild(benchmark::State &State) {
  unsigned Stmts = static_cast<unsigned>(State.range(0));
  GenConfig C;
  C.Seed = 5;
  C.TargetStmts = Stmts;
  Program Prog = generateRandomProgram(C);
  for (auto _ : State) {
    CfgBuildResult CfgRes = buildCfg(Prog);
    auto IfgRes = IntervalFlowGraph::build(CfgRes.G);
    benchmark::DoNotOptimize(IfgRes.Ifg->size());
  }
}
BENCHMARK(BM_IntervalBuild)->Arg(100)->Arg(400)->Arg(1600);

//===----------------------------------------------------------------------===//
// Wide-universe sweeps: arena vs classic evaluator
//===----------------------------------------------------------------------===//
//
// The communication problems of generated programs have universes of at
// most a few hundred items, too narrow to expose per-word costs. These
// sweeps keep the graph fixed and synthesize problems with universes up
// to 16k items (256 words per set), the regime the DataflowMatrix arena
// targets.

/// A seeded problem with \p Universe items over \p B's graph: every
/// node takes/gives/steals a sparse random selection.
GntProblem syntheticProblem(const Built &B, unsigned Universe,
                            unsigned Seed) {
  std::mt19937 Rng(Seed);
  unsigned N = B.Ifg.size();
  GntProblem P(N, Universe);
  for (unsigned Node = 0; Node != N; ++Node) {
    for (unsigned Draw = 0, E = 2 + Rng() % 6; Draw != E; ++Draw)
      P.TakeInit[Node].set(Rng() % Universe);
    for (unsigned Draw = 0, E = 1 + Rng() % 4; Draw != E; ++Draw)
      P.GiveInit[Node].set(Rng() % Universe);
    for (unsigned Draw = 0, E = Rng() % 3; Draw != E; ++Draw)
      P.StealInit[Node].set(Rng() % Universe);
  }
  return P;
}

void BM_ArenaSolveWide(benchmark::State &State) {
  unsigned Universe = static_cast<unsigned>(State.range(0));
  Built B = buildRandom(5, 400);
  GntProblem P = syntheticProblem(B, Universe, 99);
  for (auto _ : State) {
    GntResult R = solveGiveNTake(B.Ifg, P);
    benchmark::DoNotOptimize(R.Take.size());
  }
  State.counters["items"] = Universe;
  State.counters["nodes"] = B.Ifg.size();
}
BENCHMARK(BM_ArenaSolveWide)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

/// The pre-arena evaluator on the same problems: the speedup the arena
/// must hold is BM_ClassicSolveWide / BM_ArenaSolveWide >= 1.5 at 4096+
/// items.
void BM_ClassicSolveWide(benchmark::State &State) {
  unsigned Universe = static_cast<unsigned>(State.range(0));
  Built B = buildRandom(5, 400);
  GntProblem P = syntheticProblem(B, Universe, 99);
  for (auto _ : State) {
    GntResult R = solveGiveNTakeClassic(B.Ifg, P);
    benchmark::DoNotOptimize(R.Take.size());
  }
  State.counters["items"] = Universe;
}
BENCHMARK(BM_ClassicSolveWide)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

} // namespace

int main(int argc, char **argv) {
  report();
  return runBenchmarksWithTrajectory(argc, argv, "BENCH_solver.json");
}
