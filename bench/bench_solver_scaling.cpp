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

#include "support/SimdKernels.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <random>
#include <string_view>

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

//===----------------------------------------------------------------------===//
// Roofline study: kernel variants vs the memory bandwidth ceiling
//===----------------------------------------------------------------------===//
//
// The solver's sweeps are pure word-streaming bit algebra, so past a
// few thousand items they are bandwidth problems, not ALU problems.
// This section measures, per registered kernel variant (scalar and
// whatever SIMD the machine has), the Wide family at 8192/16384 items,
// reporting:
//
//   bytes_touched   first-order traffic model of one solve (below)
//   cycles          TSC cycles per solve (x86; 0 where unavailable)
//   bytes_per_cycle bytes_touched / cycles — the roofline y-axis
//   bw_gbps         bytes_touched / wall time
//   ceiling_gbps    a memcpy probe of this machine's streaming
//                   bandwidth — the roof itself; bw_gbps/ceiling_gbps
//                   is how much of the hardware floor the variant uses
//
// The traffic model counts words, not cache lines: per node the S1-S4
// steps write the 20 arena rows once and read on the order of 30 row
// operands, and every FORWARD/JUMP/interval edge feeds about 6 gather
// reads. It deliberately overweights nothing — the same model is
// applied to every variant, so the *ratios* between kernels and the
// share of the ceiling are meaningful even though the absolute byte
// count is an estimate.

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
inline std::uint64_t tscNow() { return __rdtsc(); }
#else
inline std::uint64_t tscNow() { return 0; }
#endif

namespace {

double solveBytesTouched(const IntervalFlowGraph &Ifg, unsigned Universe) {
  const unsigned WordsPerRow =
      (Universe + BitVector::WordBits - 1) / BitVector::WordBits;
  const unsigned N = Ifg.size();
  std::size_t Edges = 0;
  for (unsigned Node = 0; Node != N; ++Node)
    Edges += Ifg.succs(Node).size();
  const double RowOps = 20.0 * N   // every arena row written once
                        + 30.0 * N // fused-step row reads
                        + 6.0 * Edges; // gather reads along edges
  return RowOps * WordsPerRow * sizeof(BitVector::Word);
}

/// Streaming-bandwidth roof: the best of a few large memcpy passes,
/// measured once and cached. 32 MiB per buffer comfortably exceeds any
/// L3 this code will meet while staying trivial to allocate.
double memcpyCeilingGbps() {
  static const double Ceiling = [] {
    const std::size_t Bytes = 32u << 20;
    std::vector<unsigned char> Src(Bytes, 0x5a), Dst(Bytes);
    double Best = 0.0;
    for (int Pass = 0; Pass != 5; ++Pass) {
      auto T0 = std::chrono::steady_clock::now();
      std::memcpy(Dst.data(), Src.data(), Bytes);
      benchmark::DoNotOptimize(Dst.data());
      auto T1 = std::chrono::steady_clock::now();
      double Sec = std::chrono::duration<double>(T1 - T0).count();
      // memcpy reads and writes every byte: 2x traffic.
      if (Sec > 0)
        Best = std::max(Best, 2.0 * Bytes / Sec / 1e9);
    }
    return Best;
  }();
  return Ceiling;
}

/// One roofline cell: items under a forced kernel variant.
void rooflineBody(benchmark::State &State, const SolverKernels &K,
                  unsigned Universe) {
  detail::ScopedKernelOverride Force(K);
  Built B = buildRandom(5, 400);
  GntProblem P = syntheticProblem(B, Universe, 99);
  const double Bytes = solveBytesTouched(B.Ifg, Universe);
  std::uint64_t Cycles = 0;
  for (auto _ : State) {
    std::uint64_t C0 = tscNow();
    GntResult R = solveGiveNTake(B.Ifg, P);
    benchmark::DoNotOptimize(R.Take.size());
    Cycles += tscNow() - C0;
  }
  const double Iters = static_cast<double>(State.iterations());
  const double CyclesPerSolve = Iters ? Cycles / Iters : 0.0;
  State.counters["items"] = Universe;
  State.counters["bytes_touched"] = Bytes;
  State.counters["cycles"] = CyclesPerSolve;
  State.counters["bytes_per_cycle"] =
      CyclesPerSolve > 0 ? Bytes / CyclesPerSolve : 0.0;
  State.counters["bw_gbps"] = benchmark::Counter(
      Bytes * Iters / 1e9, benchmark::Counter::kIsRate);
  State.counters["ceiling_gbps"] = memcpyCeilingGbps();
}

/// One Wide-family register per kernel variant so the ~1.3x acceptance
/// ratio (best SIMD vs scalar at >= 8192 items) reads straight off the
/// BM_KernelRoofline rows of BENCH_solver.json.
void registerRooflineBenchmarks() {
  for (const SolverKernels *K : availableSolverKernels())
    for (unsigned Universe : {8192u, 16384u}) {
      std::string Name = std::string("BM_KernelRoofline/") + K->Name +
                         "/wide/" + std::to_string(Universe);
      benchmark::RegisterBenchmark(
          Name.c_str(), [K, Universe](benchmark::State &S) {
            rooflineBody(S, *K, Universe);
          });
    }
}

} // namespace

int main(int argc, char **argv) {
  report();
  std::printf("kernel variants: ");
  for (const SolverKernels *K : availableSolverKernels())
    std::printf("%s%s ", K->Name,
                std::string_view(K->Name) == solverKernelName() ? "*" : "");
  std::printf("(* = active; GNT_KERNEL overrides)\n\n");
  registerRooflineBenchmarks();
  return runBenchmarksWithTrajectory(argc, argv, "BENCH_solver.json");
}
