//===- perfbench/gnt-perf/CompileBench.cpp - In-process compile workloads -===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// cold_compile: one client thread compiling the program set in a closed
// loop through Pipeline::compile with default options, no cache. The
// traced run re-does each compile as the chain of public calls the
// pipeline makes, with a span around every call, and checks that the
// chain reproduces the pipeline's annotated text byte for byte; one
// audited traced pass adds the audit layers.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Inputs.h"

#include "analysis/Auditor.h"
#include "analysis/ReferenceSolver.h"
#include "cfg/CfgBuilder.h"
#include "comm/CommGen.h"
#include "frontend/Parser.h"
#include "service/Pipeline.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <optional>
#include <thread>

using namespace perf;

namespace {

constexpr unsigned LargestSize = 1600;
/// A probe takes a few milliseconds, so many of them steady the median.
constexpr unsigned SetupProbes = 25;

const char *const CompileLayers[] = {
    "frontend.parse",      "cfg.build",           "interval.build",
    "comm.refs",           "comm.problems",       "dataflow.solve_read",
    "dataflow.solve_write", "comm.emit",          "comm.annotate"};
const char *const AuditLayers[] = {"analysis.audit_ifg",
                                   "analysis.audit_checks",
                                   "analysis.audit_diff", "dataflow.verify"};

/// Spawns set-up probes of this binary and returns the median time from
/// spawn to the probe's first successful compile.
double measureSetup(const RunOptions &O, Report &R) {
  std::vector<double> Times;
  for (unsigned I = 0; I < SetupProbes; ++I) {
    ChildProc C;
    std::string Err, Line;
    auto T0 = Clock::now();
    if (!spawnProcess({O.SelfExe, "--probe", "--workload", O.Workload,
                       "--seed", std::to_string(O.Seed)},
                      1, C, Err)) {
      R.fail(Err);
      return 0;
    }
    bool Ready = readLine(C.Fd, Line, 60) && Line == "ready";
    auto T1 = Clock::now();
    int Exit = reapProcess(C);
    if (!Ready || Exit != 0) {
      R.fail(format("set-up probe %u exited %d before its first compile", I,
                    Exit));
      return 0;
    }
    Times.push_back(secondsBetween(T0, T1));
  }
  R.note(format("setup_s: median of %zu probes (spawn -> first compile), "
                "min %.4f max %.4f",
                Times.size(), *std::min_element(Times.begin(), Times.end()),
                *std::max_element(Times.begin(), Times.end())));
  return median(Times);
}

/// Compares every dataflow variable of \p Run against the iterative
/// reference solver. Empty on agreement.
std::string checkAgainstReference(const gnt::GntRun &Run) {
  gnt::ReferenceResult Ref =
      gnt::solveGiveNTakeIterative(Run.OrientedIfg, Run.OrientedProblem);
  if (!Ref.Converged)
    return "reference solver did not converge";
  std::vector<const std::vector<gnt::BitVector> *> Mine, Theirs;
  std::vector<std::string> Names;
  gnt::forEachGntField(Run.Result, [&](const char *N, const auto &V) {
    Names.push_back(N);
    Mine.push_back(&V);
  });
  gnt::forEachGntField(Ref.Result,
                       [&](const char *, const auto &V) { Theirs.push_back(&V); });
  for (std::size_t F = 0; F < Mine.size(); ++F) {
    if (Mine[F]->size() != Theirs[F]->size())
      return Names[F] + " has a different node count";
    for (std::size_t N = 0; N < Mine[F]->size(); ++N)
      if (!((*Mine[F])[N] == (*Theirs[F])[N]))
        return Names[F] + " differs at node " + std::to_string(N);
  }
  return {};
}

/// The independent correctness gate for one program: READ and WRITE
/// runs against the reference solver, C1/C3/O1 via CommPlan::verify,
/// and the annotated text against the timed loop's. Returns the
/// problems found.
std::vector<std::string> gateProgram(const BenchProgram &P,
                                     const gnt::PipelineOptions &Opts,
                                     const std::string &Expected) {
  std::vector<std::string> Bad;
  gnt::PipelineResult Res = gnt::Pipeline(Opts).compile(P.Source);
  if (!Res.ok() || !Res.Plan)
    return {P.Name + ": gate compile failed"};
  if (Res.Annotated != Expected)
    Bad.push_back(P.Name + ": gate compile differs from the timed compiles");
  for (const std::optional<gnt::GntRun> *Run :
       {&Res.Plan->ReadRun, &Res.Plan->WriteRun}) {
    if (!Run->has_value()) {
      Bad.push_back(P.Name + ": missing READ or WRITE run");
      continue;
    }
    std::string Diff = checkAgainstReference(**Run);
    if (!Diff.empty())
      Bad.push_back(P.Name + ": " + Diff);
  }
  if (!Res.Plan->verify().ok())
    Bad.push_back(P.Name + ": CommPlan::verify reports a violation");
  return Bad;
}

/// Runs the gate over the whole set, outside the timed region, on every
/// core.
void gateSet(const std::vector<BenchProgram> &Set,
             const gnt::PipelineOptions &Opts,
             const std::vector<std::string> &Expected, Report &R) {
  std::vector<std::vector<std::string>> Bad(Set.size());
  std::atomic<std::size_t> Next{0};
  std::vector<std::thread> Workers;
  unsigned N = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned W = 0; W < N; ++W)
    Workers.emplace_back([&] {
      for (std::size_t I; (I = Next++) < Set.size();)
        Bad[I] = gateProgram(Set[I], Opts, Expected[I]);
    });
  for (std::thread &T : Workers)
    T.join();
  for (const auto &Problems : Bad)
    for (const std::string &Why : Problems)
      R.fail(Why);
}

/// Per-compile counters of the traced chain; they repeat exactly.
struct ChainCounts {
  double Nodes = 0, Items = 0, References = 0, RowWords = 0;
  double ReferenceSweeps = 0, EngineNodeVisits = 0;

  void add(const ChainCounts &O) {
    Nodes += O.Nodes;
    Items += O.Items;
    References += O.References;
    RowWords += O.RowWords;
    ReferenceSweeps += O.ReferenceSweeps;
    EngineNodeVisits += O.EngineNodeVisits;
  }
};

/// Pipeline::compile's Comm-mode path, as the chain of public calls it
/// makes, with a span around each. Returns false (and \p Error) when a
/// stage fails or the audit finds an error.
bool tracedCompile(const std::string &Source, bool Audit, SpanRecorder &S,
                   const std::string &Req, std::string &Annotated,
                   ChainCounts &Counts, std::string &Error) {
  Scoped Root(&S, "compile", Req);
  gnt::ParseResult Parsed;
  {
    Scoped _(&S, "frontend.parse", Req);
    Parsed = gnt::parseProgram(Source);
  }
  if (!Parsed.success()) {
    Error = "parse failed";
    return false;
  }
  gnt::CfgBuildResult Built;
  {
    Scoped _(&S, "cfg.build", Req);
    Built = gnt::buildCfg(Parsed.Prog);
  }
  if (!Built.success()) {
    Error = "CFG construction failed";
    return false;
  }
  gnt::Cfg G = std::move(Built.G);
  std::optional<gnt::IntervalFlowGraph> Ifg;
  {
    Scoped _(&S, "interval.build", Req);
    auto B = gnt::IntervalFlowGraph::build(G);
    if (B.success())
      Ifg = std::move(*B.Ifg);
  }
  if (!Ifg) {
    Error = "interval analysis failed";
    return false;
  }
  gnt::CommPlan Plan;
  {
    Scoped _(&S, "comm.refs", Req);
    Plan.Refs = gnt::analyzeReferences(Parsed.Prog, G);
  }
  {
    Scoped _(&S, "comm.problems", Req);
    gnt::buildCommProblems(Plan.Refs, G, *Ifg, Plan.Opts, Plan.ReadProblem,
                           Plan.WriteProblem);
  }
  {
    Scoped _(&S, "dataflow.solve_read", Req);
    Plan.ReadRun = gnt::runGiveNTake(*Ifg, Plan.ReadProblem);
  }
  {
    Scoped _(&S, "dataflow.solve_write", Req);
    Plan.WriteRun = gnt::runGiveNTake(*Ifg, Plan.WriteProblem);
  }
  {
    Scoped _(&S, "comm.emit", Req);
    gnt::emitCommPhase(Plan, G, *Ifg, *Plan.WriteRun, gnt::Urgency::Lazy,
                       gnt::CommOpKind::WriteSend, gnt::CommOpKind::WriteRecv,
                       gnt::CommOpKind::AtomicWrite, Plan.Opts.Atomic);
    gnt::emitCommPhase(Plan, G, *Ifg, *Plan.ReadRun, gnt::Urgency::Eager,
                       gnt::CommOpKind::ReadSend, gnt::CommOpKind::ReadRecv,
                       gnt::CommOpKind::AtomicRead, Plan.Opts.Atomic);
  }
  {
    Scoped _(&S, "comm.annotate", Req);
    Annotated = Plan.annotate(Parsed.Prog);
  }

  ChainCounts C;
  C.Nodes = G.size();
  C.Items = Plan.Refs.Items.size();
  for (const gnt::NodeRefs &N : Plan.Refs.PerNode)
    C.References += static_cast<double>(N.Uses.size() + N.Defs.size());
  for (const gnt::GntRun *Run : {&*Plan.ReadRun, &*Plan.WriteRun})
    C.RowWords += 20.0 * Run->OrientedIfg.size() *
                  gnt::BitVector(Run->OrientedProblem.UniverseSize).wordCount();

  if (Audit) {
    std::vector<std::string> Names = Plan.Refs.Items.names();
    gnt::AuditOptions Checks, Diff;
    Checks.CheckStructure = false;
    Checks.CheckDifferential = false;
    Diff.CheckStructure = Diff.CheckCorrectness = Diff.CheckOptimality = false;
    bool Clean = true;
    for (const gnt::GntRun *Run : {&*Plan.ReadRun, &*Plan.WriteRun}) {
      {
        Scoped _(&S, "analysis.audit_ifg", Req);
        Clean &= gnt::auditIfg(Run->OrientedIfg).ok();
      }
      gnt::AuditResult A, B;
      {
        Scoped _(&S, "analysis.audit_checks", Req);
        A = gnt::auditGntRun(*Run, Names, Checks);
      }
      {
        Scoped _(&S, "analysis.audit_diff", Req);
        B = gnt::auditGntRun(*Run, Names, Diff);
      }
      Clean &= A.ok() && B.ok();
      C.ReferenceSweeps += B.Stats.ReferenceSweeps;
      C.EngineNodeVisits += A.Stats.Engine.NodeVisits;
    }
    {
      Scoped _(&S, "dataflow.verify", Req);
      Clean &= Plan.verify().ok();
    }
    if (!Clean) {
      Error = "audit or verification reported an error";
      return false;
    }
  }
  Counts.add(C);
  return true;
}

/// One traced pass over the set: per-layer self milliseconds in total
/// and per generated size, plus CFG nodes per size.
struct TracedPass {
  std::map<std::string, double> LayerMs;
  std::map<unsigned, std::map<std::string, double>> SizeUs;
  std::map<unsigned, double> SizeNodes, SizeItems;
  std::map<unsigned, unsigned> SizePrograms;
  double WallMs = 0;
  ChainCounts Counts;
};

TracedPass tracePass(const std::vector<BenchProgram> &Set, bool Audit,
                     unsigned PassNo, SpanRecorder &Spans,
                     std::vector<std::string> &Annotated, Report &R) {
  TracedPass P;
  auto T0 = Clock::now();
  for (std::size_t I = 0; I < Set.size(); ++I) {
    std::size_t Begin = Spans.spans().size();
    std::string Req = format("pass%u/%s", PassNo, Set[I].Name.c_str());
    ChainCounts C;
    std::string Err;
    if (!tracedCompile(Set[I].Source, Audit, Spans, Req, Annotated[I], C,
                       Err))
      R.fail(Set[I].Name + ": traced chain: " + Err);
    P.Counts.add(C);
    for (const auto &[Name, Us] : Spans.selfMicros(Begin, Spans.spans().size())) {
      P.LayerMs[Name] += Us / 1000.0;
      if (Set[I].Stmts)
        P.SizeUs[Set[I].Stmts][Name] += Us;
    }
    if (Set[I].Stmts) {
      P.SizeNodes[Set[I].Stmts] += C.Nodes;
      P.SizeItems[Set[I].Stmts] += C.Items;
      ++P.SizePrograms[Set[I].Stmts];
    }
  }
  P.WallMs = secondsBetween(T0, Clock::now()) * 1000.0;
  return P;
}

double untracedPassMs(const std::vector<BenchProgram> &Set,
                      const gnt::PipelineOptions &Opts,
                      std::vector<std::string> &Annotated, Report &R) {
  gnt::Pipeline Pipe(Opts);
  auto T0 = Clock::now();
  for (std::size_t I = 0; I < Set.size(); ++I) {
    gnt::PipelineResult Res = Pipe.compile(Set[I].Source);
    if (!Res.ok())
      R.fail(Set[I].Name + ": compile failed");
    Annotated[I] = std::move(Res.Annotated);
  }
  return secondsBetween(T0, Clock::now()) * 1000.0;
}

/// Log-log slope of \p Us against \p Nodes between the 200- and
/// 1600-statement programs.
double scalingExponent(double Us200, double Us1600, double Nodes200,
                       double Nodes1600) {
  if (Us200 <= 0 || Us1600 <= 0 || Nodes200 <= 0 || Nodes1600 <= Nodes200)
    return 0;
  return std::log(Us1600 / Us200) / std::log(Nodes1600 / Nodes200);
}

template <typename Fn>
double medianOver(const std::vector<TracedPass> &Passes, Fn &&Get) {
  std::vector<double> V;
  for (const TracedPass &P : Passes)
    V.push_back(Get(P));
  return median(V);
}

} // namespace

int perf::runSetupProbe(const RunOptions &O) {
  if (!gnt::Pipeline().compile(firstCompileProgram(O.Seed).Source).ok())
    return 1;
  std::printf("ready\n");
  std::fflush(stdout);
  return 0;
}

void perf::runCompileWorkload(const RunOptions &O, Report &R) {
  std::string Err;
  std::vector<BenchProgram> Set = compileProgramSet(O.Seed, O.Root, Err);
  if (Set.empty()) {
    R.fail(Err);
    return;
  }
  gnt::Pipeline Pipe;
  R.set("setup_s", measureSetup(O, R), "s");

  // Warm-up, untimed: every program but the largest, so lazy set-up
  // (kernel dispatch, allocator growth) is not charged to a request.
  std::vector<std::string> Expected(Set.size());
  std::vector<char> Have(Set.size(), 0);
  for (std::size_t I = 0; I < Set.size(); ++I)
    if (Set[I].Stmts < LargestSize) {
      gnt::PipelineResult Res = Pipe.compile(Set[I].Source);
      Expected[I] = Res.Annotated;
      Have[I] = 1;
    }

  // The closed loop: whole passes over the set until the time is up, so
  // every program weighs the same in the latency distribution. Rates and
  // the median latency are medians over passes, which a burst of
  // interference from outside the process moves less than a whole-run
  // figure.
  std::vector<double> LatMs, PassMs, PassCpuMs, PassP50Ms;
  auto T0 = Clock::now();
  double Elapsed = 0;
  while (Elapsed < O.Seconds) {
    auto PassStart = Clock::now();
    double PassCpu = selfCpuSeconds();
    std::size_t PassBegin = LatMs.size();
    for (std::size_t I = 0; I < Set.size(); ++I) {
      auto A = Clock::now();
      gnt::PipelineResult Res = Pipe.compile(Set[I].Source);
      LatMs.push_back(secondsBetween(A, Clock::now()) * 1000.0);
      ++R.Attempted;
      if (!Res.ok())
        R.fail(Set[I].Name + ": compile reported errors");
      else if (!Have[I]) {
        Expected[I] = std::move(Res.Annotated);
        Have[I] = 1;
      } else if (Res.Annotated != Expected[I])
        R.fail(Set[I].Name + ": output differs between compiles");
    }
    PassCpuMs.push_back((selfCpuSeconds() - PassCpu) * 1000.0);
    PassMs.push_back(secondsBetween(PassStart, Clock::now()) * 1000.0);
    PassP50Ms.push_back(
        median(std::vector<double>(LatMs.begin() + PassBegin, LatMs.end())));
    Elapsed = secondsBetween(T0, Clock::now());
  }
  double PeakMb = procPeakRssMb(0);

  gateSet(Set, gnt::PipelineOptions(), Expected, R);

  TailLatency Tail = tailLatency(LatMs);
  double N = static_cast<double>(Set.size());
  R.set("throughput_rps", N * 1000.0 / median(PassMs), "1/s");
  R.set("latency_p50_ms", median(PassP50Ms), "ms");
  R.set("latency_p99_ms", Tail.Value, "ms");
  R.set("cpu_ms_per_req", median(PassCpuMs) / N, "ms");
  R.set("peak_rss_mb", PeakMb, "MiB");
  R.note(format("cold_compile: %zu programs, %zu passes, %zu requests in "
                "%.3f s; p50 is the median of the passes' medians; %s",
                Set.size(), PassMs.size(), LatMs.size(), Elapsed,
                Tail.How.c_str()));
  R.note(format("pass ms: min %.2f q1 %.2f median %.2f q3 %.2f max %.2f",
                quantile(PassMs, 0), quantile(PassMs, 0.25), median(PassMs),
                quantile(PassMs, 0.75), quantile(PassMs, 1)));
  R.note(format("correctness gate: %zu programs checked against the "
                "iterative reference solver and CommPlan::verify",
                Set.size()));
}

void perf::runCompileTrace(const RunOptions &O, SpanRecorder &Spans,
                           Report &R) {
  std::string Err;
  std::vector<BenchProgram> Set = compileProgramSet(O.Seed, O.Root, Err);
  if (Set.empty()) {
    R.fail(Err);
    return;
  }
  const gnt::PipelineOptions Opts;
  std::vector<std::string> Chained(Set.size()), Piped(Set.size());

  // Traced and untraced passes alternate, and so does which of the two
  // goes first, so drift hits both alike.
  std::vector<TracedPass> Traced;
  std::vector<double> UntracedMs;
  auto T0 = Clock::now();
  for (unsigned Pass = 0;
       Traced.size() < 3 || secondsBetween(T0, Clock::now()) < O.Seconds;
       ++Pass) {
    if (Pass % 2 == 0)
      UntracedMs.push_back(untracedPassMs(Set, Opts, Piped, R));
    Traced.push_back(tracePass(Set, /*Audit=*/false, Pass, Spans, Chained, R));
    if (Pass % 2 == 1)
      UntracedMs.push_back(untracedPassMs(Set, Opts, Piped, R));
    R.Attempted += 2 * Set.size();
    // Faithfulness: the chain of public calls reproduces the pipeline.
    for (std::size_t I = 0; I < Set.size(); ++I)
      if (Chained[I] != Piped[I])
        R.fail(Set[I].Name + ": traced chain differs from Pipeline::compile");
  }
  // The audit layers come from one audited traced pass (over half a
  // minute on 4 cores).
  std::vector<TracedPass> AuditPasses;
  AuditPasses.push_back(tracePass(Set, /*Audit=*/true, 1000, Spans, Chained, R));
  R.Attempted += Set.size();

  // Per-layer self time, share and scaling exponent.
  auto LayerMs = [&](const std::vector<TracedPass> &Ps, const char *L) {
    return medianOver(Ps, [&](const TracedPass &P) {
      auto It = P.LayerMs.find(L);
      return It == P.LayerMs.end() ? 0.0 : It->second;
    });
  };
  auto SizeUs = [&](const std::vector<TracedPass> &Ps, unsigned Size,
                    const char *L) {
    return medianOver(Ps, [&](const TracedPass &P) {
      auto S = P.SizeUs.find(Size);
      if (S == P.SizeUs.end())
        return 0.0;
      auto It = S->second.find(L);
      return It == S->second.end() ? 0.0 : It->second;
    });
  };
  const TracedPass &Any = Traced.front();
  double CompileSum = 0, AuditSum = 0;
  for (const char *L : CompileLayers)
    CompileSum += LayerMs(Traced, L);
  for (const char *L : AuditLayers)
    AuditSum += LayerMs(AuditPasses, L);
  auto Emit = [&](const std::vector<TracedPass> &Ps, const char *L,
                  double Denom) {
    double Ms = LayerMs(Ps, L);
    R.set(std::string(L) + ".ms", Ms, "ms");
    R.set(std::string(L) + ".share", Denom > 0 ? Ms / Denom : 0, "fraction");
    R.set(std::string(L) + ".scaling_exp",
          scalingExponent(SizeUs(Ps, 200, L), SizeUs(Ps, LargestSize, L),
                          Any.SizeNodes.at(200), Any.SizeNodes.at(LargestSize)),
          "exponent");
  };
  for (const char *L : CompileLayers)
    Emit(Traced, L, CompileSum);
  for (const char *L : AuditLayers)
    Emit(AuditPasses, L, CompileSum + AuditSum);

  double UntracedMedian = median(UntracedMs);
  double TracedMedian = medianOver(Traced, [](const TracedPass &P) {
    return P.WallMs;
  });
  R.set("service.pipeline_other.ms", UntracedMedian - CompileSum, "ms");
  R.set("trace.overhead_ratio", (TracedMedian - UntracedMedian) / UntracedMedian,
        "ratio");

  const ChainCounts &C = AuditPasses.front().Counts;
  R.set("cfg.nodes", C.Nodes, "count");
  R.set("comm.items", C.Items, "count");
  R.set("comm.references", C.References, "count");
  R.set("dataflow.row_words", C.RowWords, "count");
  R.set("analysis.reference_sweeps", C.ReferenceSweeps, "count");
  R.set("analysis.engine_node_visits", C.EngineNodeVisits, "count");

  // The scaling table: mean microseconds per program at each generated
  // size, medians over the traced passes (the audited pass for the audit
  // columns).
  R.note(format("compile trace: %zu traced + %zu untraced passes over %zu "
                "programs; untraced pass %.3f ms, traced pass %.3f ms",
                Traced.size(), UntracedMs.size(), Set.size(), UntracedMedian,
                TracedMedian));
  std::string Head = "| stmts | nodes | items |";
  std::string Rule = "|---:|---:|---:|";
  for (const char *L : CompileLayers) {
    Head += format(" %s us |", L);
    Rule += "---:|";
  }
  Head += " generateComm us |";
  Rule += "---:|";
  for (const char *L : AuditLayers) {
    Head += format(" %s us |", L);
    Rule += "---:|";
  }
  R.note("scaling table (mean per program, median over passes):");
  R.note(Head);
  R.note(Rule);
  for (unsigned Size : CompileSizes) {
    double N = Any.SizePrograms.at(Size);
    std::string Row = format("| %u | %.0f | %.0f |", Size,
                             Any.SizeNodes.at(Size) / N,
                             Any.SizeItems.at(Size) / N);
    double Gen = 0;
    for (const char *L : CompileLayers) {
      double Us = SizeUs(Traced, Size, L) / N;
      Row += format(" %.0f |", Us);
      if (std::string(L).rfind("comm.", 0) == 0 &&
          std::string(L) != "comm.annotate")
        Gen += Us;
      else if (std::string(L).rfind("dataflow.", 0) == 0)
        Gen += Us;
    }
    Row += format(" %.0f |", Gen);
    for (const char *L : AuditLayers)
      Row += format(" %.0f |", SizeUs(AuditPasses, Size, L) / N);
    R.note(Row);
  }
}
