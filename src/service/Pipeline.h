//===- service/Pipeline.h - Reusable compilation pipeline ------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The full placement pipeline behind one API: PipelineOptions in,
/// compile(source), PipelineResult out. The pipeline owns the pass
/// sequence — frontend parse, CFG construction and normalization,
/// interval analysis, GIVE-N-TAKE solve (communication READ/WRITE, a
/// baseline, or expression PRE), annotation rendering, and the optional
/// static audit — and reports failures as structured Diagnostics
/// instead of exiting, so the same code path serves the `gntc` command
/// line tool, the `gntd` batch server, tests and benchmarks. Every
/// stage is wall-clock timed; the result keeps the intermediate
/// artifacts (AST, CFG, IFG, plan) alive for clients that want more
/// than the rendered output (dot/IFG views, dataflow dumps, the
/// simulator).
///
/// compile() is a pure function of (source, options): it touches no
/// global state and may be called concurrently from many threads.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_SERVICE_PIPELINE_H
#define GNT_SERVICE_PIPELINE_H

#include "analysis/Auditor.h"
#include "analysis/Diagnostics.h"
#include "analysis/SpecCompile.h"
#include "comm/CommGen.h"
#include "comm/Strategy.h"
#include "interval/IntervalFlowGraph.h"
#include "pre/ExprPre.h"

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

namespace gnt {

class StageCache;

/// Which placement problem the pipeline solves.
enum class PipelineMode {
  Comm, ///< READ/WRITE communication placement (default).
  Pre,  ///< Expression PRE (the paper's Section 6 client).
};

/// How far the pipeline runs. Early stops serve clients that only want
/// a structural view (e.g. `gntc --dot` on a graph the interval
/// analysis would reject).
enum class PipelineStop {
  AfterCfg,      ///< Stop once the CFG is built.
  AfterInterval, ///< Stop once the interval flow graph is built.
  Full,          ///< Run everything requested (default).
};

/// The timed stages of a compilation, in execution order.
enum class PipelineStage : unsigned {
  Frontend, ///< Lex + parse.
  Cfg,      ///< CFG construction and normalization.
  Interval, ///< Interval flow graph construction.
  Solve,    ///< Reference analysis + GIVE-N-TAKE solve (or baseline/PRE).
  Annotate, ///< Rendering the annotated program.
  Audit,    ///< Static audit / verification.
  Analyze,  ///< User-specified analyses (PipelineOptions::ExtraAnalyses).
};
inline constexpr unsigned NumPipelineStages = 7;

/// "frontend", "cfg", ... stable lowercase stage names (metrics keys).
const char *pipelineStageName(PipelineStage S);

/// Everything that configures a compilation. Add new knobs here and to
/// canonical() — the canonical string is the options half of the
/// service cache key, so two option sets compare equal iff their
/// canonical strings do.
struct PipelineOptions {
  PipelineMode Mode = PipelineMode::Comm;
  PipelineStop StopAfter = PipelineStop::Full;

  /// Placement engine: empty for GIVE-N-TAKE, or one of the baselines
  /// ("naive", "vectorized", "lcm"). Unknown names fail compile() with
  /// an Engine diagnostic. Ignored in PRE mode.
  std::string Baseline;

  /// Placement strategy for the GIVE-N-TAKE engine (comm/Strategy.h):
  /// the paper's balanced discipline (default), profile-guided
  /// speculative hoisting, or the linear-time lospre formulation.
  /// Conflicts with Baseline and with PRE mode (Engine diagnostic).
  /// Unlike Incremental this changes output, so it IS part of
  /// canonical() and of the stage-cache solve key.
  PlacementStrategy Strategy = PlacementStrategy::Balanced;

  /// Execution profile text in the gnt-profile-v1 format, consumed by
  /// the speculative strategy (empty = no profile, speculative degrades
  /// to balanced). Part of canonical(): two requests with different
  /// profiles may place differently and must not share a cache entry.
  std::string Profile;

  /// Communication generation knobs (Comm mode only).
  CommOptions Comm;

  /// Render the annotated program into PipelineResult::Annotated.
  bool Annotate = true;

  /// Run the full static audit and merge its findings (prefixed with
  /// the problem name: "READ: ", "WRITE: ", "PRE: ").
  bool Audit = false;

  /// Run the independent C1/C3/O1 verifier and merge its findings.
  bool Verify = false;

  /// Promote warnings and notes to errors at the end of the run.
  bool Werror = false;

  /// Solve the GIVE-N-TAKE problems incrementally when compiling
  /// through a StageCache: the cache keeps, per solve-option set, the
  /// previous solve's loop forest and per-node equation input digests
  /// plus its solved arena, and re-solves only the intervals whose
  /// inputs an edit changed (dataflow/Incremental.h). This is an
  /// execution strategy with a byte-identity contract — the
  /// incrementality-equivalence battery pins it — so it is deliberately
  /// NOT part of canonical(): incremental and cold requests share one
  /// cache entry.
  /// Ignored when compiling without a StageCache.
  bool Incremental = false;

  /// User-specified dataflow analyses to run after the solve: each
  /// entry is a built-in name ("liveness", "availability", "very-busy",
  /// "reaching") or a full spec text (analysis/SpecLang.h). Every run
  /// is solved once and checked against the spec's own equations, and
  /// lands in PipelineResult::Analyses; failures merge into Diags. Unlike
  /// Incremental this changes output, so it IS part of canonical().
  std::vector<std::string> ExtraAnalyses;

  /// Stable, human-readable key=value rendering of every knob that can
  /// change output (Incremental cannot, see above, and is excluded).
  std::string canonical() const;
};

/// Outcome of one compilation. Artifacts are populated up to the stage
/// where compilation stopped or failed; Diags carries everything from
/// parse errors to audit notes.
struct PipelineResult {
  /// Options the run was compiled with.
  PipelineOptions Opts;

  /// The parsed program. Shared, not owned: stage-cached compilations
  /// adopt the cached parse (CFG nodes and plan anchors hold `const
  /// Stmt *` into exactly this object), and several results may share
  /// it. Null only when the frontend failed.
  std::shared_ptr<const Program> Prog;
  Cfg G;
  std::optional<IntervalFlowGraph> Ifg;

  /// Comm mode artifacts (GIVE-N-TAKE or baseline plan). Shared for
  /// the same reason as Prog: a stage-cached solve is adopted by many
  /// results. A plan adopted from the stage cache carries no solver
  /// runs (ReadRun and WriteRun are empty; service/StageCache.h): it
  /// serves annotation, placement counts and the simulator, not
  /// dataflow dumps. A fresh solve keeps its runs, and a request with
  /// Audit or Verify always solves fresh.
  std::shared_ptr<const CommPlan> Plan;

  /// PRE mode artifacts (shared, like Plan; adopted from the stage
  /// cache, its Run is empty).
  std::shared_ptr<const ExprPreResult> Pre;

  /// Rendered annotated program (when Opts.Annotate and the solve
  /// stage completed).
  std::string Annotated;

  /// Completed user-specified analyses (Opts.ExtraAnalyses order).
  /// Each carries its own solution, statistics, and diagnostics; spec
  /// and differential errors are also merged into Diags with an
  /// "analyze(<name>): " prefix.
  std::vector<AnalysisRun> Analyses;

  /// Parse/build errors, verifier findings, audit findings.
  DiagnosticSet Diags;

  /// Audit work counters (zero when the audit did not run).
  AuditStats Audit;

  /// Wall-clock microseconds per stage; 0 for stages that did not run.
  std::array<double, NumPipelineStages> StageMicros{};

  /// Last stage that ran (even partially).
  PipelineStage Reached = PipelineStage::Frontend;

  bool ok() const { return !Diags.hasErrors(); }

  double stageMicros(PipelineStage S) const {
    return StageMicros[static_cast<unsigned>(S)];
  }

  /// Sum over all stages.
  double totalMicros() const;
};

/// The pipeline: a fixed option set applied to many sources. Stateless
/// apart from the options; compile() is const and thread-safe.
class Pipeline {
public:
  explicit Pipeline(PipelineOptions Opts = {}) : Opts(std::move(Opts)) {}

  const PipelineOptions &options() const { return Opts; }

  /// Compiles \p Source through every configured stage. Never exits or
  /// throws on bad input: check PipelineResult::ok() and Diags.
  PipelineResult compile(const std::string &Source) const;

  /// Same, compiling through a content-addressed stage cache: each
  /// stage is looked up by a key over exactly the inputs it consumes
  /// (see service/StageCache.h) and only missing stages run; Audit and
  /// Verify skip the solve-stage lookup, because cached solves keep no
  /// runs to re-check. With Opts.Incremental the solve additionally
  /// reuses the cache's per-option-set incremental memo. Byte-identical
  /// to the uncached compile by contract. \p Cache may be null (plain
  /// compile).
  PipelineResult compile(const std::string &Source, StageCache *Cache) const;

private:
  PipelineOptions Opts;
};

/// Convenience one-shot form.
PipelineResult compilePipeline(const std::string &Source,
                               const PipelineOptions &Opts = {});

/// Content hash of a compilation request: FNV-1a over the canonicalized
/// options and the source text. This is the service cache key — equal
/// keys mean "same source compiled the same way".
std::uint64_t pipelineCacheKey(const std::string &Source,
                               const PipelineOptions &Opts);

/// Stable content signature of a compilation *outcome*: FNV-1a over the
/// rendered diagnostics, the annotated program, and the plan's static
/// placement counts (or the PRE insertion/redundancy counts). Two
/// compilations of one source through semantically equivalent
/// configurations — e.g. differing only in Incremental — must produce
/// equal signatures; the fuzzer's production-path differential layer
/// compares these instead of re-walking every artifact.
std::uint64_t resultSignature(const PipelineResult &R);

} // namespace gnt

#endif // GNT_SERVICE_PIPELINE_H
