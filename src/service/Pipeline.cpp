//===- service/Pipeline.cpp - Reusable compilation pipeline -----------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Pipeline.h"

#include "baseline/Baselines.h"
#include "baseline/LazyCodeMotion.h"
#include "cfg/CfgBuilder.h"
#include "frontend/Parser.h"
#include "service/StageCache.h"
#include "support/Hashing.h"
#include "support/Support.h"

#include <algorithm>
#include <chrono>
#include <mutex>

using namespace gnt;

const char *gnt::pipelineStageName(PipelineStage S) {
  switch (S) {
  case PipelineStage::Frontend:
    return "frontend";
  case PipelineStage::Cfg:
    return "cfg";
  case PipelineStage::Interval:
    return "interval";
  case PipelineStage::Solve:
    return "solve";
  case PipelineStage::Annotate:
    return "annotate";
  case PipelineStage::Audit:
    return "audit";
  case PipelineStage::Analyze:
    return "analyze";
  }
  gntUnreachable("covered switch");
}

std::string PipelineOptions::canonical() const {
  std::string R;
  R += "mode=";
  R += Mode == PipelineMode::Comm ? "comm" : "pre";
  R += ";stop=";
  R += StopAfter == PipelineStop::AfterCfg        ? "cfg"
       : StopAfter == PipelineStop::AfterInterval ? "interval"
                                                  : "full";
  R += ";baseline=" + Baseline;
  R += ";strategy=";
  R += placementStrategyName(Strategy);
  R += ";profile=";
  R += '\x1f'; // Unit separators: profile text is free-form.
  R += Profile;
  R += '\x1f';
  auto field = [&R](const char *Name, long long Value) {
    R += Name;
    appendInt(R, Value);
  };
  field(";atomic=", Comm.Atomic);
  field(";owner_computes=", Comm.OwnerComputes);
  field(";hoist_zero_trip=", Comm.HoistZeroTrip);
  field(";reads=", Comm.GenerateReads);
  field(";writes=", Comm.GenerateWrites);
  field(";annotate=", Annotate);
  field(";audit=", Audit);
  field(";verify=", Verify);
  field(";werror=", Werror);
  field(";analyses=", static_cast<long long>(ExtraAnalyses.size()));
  for (const std::string &A : ExtraAnalyses) {
    R += '\x1f'; // Unit separator: spec texts may contain ';' and '='.
    R += A;
  }
  // Incremental is intentionally absent: it is a solver execution
  // strategy that cannot change any output byte (the byte-identity
  // contract of dataflow/Incremental.h), so requests differing only in
  // that knob must share a cache entry. The cache-key audit test in
  // PipelineTest guards this list from drift.
  return R;
}

double PipelineResult::totalMicros() const {
  double Sum = 0;
  for (double M : StageMicros)
    Sum += M;
  return Sum;
}

namespace {

/// RAII stage timer: charges wall time to one StageMicros slot and
/// records the stage as reached.
class StageTimer {
public:
  StageTimer(PipelineResult &R, PipelineStage S)
      : R(R), Slot(static_cast<unsigned>(S)),
        Start(std::chrono::steady_clock::now()) {
    R.Reached = S;
  }
  ~StageTimer() {
    auto End = std::chrono::steady_clock::now();
    R.StageMicros[Slot] +=
        std::chrono::duration<double, std::micro>(End - Start).count();
  }

private:
  PipelineResult &R;
  unsigned Slot;
  std::chrono::steady_clock::time_point Start;
};

Diagnostic makeError(CheckId Check, std::string Message) {
  Diagnostic D;
  D.Severity = DiagSeverity::Error;
  D.Check = Check;
  D.Message = std::move(Message);
  return D;
}

/// Runs the auditor on \p Run and merges the findings into \p R with a
/// problem-name prefix ("READ: node 5: ..." style).
void auditInto(PipelineResult &R, const GntRun &Run,
               const std::vector<std::string> &Names, const char *Label) {
  AuditResult A = auditGntRun(Run, Names);
  for (Diagnostic D : A.Diags.all()) {
    D.Message = std::string(Label) + ": " + D.Message;
    R.Diags.add(std::move(D));
  }
  R.Audit.EngineSolves += A.Stats.EngineSolves;
  R.Audit.ReferenceSweeps += A.Stats.ReferenceSweeps;
  R.Audit.Engine.Iterations += A.Stats.Engine.Iterations;
  R.Audit.Engine.NodeVisits += A.Stats.Engine.NodeVisits;
  R.Audit.Engine.EdgeEvaluations += A.Stats.Engine.EdgeEvaluations;
  R.Audit.Engine.WorklistPeak =
      std::max(R.Audit.Engine.WorklistPeak, A.Stats.Engine.WorklistPeak);
}

/// The stage cache's copy of a solve: everything a hit serves (refs,
/// problems and anchored operations) without the solver runs, which
/// only audit and verify read.
std::shared_ptr<const CommPlan> withoutRuns(const CommPlan &P) {
  auto C = std::make_shared<CommPlan>();
  C->Opts = P.Opts;
  C->Refs = P.Refs;
  C->ElementMessages = P.ElementMessages;
  C->ReadProblem = P.ReadProblem;
  C->WriteProblem = P.WriteProblem;
  C->Anchored = P.Anchored;
  return C;
}

std::shared_ptr<const ExprPreResult> withoutRuns(const ExprPreResult &P) {
  auto C = std::make_shared<ExprPreResult>();
  C->Exprs = P.Exprs;
  C->Insertions = P.Insertions;
  C->Redundant = P.Redundant;
  C->Occurrences = P.Occurrences;
  C->Problem = P.Problem;
  return C;
}

/// Component-wise Now - Then for the monotone incremental counters: the
/// contribution of one solve stage to a slot's accumulating stats.
GntIncrementalStats statsDelta(const GntIncrementalStats &Now,
                               const GntIncrementalStats &Then) {
  GntIncrementalStats D;
  D.FullSolves = Now.FullSolves - Then.FullSolves;
  D.MemoHits = Now.MemoHits - Then.MemoHits;
  D.PartialSolves = Now.PartialSolves - Then.PartialSolves;
  D.NodesTotal = Now.NodesTotal - Then.NodesTotal;
  D.NodesResolved = Now.NodesResolved - Then.NodesResolved;
  D.IntervalsTotal = Now.IntervalsTotal - Then.IntervalsTotal;
  D.IntervalsResolved = Now.IntervalsResolved - Then.IntervalsResolved;
  return D;
}

} // namespace

PipelineResult Pipeline::compile(const std::string &Source) const {
  return compile(Source, nullptr);
}

PipelineResult Pipeline::compile(const std::string &Source,
                                 StageCache *Cache) const {
  PipelineResult R;
  R.Opts = Opts;

  // A non-balanced strategy reconfigures the GIVE-N-TAKE engine; it has
  // no meaning for PRE mode or for a baseline engine.
  if (Opts.Strategy != PlacementStrategy::Balanced) {
    if (Opts.Mode == PipelineMode::Pre) {
      R.Diags.add(makeError(CheckId::Engine,
                            "placement strategies apply to communication "
                            "placement; PRE mode is balanced-only"));
      return R;
    }
    if (!Opts.Baseline.empty()) {
      R.Diags.add(makeError(
          CheckId::Engine,
          "strategy `" +
              std::string(placementStrategyName(Opts.Strategy)) +
              "` conflicts with baseline `" + Opts.Baseline +
              "`: baselines bypass the GIVE-N-TAKE engine"));
      return R;
    }
  }

  // Frontend. Keyed by the raw source text; the artifact carries the
  // canonical AST digest that addresses every downstream stage.
  std::shared_ptr<const ParseArtifact> PA;
  std::uint64_t Kparse = 0;
  if (Cache) {
    Kparse = StageCache::parseKey(Source);
    PA = Cache->lookupParse(Kparse);
  }
  if (!PA) {
    StageTimer T(R, PipelineStage::Frontend);
    ParseResult Parsed = parseProgram(Source);
    if (!Parsed.success()) {
      for (const std::string &E : Parsed.Errors)
        R.Diags.add(makeError(CheckId::Parse, E));
      return R;
    }
    auto A = std::make_shared<ParseArtifact>();
    A->Prog = std::make_shared<const Program>(std::move(Parsed.Prog));
    if (Cache) {
      A->AstDigest = StageCache::astDigest(*A->Prog);
      Cache->insertParse(Kparse, A);
    }
    PA = std::move(A);
  }
  R.Prog = PA->Prog;

  // CFG construction. A hit adopts the artifact's whole chain — its
  // nodes anchor `const Stmt *` into *its* Program, which prints
  // identically (same AST digest) but is a different object.
  std::shared_ptr<const CfgArtifact> CA;
  if (Cache)
    CA = Cache->lookupCfg(StageCache::cfgKey(PA->AstDigest));
  if (!CA) {
    StageTimer T(R, PipelineStage::Cfg);
    CfgBuildResult CfgRes = buildCfg(*PA->Prog);
    if (!CfgRes.success()) {
      for (const std::string &E : CfgRes.Errors)
        R.Diags.add(makeError(CheckId::Build, E));
      return R;
    }
    R.G = std::move(CfgRes.G);
    if (Cache) {
      auto A = std::make_shared<CfgArtifact>();
      A->Parse = PA;
      A->RawG = R.G;
      Cache->insertCfg(StageCache::cfgKey(PA->AstDigest), std::move(A));
    }
  } else {
    // The raw graph is copied only where it is read: as the result of a
    // CFG-only run, or as the input of an interval build below.
    PA = CA->Parse;
    R.Prog = PA->Prog;
    R.Reached = PipelineStage::Cfg;
  }
  if (Opts.StopAfter == PipelineStop::AfterCfg) {
    if (CA)
      R.G = CA->RawG;
    return R;
  }

  // Interval analysis. build() normalizes R.G in place; the artifact
  // keeps the normalized graph so a hit restores both.
  std::shared_ptr<const IntervalArtifact> IA;
  if (Cache)
    IA = Cache->lookupInterval(StageCache::intervalKey(PA->AstDigest));
  if (!IA) {
    if (CA)
      R.G = CA->RawG;
    StageTimer T(R, PipelineStage::Interval);
    auto IfgRes = IntervalFlowGraph::build(R.G);
    if (!IfgRes.success()) {
      for (const std::string &E : IfgRes.Errors)
        R.Diags.add(makeError(CheckId::Build, E));
      return R;
    }
    if (Cache) {
      auto A = std::make_shared<IntervalArtifact>();
      A->Parse = PA;
      A->NormG = R.G;
      A->Ifg = *IfgRes.Ifg;
      IA = std::move(A);
      Cache->insertInterval(StageCache::intervalKey(PA->AstDigest), IA);
    }
    R.Ifg = std::move(*IfgRes.Ifg);
  } else {
    PA = IA->Parse;
    R.Prog = PA->Prog;
    R.G = IA->NormG;
    R.Ifg = IA->Ifg;
    R.Reached = PipelineStage::Interval;
  }
  if (Opts.StopAfter == PipelineStop::AfterInterval)
    return R;

  // Solve: PRE, a baseline, or GIVE-N-TAKE communication. Keyed by the
  // AST digest plus the option subset the solve consumes. Cached solves
  // carry no solver runs, so a request that re-checks them (audit,
  // verify) does not probe the stage and always solves fresh.
  std::string SolveOpts;
  std::uint64_t Ksolve = 0;
  std::shared_ptr<const SolveArtifact> SA;
  if (Cache) {
    SolveOpts = StageCache::solveOptionsKey(Opts);
    Ksolve = StageCache::solveKey(PA->AstDigest, SolveOpts);
    if (!Opts.Audit && !Opts.Verify)
      SA = Cache->lookupSolve(Ksolve);
  }
  if (SA) {
    if (SA->Interval != IA) {
      IA = SA->Interval;
      PA = IA->Parse;
      R.Prog = PA->Prog;
      R.G = IA->NormG;
      R.Ifg = IA->Ifg;
    }
    R.Plan = SA->Plan;
    R.Pre = SA->Pre;
    R.Reached = PipelineStage::Solve;
  } else {
    // Incremental solving reuses the per-option-set memo slot; the
    // slot lock serializes solves that share it. Baselines have no GNT
    // runs to memoize.
    std::shared_ptr<SolveSlot> Slot;
    std::unique_lock<std::mutex> SlotLock;
    GntIncrementalContext *Inc = nullptr;
    GntIncrementalStats Before;
    if (Cache && Opts.Incremental &&
        (Opts.Mode == PipelineMode::Pre ||
         (Opts.Baseline.empty() &&
          Opts.Strategy == PlacementStrategy::Balanced))) {
      Slot = Cache->solveSlot(SolveOpts);
      SlotLock = std::unique_lock<std::mutex>(Slot->M);
      Inc = &Slot->Ctx;
      Before = Slot->Ctx.Stats;
    }
    {
      StageTimer T(R, PipelineStage::Solve);
      if (Opts.Mode == PipelineMode::Pre) {
        R.Pre = std::make_shared<const ExprPreResult>(
            runExprPre(*R.Prog, R.G, *R.Ifg, Inc));
      } else if (Opts.Baseline == "naive")
        R.Plan = std::make_shared<const CommPlan>(
            naivePlacement(*R.Prog, R.G, *R.Ifg));
      else if (Opts.Baseline == "vectorized")
        R.Plan = std::make_shared<const CommPlan>(
            vectorizedPlacement(*R.Prog, R.G, *R.Ifg));
      else if (Opts.Baseline == "lcm")
        R.Plan = std::make_shared<const CommPlan>(
            lcmPlacement(*R.Prog, R.G, *R.Ifg));
      else if (Opts.Baseline.empty()) {
        if (Opts.Strategy == PlacementStrategy::Balanced)
          R.Plan = std::make_shared<const CommPlan>(
              generateComm(*R.Prog, R.G, *R.Ifg, Opts.Comm, Inc));
        else {
          ExecProfile Prof;
          std::string ProfErr;
          if (!parseExecProfile(Opts.Profile, Prof, ProfErr)) {
            R.Diags.add(makeError(CheckId::Engine, ProfErr));
            return R;
          }
          R.Plan = std::make_shared<const CommPlan>(generateStrategyComm(
              Opts.Strategy, *R.Prog, R.G, *R.Ifg, Opts.Comm, Prof));
        }
      } else {
        R.Diags.add(makeError(CheckId::Engine,
                              "unknown baseline `" + Opts.Baseline + "`"));
        return R;
      }
    }
    if (Inc) {
      GntIncrementalStats Delta = statsDelta(Slot->Ctx.Stats, Before);
      Cache->noteIncremental(Delta);
      // Only re-persist when a solve refreshed a memo; pure memo hits
      // leave the persisted artifacts bit-identical.
      if (Delta.FullSolves || Delta.PartialSolves)
        Cache->persistSlot(*Slot, SolveOpts);
      SlotLock.unlock();
    }
    if (Cache) {
      auto A = std::make_shared<SolveArtifact>();
      A->Interval = IA;
      if (R.Plan)
        A->Plan = withoutRuns(*R.Plan);
      if (R.Pre)
        A->Pre = withoutRuns(*R.Pre);
      Cache->insertSolve(Ksolve, std::move(A));
    }
  }

  // Annotation rendering. Keyed by the solve key: the text is a pure
  // function of the solve artifact and the (digest-identical) program.
  if (Opts.Annotate) {
    std::shared_ptr<const std::string> Ann;
    std::uint64_t Kann = 0;
    if (Cache) {
      Kann = StageCache::annotateKey(Ksolve);
      Ann = Cache->lookupAnnotate(Kann);
    }
    if (!Ann) {
      StageTimer T(R, PipelineStage::Annotate);
      R.Annotated = Opts.Mode == PipelineMode::Pre
                        ? R.Pre->annotate(*R.Prog)
                        : R.Plan->annotate(*R.Prog);
      if (Cache)
        Cache->insertAnnotate(Kann,
                              std::make_shared<const std::string>(R.Annotated));
    } else {
      R.Annotated = *Ann;
      R.Reached = PipelineStage::Annotate;
    }
  }

  // Audit and verification always recompute: they exist to re-check
  // the solution, caching their verdicts would be self-defeating.
  if (Opts.Audit || Opts.Verify) {
    StageTimer T(R, PipelineStage::Audit);
    if (Opts.Mode == PipelineMode::Pre) {
      if (Opts.Audit)
        auditInto(R, R.Pre->Run, R.Pre->Exprs, "PRE");
      if (Opts.Verify)
        R.Diags.append(R.Pre->verify().Diags);
    } else {
      if (Opts.Audit) {
        // Baseline plans carry no GNT dataflow runs; auditing one would
        // be a vacuous pass, so report it as an engine error instead.
        if (!R.Plan->ReadRun && !R.Plan->WriteRun) {
          R.Diags.add(makeError(
              CheckId::Engine,
              "audit requires a GIVE-N-TAKE plan (baseline `" +
                  Opts.Baseline + "` has no dataflow runs to audit)"));
        } else {
          std::vector<std::string> Names = R.Plan->Refs.Items.names();
          if (R.Plan->ReadRun)
            auditInto(R, *R.Plan->ReadRun, Names, "READ");
          if (R.Plan->WriteRun)
            auditInto(R, *R.Plan->WriteRun, Names, "WRITE");
        }
      }
      if (Opts.Verify)
        R.Diags.append(R.Plan->verify().Diags);
    }
  }

  // User-specified analyses, each solved once and checked.
  if (!Opts.ExtraAnalyses.empty()) {
    StageTimer T(R, PipelineStage::Analyze);
    for (const std::string &Entry : Opts.ExtraAnalyses) {
      AnalysisRun Run = runAnalysisSpec(Entry, *R.Prog, R.G, *R.Ifg);
      for (Diagnostic D : Run.Diags.all()) {
        D.Message = "analyze(" + Run.Name + "): " + D.Message;
        R.Diags.add(std::move(D));
      }
      R.Analyses.push_back(std::move(Run));
    }
  }

  if (Opts.Werror)
    R.Diags.promoteToErrors();
  return R;
}

PipelineResult gnt::compilePipeline(const std::string &Source,
                                    const PipelineOptions &Opts) {
  return Pipeline(Opts).compile(Source);
}

std::uint64_t gnt::pipelineCacheKey(const std::string &Source,
                                    const PipelineOptions &Opts) {
  std::uint64_t H = fnv1a(Opts.canonical());
  H = fnv1aAppend(H, std::string(1, '\0'));
  return fnv1aAppend(H, Source);
}

std::uint64_t gnt::resultSignature(const PipelineResult &R) {
  std::uint64_t H = fnv1a(R.Annotated);
  for (const Diagnostic &D : R.Diags.all())
    H = fnv1aAppend(H, D.render() + "\n");
  if (R.Plan) {
    for (const auto &[Kind, Count] : R.Plan->staticCounts())
      H = fnv1aAppend(H, std::string(commOpName(Kind)) + "=" +
                             itostr(Count) + ";");
  }
  if (R.Pre) {
    H = fnv1aAppend(H, "pre_insertions=" +
                           itostr(static_cast<long long>(
                               R.Pre->Insertions.size())));
    H = fnv1aAppend(H, ";pre_redundant=" +
                           itostr(static_cast<long long>(
                               R.Pre->Redundant.size())));
  }
  for (const AnalysisRun &A : R.Analyses) {
    H = fnv1aAppend(H, ";analysis=" + A.Name);
    H = fnv1aAppend(H, std::string(":") + specUniverseName(A.Universe));
    H = fnv1aAppend(H, ":" + hashToHex(A.solutionHash()));
    H = fnv1aAppend(H, A.ok() ? ":ok" : ":failed");
  }
  return H;
}
