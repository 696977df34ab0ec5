//===- fuzz/Oracle.cpp - The stacked placement oracle -----------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "comm/Strategy.h"
#include "fuzz/Metamorphic.h"
#include "fuzz/Mutator.h"
#include "service/Pipeline.h"
#include "service/StageCache.h"
#include "sim/TraceSimulator.h"
#include "support/Hashing.h"
#include "support/Support.h"

#include <cmath>
#include <random>

using namespace gnt;
using namespace gnt::fuzz;

namespace {

PipelineOptions checkedOptions() {
  PipelineOptions Opts;
  Opts.Annotate = true;
  Opts.Audit = true;
  Opts.Verify = true;
  // No Werror here: the audit reports known solver conservatism (e.g.
  // O1 redundancy notes under Section 5.3 jump poisoning) as
  // warnings/notes, and those are expected on legal inputs. Genuine
  // audit or verifier *errors* are findings; distillProgram() still
  // requires full note-freedom so checked-in corpus seeds pass the
  // ctest `--audit --werror` replays.
  Opts.Werror = false;
  return Opts;
}

/// The (name, field) rows of a solver result, in forEachGntField order.
std::vector<std::pair<std::string, const std::vector<BitVector> *>>
solverFields(const GntResult &R) {
  std::vector<std::pair<std::string, const std::vector<BitVector> *>> Out;
  forEachGntField(R, [&](const char *Name, const std::vector<BitVector> &V) {
    Out.emplace_back(Name, &V);
  });
  return Out;
}

/// Byte-compares \p Got against \p Want field by field; appends one
/// finding per mismatching field.
void diffResults(const GntResult &Want, const GntResult &Got,
                 const std::string &KindPrefix,
                 std::vector<OracleFinding> &Findings) {
  auto W = solverFields(Want);
  auto G = solverFields(Got);
  for (std::size_t F = 0; F != W.size(); ++F) {
    const auto &[Name, WantV] = W[F];
    const auto *GotV = G[F].second;
    if (WantV->size() != GotV->size()) {
      Findings.push_back({KindPrefix + "." + Name, "node count mismatch"});
      continue;
    }
    for (std::size_t N = 0; N != WantV->size(); ++N)
      if (!((*WantV)[N] == (*GotV)[N])) {
        Findings.push_back({KindPrefix + "." + Name,
                            "first divergence at node " + itostr(
                                static_cast<long long>(N))});
        break;
      }
  }
}

/// The simulator bindings every input executes under. Fixed, so replay
/// and minimization re-check the exact same traces.
std::vector<SimConfig> simConfigs() {
  std::vector<SimConfig> Out;
  const long long Ns[] = {4, 9, 1};
  const unsigned Seeds[] = {1, 2, 3};
  for (unsigned I = 0; I != 3; ++I) {
    SimConfig C;
    C.Params["n"] = Ns[I];
    C.BranchSeed = Seeds[I];
    C.DefaultTrip = 4;
    Out.push_back(C);
  }
  return Out;
}

bool sameDouble(double A, double B) {
  return std::fabs(A - B) <= 1e-9 * std::max(1.0, std::fabs(A) +
                                                      std::fabs(B));
}

/// Compares two simulated executions under a transform's mask.
void diffStats(const SimStats &A, const SimStats &B, const MetaInvariants &M,
               const std::string &KindPrefix, const std::string &Where,
               std::vector<OracleFinding> &Findings) {
  auto Mismatch = [&](const char *Field, const std::string &Got,
                      const std::string &Want) {
    Findings.push_back({KindPrefix + "." + Field,
                        Where + ": " + Field + " " + Want + " -> " + Got});
  };
  if (A.ok() != B.ok())
    Mismatch("ok", B.ok() ? "ok" : B.Errors.front(),
             A.ok() ? "ok" : A.Errors.front());
  if (M.Messages && A.Messages != B.Messages)
    Mismatch("Messages", itostr(static_cast<long long>(B.Messages)),
             itostr(static_cast<long long>(A.Messages)));
  if (M.Volume && A.Volume != B.Volume)
    Mismatch("Volume", itostr(static_cast<long long>(B.Volume)),
             itostr(static_cast<long long>(A.Volume)));
  if (M.Work && !sameDouble(A.Work, B.Work))
    Mismatch("Work", itostr(static_cast<long long>(B.Work)),
             itostr(static_cast<long long>(A.Work)));
  if (M.ExposedLatency && !sameDouble(A.ExposedLatency, B.ExposedLatency))
    Mismatch("ExposedLatency",
             itostr(static_cast<long long>(B.ExposedLatency)),
             itostr(static_cast<long long>(A.ExposedLatency)));
  if (M.Redundant && A.Redundant != B.Redundant)
    Mismatch("Redundant", itostr(static_cast<long long>(B.Redundant)),
             itostr(static_cast<long long>(A.Redundant)));
  if (M.Wasted && A.Wasted != B.Wasted)
    Mismatch("Wasted", itostr(static_cast<long long>(B.Wasted)),
             itostr(static_cast<long long>(A.Wasted)));
  if (M.OptimisticMisses && A.OptimisticMisses != B.OptimisticMisses)
    Mismatch("OptimisticMisses",
             itostr(static_cast<long long>(B.OptimisticMisses)),
             itostr(static_cast<long long>(A.OptimisticMisses)));
  if (M.Steps && A.Steps != B.Steps)
    Mismatch("Steps", itostr(static_cast<long long>(B.Steps)),
             itostr(static_cast<long long>(A.Steps)));
}

} // namespace

std::string gnt::fuzz::findingClass(const std::string &Kind) {
  std::size_t First = Kind.find('.');
  if (First == std::string::npos)
    return Kind;
  std::size_t Second = Kind.find('.', First + 1);
  return Kind.substr(0, Second);
}

OracleOutcome gnt::fuzz::runOracle(const std::string &Source,
                                   const OracleOptions &Opts) {
  OracleOutcome Out;

  // Layers 1+2: the production pipeline with the full audit stack.
  PipelineResult R = compilePipeline(Source, checkedOptions());
  if (!R.ok()) {
    // Distinguish "the frontend rejects this input" (invalid, expected
    // for aggressive mutants) from "the audit flags a solver-accepted
    // program" (a finding).
    PipelineResult Plain = compilePipeline(Source, PipelineOptions{});
    if (!Plain.ok() || !Plain.Plan)
      return Out; // Invalid input; no signal.
    Out.Valid = true;
    Out.Findings.push_back({"audit.error", R.Diags.renderText()});
    if (Plain.Ifg) {
      Out.UniverseSize = std::max(Plain.Plan->ReadProblem.UniverseSize,
                                  Plain.Plan->WriteProblem.UniverseSize);
      Out.Features =
          coverageFeatures(*Plain.Prog, *Plain.Ifg, Out.UniverseSize);
      Out.CoverageKey = Out.Features.key();
    }
    return Out;
  }
  if (!R.Plan || !R.Ifg)
    return Out; // Comm mode always produces a plan; be defensive.
  Out.Valid = true;
  Out.WerrorClean = R.Diags.empty();

  Out.UniverseSize = std::max(R.Plan->ReadProblem.UniverseSize,
                              R.Plan->WriteProblem.UniverseSize);
  Out.Features = coverageFeatures(*R.Prog, *R.Ifg, Out.UniverseSize);
  Out.CoverageKey = Out.Features.key();

  // Layer 3: artifact-level differential — the classic re-solve of the
  // oriented problems must match the arena solve on all 20 dataflow
  // variables.
  if (Opts.Differential) {
    auto DiffRun = [&](const std::optional<GntRun> &Run,
                       const char *Problem) {
      if (!Run)
        return;
      GntResult Classic =
          solveGiveNTakeClassic(Run->OrientedIfg, Run->OrientedProblem);
      diffResults(Classic, Run->Result,
                  std::string("differential.classic.") + Problem,
                  Out.Findings);
    };
    DiffRun(R.Plan->ReadRun, "READ");
    DiffRun(R.Plan->WriteRun, "WRITE");
  }

  // Layer 4: incremental differential. The stage cache is warm with the
  // input's artifacts and solve memos; an edited variant compiled from
  // that history must be byte-identical to compiling it cold. The edit
  // is a deterministic mutator draw, so replay and minimization re-check
  // the same pair. Both compiles run without the audit stack — the
  // contract under test is the incremental solver's, and audit findings
  // on the variant would surface as their own class on the variant
  // itself.
  if (Opts.Incremental) {
    std::mt19937 EditRng(
        static_cast<std::uint32_t>(fnv1a(Source) ^ 0x9e3779b9u));
    std::string Edited = mutateSource(Source, EditRng);
    if (!Edited.empty() && Edited != Source) {
      PipelineOptions IncOpts;
      IncOpts.Annotate = true;
      IncOpts.Incremental = true;
      StageCache Warm;
      (void)Pipeline(IncOpts).compile(Source, &Warm); // Prime.
      PipelineResult IncR = Pipeline(IncOpts).compile(Edited, &Warm);
      PipelineOptions ColdOpts = IncOpts;
      ColdOpts.Incremental = false;
      PipelineResult ColdR = Pipeline(ColdOpts).compile(Edited);
      if (resultSignature(IncR) != resultSignature(ColdR))
        Out.Findings.push_back(
            {"differential.incremental.signature",
             "resultSignature differs between warm-cache incremental and "
             "cold compiles of the edited variant"});
      else if (IncR.Annotated != ColdR.Annotated)
        Out.Findings.push_back(
            {"differential.incremental.annotated",
             "annotated output differs between warm-cache incremental "
             "and cold compiles of the edited variant"});
    }
  }

  // Layer 5: dynamic C1/C3 on concrete traces.
  std::vector<SimStats> BaseStats;
  if (Opts.Simulate || Opts.Metamorphic)
    for (const SimConfig &C : simConfigs())
      BaseStats.push_back(simulate(*R.Prog, *R.Plan, C));
  if (Opts.Simulate)
    for (std::size_t I = 0; I != BaseStats.size(); ++I)
      for (const std::string &E : BaseStats[I].Errors)
        Out.Findings.push_back(
            {"simulator.trace", "config " + itostr(static_cast<long long>(I)) +
                                    ": " + E});

  // Layer 6: placement strategies. Only on inputs clean so far, for the
  // same anti-cascade reason as the metamorphic layer: each non-balanced
  // strategy re-compiles the input through the audit stack and simulates
  // under the shared configs.
  // Speculation trains on a biased execution of the balanced plan; on
  // jump-free inputs its adoption gate (strict expected-cost win, exact
  // under the anchor-frequency model) makes "no more messages than
  // balanced on the training trajectory" a hard contract.
  if (Opts.Strategies && Out.Findings.empty()) {
    SimConfig TrainCfg;
    TrainCfg.Params["n"] = 9;
    TrainCfg.BranchSeed = 1;
    TrainCfg.BranchTrueProb = 0.85;
    TrainCfg.DefaultTrip = 4;
    SimStats Train = simulate(*R.Prog, *R.Plan, TrainCfg);
    for (PlacementStrategy Strat :
         {PlacementStrategy::Speculative, PlacementStrategy::Lospre}) {
      std::string Prefix =
          std::string("strategies.") + placementStrategyName(Strat);
      PipelineOptions SOpts = checkedOptions();
      SOpts.Strategy = Strat;
      if (Strat == PlacementStrategy::Speculative) {
        if (!Train.ok())
          continue; // The balanced trace failed its own layer already.
        SOpts.Profile = renderExecProfile(Train.Profile);
      }
      PipelineResult SR = compilePipeline(Source, SOpts);
      if (!SR.ok() || !SR.Plan) {
        Out.Findings.push_back({Prefix + ".audit", SR.Diags.renderText()});
        continue;
      }
      std::vector<SimConfig> Configs = simConfigs();
      for (std::size_t I = 0; I != Configs.size(); ++I) {
        SimStats SS = simulate(*SR.Prog, *SR.Plan, Configs[I]);
        for (const std::string &E : SS.Errors)
          Out.Findings.push_back(
              {Prefix + ".trace",
               "config " + itostr(static_cast<long long>(I)) + ": " + E});
      }
      if (Strat == PlacementStrategy::Speculative &&
          !R.Ifg->hasJumpEdges()) {
        SimStats SpecSim = simulate(*SR.Prog, *SR.Plan, TrainCfg);
        if (SpecSim.ok() && SpecSim.Messages > Train.Messages)
          Out.Findings.push_back(
              {Prefix + ".cost-regression",
               "speculative plan executed " +
                   itostr(static_cast<long long>(SpecSim.Messages)) +
                   " messages vs balanced " +
                   itostr(static_cast<long long>(Train.Messages)) +
                   " under its own training profile"});
      }
    }
  }

  // Layer 7: metamorphic variants. Only on inputs that are clean so
  // far — a real defect should surface as its primary class, not as a
  // cascade of derived mismatches.
  if (Opts.Metamorphic && Out.Findings.empty()) {
    std::mt19937 Rng(static_cast<std::uint32_t>(fnv1a(Source)));
    for (unsigned T = 0; T != NumMetaTransforms; ++T) {
      auto Transform = static_cast<MetaTransform>(T);
      MetaVariant V = applyMetaTransform(Source, Transform, Rng);
      if (!V.Applied)
        continue;
      std::string Prefix =
          std::string("metamorphic.") + metaTransformName(Transform);
      PipelineResult VR = compilePipeline(V.Source, checkedOptions());
      if (!VR.ok() || !VR.Plan) {
        Out.Findings.push_back(
            {Prefix + ".reject",
             "variant rejected: " + VR.Diags.renderText()});
        continue;
      }
      MetaInvariants Mask = metaInvariants(Transform);
      if (Mask.StaticCounts &&
          R.Plan->staticCounts() != VR.Plan->staticCounts())
        Out.Findings.push_back(
            {Prefix + ".StaticCounts", "static placement counts differ"});
      std::vector<SimConfig> Configs = simConfigs();
      for (std::size_t I = 0; I != Configs.size(); ++I) {
        SimStats VS = simulate(*VR.Prog, *VR.Plan, Configs[I]);
        diffStats(BaseStats[I], VS, Mask, Prefix,
                  "config " + itostr(static_cast<long long>(I)),
                  Out.Findings);
      }
    }
  }

  return Out;
}
