//===- tools/gntc.cpp - GIVE-N-TAKE command line driver ---------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// gntc: analyze an FMini program and print the communication-annotated
// form (or other views of the pipeline).
//
//   gntc [options] file.fm        (or `-` for stdin)
//
// The heavy lifting lives in the service Pipeline (service/Pipeline.h),
// which gntc shares with the gntd batch server; this file is argument
// parsing plus output formatting over the PipelineResult artifacts.
//
// The option table lives in usage() below and must stay in sync with
// parseArgs(); ToolCliTest checks the obvious drift cases.
//
//===----------------------------------------------------------------------===//

#include "dataflow/Dump.h"
#include "service/Pipeline.h"
#include "service/StageCache.h"
#include "sim/TraceSimulator.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

using namespace gnt;

namespace {

struct Options {
  std::string File;
  bool Dot = false;
  bool Ifg = false;
  bool Stats = false;
  bool AuditJson = false;
  bool DumpVars = false;
  bool AnalyzeJson = false;
  long long SimulateN = -1;
  bool EmitProfile = false;
  std::string ProfileFile;
  /// --analyze arguments as given: built-in names, `all`, or @FILE
  /// references (expanded in main once the files can be read).
  std::vector<std::string> Analyses;
  PipelineOptions Pipe;
};

/// Keep this table exhaustive: every flag parseArgs() accepts is listed
/// here, one line per option.
void usage(std::FILE *To) {
  std::fprintf(
      To,
      "usage: gntc [options] FILE      (FILE may be `-` for stdin)\n"
      "\n"
      "views:\n"
      "  --annotate        print the annotated program (default)\n"
      "  --pre             run expression PRE instead of communication\n"
      "  --dot             print the control flow graph in Graphviz form\n"
      "  --ifg             print the interval flow graph structure\n"
      "  --stats           print static placement counts\n"
      "  --dump-vars       print every dataflow variable per node\n"
      "                    (Section 4 style) for the READ/WRITE problems\n"
      "  --simulate N      execute with parameter n = N and print metrics\n"
      "\n"
      "placement options:\n"
      "  --atomic          fuse send/receive pairs (library-call style)\n"
      "  --owner-computes  definitions happen at owners (no WRITEs,\n"
      "                    no free reads)\n"
      "  --no-hoist        disable zero-trip hoisting\n"
      "  --baseline B      use a baseline instead: naive | vectorized | lcm\n"
      "  --strategy S      placement strategy for the GIVE-N-TAKE engine:\n"
      "                    balanced (default) | speculative | lospre\n"
      "  --profile FILE    gnt-profile-v1 execution profile consumed by\n"
      "                    --strategy speculative (`-` for stdin)\n"
      "  --emit-profile    with --simulate: print the run's execution\n"
      "                    profile (gnt-profile-v1) instead of metrics\n"
      "  --incremental     solve through a content-addressed stage cache\n"
      "                    with interval-level incremental re-solving\n"
      "                    (byte-identical output; one-shot runs populate\n"
      "                    the memo, servers reap the reuse)\n"
      "\n"
      "analyses:\n"
      "  --analyze A       run a user-specified dataflow analysis and print\n"
      "                    its per-node solution; A is a built-in name\n"
      "                    (liveness | availability | very-busy | reaching),\n"
      "                    `all` for every built-in, or @FILE to read a\n"
      "                    spec file; repeatable; solved on both the\n"
      "                    iterative engine and the arena solver with a\n"
      "                    mandatory byte-identity differential\n"
      "  --analyze-json    print analysis results as JSON with statistics\n"
      "\n"
      "checking:\n"
      "  --verify          check C1/C3/O1 and exit nonzero on violations\n"
      "  --audit           run the full static audit (structure, C1/C3,\n"
      "                    O1/O2/O3/O3', differential re-derivation)\n"
      "  --audit-json      like --audit, printing JSON diagnostics on stdout\n"
      "  --werror          treat audit/verify warnings and notes as errors\n"
      "\n"
      "  --help            print this help\n");
}

/// Classic Levenshtein distance, small inputs only (flag names).
unsigned editDistance(const std::string &A, const std::string &B) {
  std::vector<unsigned> Row(B.size() + 1);
  for (size_t J = 0; J <= B.size(); ++J)
    Row[J] = static_cast<unsigned>(J);
  for (size_t I = 1; I <= A.size(); ++I) {
    unsigned Diag = Row[0];
    Row[0] = static_cast<unsigned>(I);
    for (size_t J = 1; J <= B.size(); ++J) {
      unsigned Next = std::min({Row[J] + 1, Row[J - 1] + 1,
                                Diag + (A[I - 1] == B[J - 1] ? 0u : 1u)});
      Diag = Row[J];
      Row[J] = Next;
    }
  }
  return Row[B.size()];
}

/// Every flag parseArgs() accepts, for the did-you-mean suggestion.
const char *const KnownFlags[] = {
    "--annotate",      "--pre",
    "--dot",           "--ifg",
    "--stats",         "--dump-vars",
    "--simulate",      "--atomic",
    "--owner-computes", "--no-hoist",
    "--baseline",      "--strategy",
    "--profile",       "--emit-profile",
    "--incremental",
    "--analyze",       "--analyze-json",
    "--verify",        "--audit",
    "--audit-json",    "--werror",
    "--help",
};

/// Nearest known flag within edit distance 2 of \p A, or empty.
std::string nearestFlag(const std::string &A) {
  std::string Best;
  unsigned BestDist = 3;
  for (const char *Flag : KnownFlags) {
    unsigned D = editDistance(A, Flag);
    if (D < BestDist) {
      BestDist = D;
      Best = Flag;
    }
  }
  return Best;
}

bool parseArgs(int Argc, char **Argv, Options &O, int &Exit) {
  Exit = 2;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--annotate") {
      O.Pipe.Annotate = true;
    } else if (A == "--pre") {
      O.Pipe.Mode = PipelineMode::Pre;
    } else if (A == "--dot") {
      O.Dot = true;
      O.Pipe.Annotate = false;
      O.Pipe.StopAfter = PipelineStop::AfterCfg;
    } else if (A == "--ifg") {
      O.Ifg = true;
      O.Pipe.Annotate = false;
      O.Pipe.StopAfter = PipelineStop::AfterInterval;
    } else if (A == "--stats") {
      O.Stats = true;
    } else if (A == "--verify") {
      O.Pipe.Verify = true;
    } else if (A == "--audit") {
      O.Pipe.Audit = true;
      O.Pipe.Annotate = false;
    } else if (A == "--audit-json") {
      O.Pipe.Audit = true;
      O.AuditJson = true;
      O.Pipe.Annotate = false;
    } else if (A == "--werror") {
      O.Pipe.Werror = true;
    } else if (A == "--dump-vars") {
      O.DumpVars = true;
    } else if (A == "--atomic") {
      O.Pipe.Comm.Atomic = true;
    } else if (A == "--owner-computes") {
      O.Pipe.Comm.OwnerComputes = true;
    } else if (A == "--no-hoist") {
      O.Pipe.Comm.HoistZeroTrip = false;
    } else if (A == "--simulate") {
      if (++I == Argc) {
        std::fprintf(stderr, "gntc: --simulate needs a value\n");
        return false;
      }
      char *End = nullptr;
      O.SimulateN = std::strtoll(Argv[I], &End, 10);
      if (End == Argv[I] || *End != '\0' || O.SimulateN < 0) {
        std::fprintf(stderr,
                     "gntc: --simulate needs a non-negative integer, got %s\n",
                     Argv[I]);
        return false;
      }
    } else if (A == "--baseline") {
      if (++I == Argc) {
        std::fprintf(stderr, "gntc: --baseline needs a value\n");
        return false;
      }
      O.Pipe.Baseline = Argv[I];
    } else if (A == "--strategy") {
      if (++I == Argc) {
        std::fprintf(stderr, "gntc: --strategy needs a value\n");
        return false;
      }
      if (!parsePlacementStrategy(Argv[I], O.Pipe.Strategy)) {
        std::fprintf(stderr,
                     "gntc: unknown strategy %s (balanced | speculative | "
                     "lospre)\n",
                     Argv[I]);
        return false;
      }
    } else if (A == "--profile") {
      if (++I == Argc) {
        std::fprintf(stderr, "gntc: --profile needs a file\n");
        return false;
      }
      O.ProfileFile = Argv[I];
    } else if (A == "--emit-profile") {
      O.EmitProfile = true;
      O.Pipe.Annotate = false;
    } else if (A == "--incremental") {
      O.Pipe.Incremental = true;
    } else if (A == "--analyze") {
      if (++I == Argc) {
        std::fprintf(stderr, "gntc: --analyze needs a value\n");
        return false;
      }
      O.Analyses.push_back(Argv[I]);
      O.Pipe.Annotate = false;
    } else if (A == "--analyze-json") {
      O.AnalyzeJson = true;
    } else if (A == "--help") {
      usage(stdout);
      Exit = 0;
      return false;
    } else if (!A.empty() && A[0] == '-' && A != "-") {
      std::string Near = nearestFlag(A);
      if (Near.empty())
        std::fprintf(stderr, "gntc: unknown option %s\n", A.c_str());
      else
        std::fprintf(stderr, "gntc: unknown option %s (did you mean %s?)\n",
                     A.c_str(), Near.c_str());
      return false;
    } else {
      O.File = A;
    }
  }
  if (O.File.empty()) {
    std::fprintf(stderr, "gntc: no input file\n");
    return false;
  }
  return true;
}

std::string readInput(const std::string &File) {
  if (File == "-") {
    std::ostringstream SS;
    SS << std::cin.rdbuf();
    return SS.str();
  }
  std::ifstream In(File);
  if (!In) {
    std::fprintf(stderr, "gntc: cannot open %s\n", File.c_str());
    std::exit(1);
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// True for diagnostics produced before any placement ran (parse and
/// CFG/interval construction failures).
bool isFrontendDiag(const Diagnostic &D) {
  return D.Check == CheckId::Parse || D.Check == CheckId::Build;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  int Exit = 2;
  if (!parseArgs(Argc, Argv, O, Exit)) {
    if (Exit != 0)
      usage(stderr);
    return Exit;
  }

  // Reject option combinations the pipeline would only discover late,
  // with the tool's historical exit code 2.
  if (!O.Pipe.Baseline.empty() && O.Pipe.Baseline != "naive" &&
      O.Pipe.Baseline != "vectorized" && O.Pipe.Baseline != "lcm") {
    std::fprintf(stderr, "gntc: unknown baseline %s\n",
                 O.Pipe.Baseline.c_str());
    return 2;
  }
  if (O.Pipe.Strategy != PlacementStrategy::Balanced &&
      !O.Pipe.Baseline.empty()) {
    std::fprintf(stderr,
                 "gntc: --strategy %s conflicts with --baseline %s "
                 "(baselines bypass the GIVE-N-TAKE engine)\n",
                 placementStrategyName(O.Pipe.Strategy),
                 O.Pipe.Baseline.c_str());
    return 2;
  }
  if (O.Pipe.Strategy != PlacementStrategy::Balanced &&
      O.Pipe.Mode == PipelineMode::Pre) {
    std::fprintf(stderr, "gntc: --strategy applies to communication "
                         "placement, not --pre\n");
    return 2;
  }
  if (O.EmitProfile && O.SimulateN < 0) {
    std::fprintf(stderr, "gntc: --emit-profile requires --simulate\n");
    return 2;
  }
  if (O.Pipe.Audit && !O.Pipe.Baseline.empty() &&
      O.Pipe.Mode == PipelineMode::Comm) {
    // Baseline plans carry no GNT dataflow runs, so there is nothing for
    // the auditor to re-check; reject instead of printing a vacuous pass.
    std::fprintf(stderr,
                 "gntc: --audit requires a GIVE-N-TAKE plan "
                 "(baseline `%s` has no dataflow runs to audit)\n",
                 O.Pipe.Baseline.c_str());
    return 2;
  }

  // Expand --analyze arguments: `all` means every built-in, @FILE reads
  // a spec file, anything else passes through (name or inline text).
  for (const std::string &Entry : O.Analyses) {
    if (Entry == "all") {
      for (const auto &[Name, Text] : builtinAnalysisSpecs())
        O.Pipe.ExtraAnalyses.push_back(Name);
    } else if (!Entry.empty() && Entry[0] == '@') {
      O.Pipe.ExtraAnalyses.push_back(readInput(Entry.substr(1)));
    } else {
      O.Pipe.ExtraAnalyses.push_back(Entry);
    }
  }

  if (!O.ProfileFile.empty())
    O.Pipe.Profile = readInput(O.ProfileFile);

  std::string Source = readInput(O.File);
  // --incremental compiles through a process-local stage cache; a
  // one-shot run sees no reuse but exercises the identical code path
  // the server uses (and the byte-identity contract with it).
  StageCache Stages;
  PipelineResult R = Pipeline(O.Pipe).compile(
      Source, O.Pipe.Incremental ? &Stages : nullptr);

  // Parse or CFG/interval construction failures end the run.
  if (!R.ok()) {
    bool Frontend = false;
    for (const Diagnostic &D : R.Diags.all())
      if (isFrontendDiag(D)) {
        std::fprintf(stderr, "gntc: %s\n", D.Message.c_str());
        Frontend = true;
      }
    if (Frontend)
      return 1;
  }

  if (O.Dot) {
    std::fputs(R.G.dot().c_str(), stdout);
    return 0;
  }
  if (O.Ifg) {
    std::fputs(R.Ifg->describe(R.G).c_str(), stdout);
    return 0;
  }

  if (O.Pipe.Audit) {
    if (O.AuditJson) {
      // Attach the engine convergence statistics as one extra
      // top-level member next to the diagnostics.
      JsonWriter Engine;
      Engine.beginObject();
      Engine.key("solves").value(R.Audit.EngineSolves);
      Engine.key("iterations").value(R.Audit.Engine.Iterations);
      Engine.key("node_visits").value(R.Audit.Engine.NodeVisits);
      Engine.key("edge_evaluations").value(R.Audit.Engine.EdgeEvaluations);
      Engine.key("worklist_peak").value(R.Audit.Engine.WorklistPeak);
      Engine.key("reference_sweeps").value(R.Audit.ReferenceSweeps);
      Engine.endObject();
      std::fputs(R.Diags.renderJson("engine", Engine.str()).c_str(), stdout);
      std::fputc('\n', stdout);
    } else {
      for (const Diagnostic &D : R.Diags.all())
        std::fprintf(stderr, "gntc: %s\n", D.render().c_str());
      std::fprintf(stderr,
                   "gntc: audit: %u errors, %u warnings, %u notes "
                   "(%u dataflow solves, %u reference sweeps)\n",
                   R.Diags.count(DiagSeverity::Error),
                   R.Diags.count(DiagSeverity::Warning),
                   R.Diags.count(DiagSeverity::Note), R.Audit.EngineSolves,
                   R.Audit.ReferenceSweeps);
    }
    return R.ok() ? 0 : 1;
  }

  if (!O.Pipe.ExtraAnalyses.empty()) {
    for (const AnalysisRun &A : R.Analyses) {
      if (O.AnalyzeJson) {
        std::fputs(A.renderJson(/*IncludeStats=*/true).c_str(), stdout);
        std::fputc('\n', stdout);
      } else {
        std::fputs(A.renderText().c_str(), stdout);
      }
    }
    for (const Diagnostic &D : R.Diags.all())
      if (D.Severity == DiagSeverity::Error)
        std::fprintf(stderr, "gntc: %s\n", D.render().c_str());
    return R.ok() ? 0 : 1;
  }

  // A compile that failed past the frontend (strategy/profile errors)
  // produced no plan to print, count, or simulate.
  if (!R.ok() && !R.Plan && !R.Pre) {
    for (const Diagnostic &D : R.Diags.all())
      if (D.Severity == DiagSeverity::Error)
        std::fprintf(stderr, "gntc: %s\n", D.render().c_str());
    return 1;
  }

  if (O.Pipe.Annotate)
    std::fputs(R.Annotated.c_str(), stdout);

  if (O.Pipe.Mode == PipelineMode::Pre) {
    if (O.Stats)
      std::printf("! %zu insertions, %zu redundant occurrences\n",
                  R.Pre->Insertions.size(), R.Pre->Redundant.size());
  } else {
    if (O.DumpVars) {
      std::vector<std::string> Names = R.Plan->Refs.Items.names();
      if (R.Plan->ReadRun) {
        std::printf("\n--- READ problem ---\n");
        std::fputs(dumpGntRun(*R.Plan->ReadRun, R.G, Names).c_str(), stdout);
      }
      if (R.Plan->WriteRun) {
        std::printf("\n--- WRITE problem ---\n");
        std::fputs(dumpGntRun(*R.Plan->WriteRun, R.G, Names).c_str(), stdout);
      }
    }

    if (O.Stats) {
      auto Counts = R.Plan->staticCounts();
      std::printf("! static placements:");
      for (const auto &[Kind, Count] : Counts)
        std::printf(" %s=%u", commOpName(Kind), Count);
      std::printf("\n");
    }

    if (O.SimulateN >= 0) {
      SimConfig Config;
      Config.Params["n"] = O.SimulateN;
      SimStats S = simulate(*R.Prog, *R.Plan, Config);
      if (O.EmitProfile) {
        std::fputs(renderExecProfile(S.Profile).c_str(), stdout);
        return S.ok() ? 0 : 1;
      }
      std::printf("! simulate n=%lld: messages=%llu volume=%llu exposed=%.0f "
                  "work=%.0f wasted=%llu redundant=%llu %s\n",
                  O.SimulateN, S.Messages, S.Volume, S.ExposedLatency, S.Work,
                  S.Wasted, S.Redundant,
                  S.ok() ? "ok" : S.Errors.front().c_str());
      if (!S.ok())
        return 1;
    }
  }

  if (O.Pipe.Verify) {
    for (const Diagnostic &D : R.Diags.all())
      if (D.Severity == DiagSeverity::Error)
        std::fprintf(stderr, "gntc: %s\n", D.render().c_str());
    return R.ok() ? 0 : 1;
  }
  return 0;
}
