//===- fuzz/SpecFuzz.cpp - Analysis-spec fuzzer -----------------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "fuzz/SpecFuzz.h"

#include "analysis/SpecCompile.h"
#include "analysis/SpecLang.h"
#include "cfg/CfgBuilder.h"
#include "gen/RandomProgram.h"
#include "interval/IntervalFlowGraph.h"
#include "support/Support.h"

#include <cstdio>
#include <random>
#include <sstream>
#include <vector>

using namespace gnt;
using namespace gnt::fuzz;

namespace {

/// One generated test program with its built graphs, reused across
/// every accepted spec (building them dominates the solve cost).
struct TestProgram {
  Program Prog;
  Cfg G;
  IntervalFlowGraph Ifg;
};

/// Builds ProgramsPerSpec programs across the generator's structure
/// buckets, skipping the (rare) configs whose CFG or interval build
/// fails — spec fuzzing needs solvable graphs, not frontend coverage.
std::vector<TestProgram> buildTestPrograms(unsigned Seed, unsigned Count) {
  std::vector<TestProgram> Out;
  for (unsigned I = 0; Out.size() < Count && I < Count * 4; ++I) {
    GenConfig C = genConfigForBucket(I % NumGenBuckets, Seed + I);
    Program P = generateRandomProgram(C);
    CfgBuildResult CR = buildCfg(P);
    if (!CR.success())
      continue;
    auto IR = IntervalFlowGraph::build(CR.G);
    if (!IR.success())
      continue;
    TestProgram T;
    T.Prog = std::move(P);
    T.G = std::move(CR.G);
    T.Ifg = std::move(*IR.Ifg);
    Out.push_back(std::move(T));
  }
  return Out;
}

/// Raw-draw helpers (same portability discipline as gen/RandomProgram:
/// never distribution adaptors, whose output is implementation
/// defined).
unsigned draw(std::mt19937 &Rng, unsigned N) { return Rng() % N; }

const char *pickValue(std::mt19937 &Rng, const char *const *Pool,
                      unsigned N) {
  return Pool[draw(Rng, N)];
}

/// Random set expression of depth <= 3, possibly mentioning `in`.
std::string randomExpr(std::mt19937 &Rng, unsigned Depth) {
  static const char *const Atoms[] = {"in",    "take", "give",
                                      "steal", "empty", "all"};
  if (Depth == 0 || draw(Rng, 3) == 0)
    return Atoms[draw(Rng, 6)];
  switch (draw(Rng, 4)) {
  case 0:
    return "~" + randomExpr(Rng, Depth - 1);
  case 1:
    return "(" + randomExpr(Rng, Depth - 1) + " | " +
           randomExpr(Rng, Depth - 1) + ")";
  case 2:
    return "(" + randomExpr(Rng, Depth - 1) + " & " +
           randomExpr(Rng, Depth - 1) + ")";
  default:
    return "(" + randomExpr(Rng, Depth - 1) + " - " +
           randomExpr(Rng, Depth - 1) + ")";
  }
}

/// Mutates one spec text: line-level surgery plus targeted value and
/// transfer swaps. Roughly half the results should still lint clean.
std::string mutateSpec(const std::string &Base, std::mt19937 &Rng) {
  std::vector<std::string> Lines;
  std::istringstream In(Base);
  for (std::string L; std::getline(In, L);)
    Lines.push_back(L);
  if (Lines.empty())
    Lines.push_back("universe items");

  static const char *const Directions[] = {"forward", "backward",
                                           "sideways"};
  static const char *const Confluences[] = {"any", "all", "some"};
  static const char *const Universes[] = {"items", "exprs", "defs",
                                          "galaxies"};
  static const char *const Boundaries[] = {"empty", "all", "most"};
  static const char *const Starts[] = {"entry", "exit", "middle"};

  switch (draw(Rng, 8)) {
  case 0: // Replace/insert a direction line.
    Lines.push_back(std::string("direction ") + pickValue(Rng, Directions, 3));
    break;
  case 1:
    Lines.push_back(std::string("confluence ") + pickValue(Rng, Confluences, 3));
    break;
  case 2:
    Lines.push_back(std::string("universe ") + pickValue(Rng, Universes, 4));
    break;
  case 3:
    Lines.push_back(std::string("boundary ") + pickValue(Rng, Boundaries, 3));
    break;
  case 4:
    Lines.push_back(std::string("start ") + pickValue(Rng, Starts, 3));
    break;
  case 5: // Delete a random line.
    Lines.erase(Lines.begin() + draw(Rng, static_cast<unsigned>(Lines.size())));
    break;
  case 6: // Duplicate a random line (duplicate-key bait).
    Lines.push_back(Lines[draw(Rng, static_cast<unsigned>(Lines.size()))]);
    break;
  default: // Replace the transfer with a random expression tree.
    for (auto It = Lines.begin(); It != Lines.end();) {
      const std::string &L = *It;
      if (L.rfind("gen", 0) == 0 || L.rfind("kill", 0) == 0 ||
          L.rfind("transfer", 0) == 0)
        It = Lines.erase(It);
      else
        ++It;
    }
    Lines.push_back("transfer out = " + randomExpr(Rng, 3));
    break;
  }
  if (draw(Rng, 8) == 0) // Occasionally inject a junk key too.
    Lines.push_back("flux capacitor");

  std::string Out;
  for (const std::string &L : Lines) {
    Out += L;
    Out += '\n';
  }
  return Out;
}

bool hasSpecError(const DiagnosticSet &Diags) {
  for (const Diagnostic &D : Diags.all())
    if (D.Severity == DiagSeverity::Error && D.Check == CheckId::Spec)
      return true;
  return false;
}

} // namespace

SpecFuzzReport gnt::fuzz::runSpecFuzzer(const SpecFuzzOptions &Opts) {
  SpecFuzzReport Report;
  std::mt19937 Rng(Opts.Seed);

  std::vector<TestProgram> Programs =
      buildTestPrograms(Opts.Seed, Opts.ProgramsPerSpec);

  auto Check = [&](const std::string &Text) {
    ++Report.Tried;
    SpecParseResult PR = parseAndLintAnalysisSpec(Text);
    if (!PR.ok()) {
      ++Report.Rejected;
      // Oracle 1: every rejection must be explained by a structured
      // Spec diagnostic — the linter has no silent failure mode.
      if (!hasSpecError(PR.Diags))
        Report.Findings.push_back(
            {"spec.lint.no-diagnostic",
             "rejected spec carries no CheckId::Spec error", Text});
      return;
    }
    ++Report.Accepted;

    // Oracle 2: solve on every test program; runAnalysisSpec checks
    // the solution against the spec's own equations.
    for (const TestProgram &T : Programs) {
      AnalysisRun Run = runAnalysisSpec(Text, T.Prog, T.G, T.Ifg);
      if (!Run.ok()) {
        Report.Findings.push_back(
            {"spec.differential",
             "accepted spec failed its fixed-point check", Text});
        return;
      }
    }
  };

  // The unmutated built-ins go first: the campaign is vacuous if they
  // do not pass both oracles.
  for (const auto &[Name, Text] : builtinAnalysisSpecs()) {
    if (Report.Tried >= Opts.MaxSpecs)
      break;
    Check(Text);
  }

  while (Report.Tried < Opts.MaxSpecs) {
    const auto &Builtins = builtinAnalysisSpecs();
    const std::string &Base =
        Builtins[draw(Rng, static_cast<unsigned>(Builtins.size()))].second;
    std::string Mutant = mutateSpec(Base, Rng);
    // A second mutation round half the time compounds defects.
    if (draw(Rng, 2) == 0)
      Mutant = mutateSpec(Mutant, Rng);
    Check(Mutant);
    if (Opts.Verbose && Report.Tried % 50 == 0)
      std::fprintf(stderr,
                   "gnt-fuzz(specs): %llu tried, %llu accepted, %zu findings\n",
                   Report.Tried, Report.Accepted, Report.Findings.size());
  }
  return Report;
}
