//===- tools/gnt-fuzz.cpp - Metamorphic differential fuzzer CLI -------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Command-line driver for the fuzz library:
//
//   gnt-fuzz [--smoke] [--corpus DIR] [--out DIR] [--seed N]
//            [--max-inputs N] [--max-seconds X] [--verbose]
//   gnt-fuzz --distill FILE.fm     shrink a clean program, print result
//   gnt-fuzz --minimize FILE.fm    shrink a failing program, print result
//
// Exit codes: 0 no findings, 1 findings (repros written when --out is
// set), 2 usage or I/O error.
//
//===----------------------------------------------------------------------===//

#include "dataflow/GiveNTake.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/Minimizer.h"
#include "fuzz/NetOracle.h"
#include "fuzz/Oracle.h"
#include "fuzz/SpecFuzz.h"
#include "gen/RandomProgram.h"
#include "ir/AstPrinter.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace gnt;
using namespace gnt::fuzz;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: gnt-fuzz [options]\n"
      "  --smoke             CI preset: 500 inputs, fail on any finding\n"
      "  --specs             fuzz the analysis-spec language instead of\n"
      "                      programs (linter totality + fixed-point\n"
      "                      check on generated programs)\n"
      "  --net               replay corpus programs through a live\n"
      "                      socket server and diff every response\n"
      "                      byte-for-byte against the serial stdio\n"
      "                      engine (uses --corpus, --seed,\n"
      "                      --max-inputs as the program budget)\n"
      "  --corpus DIR        seed corpus directory (*.fm)\n"
      "  --out DIR           write minimized repros here\n"
      "  --seed N            campaign seed (default 1)\n"
      "  --max-inputs N      oracle-checked input budget (default 500)\n"
      "  --max-seconds X     wall-clock budget (default none)\n"
      "  --minimize-budget N predicate budget per minimization\n"
      "  --stop-on-finding   stop the campaign at the first finding\n"
      "  --strategies        force the placement-strategy oracle layer\n"
      "                      on (lospre + profile-fed speculative per\n"
      "                      input; the default)\n"
      "  --no-strategies     skip the placement-strategy oracle layer\n"
      "  --distill FILE      shrink a clean program, print to stdout\n"
      "  --minimize FILE     shrink a failing program, print to stdout\n"
      "  --gen BUCKET        print the structure-bucket seed program for\n"
      "                      --seed (0..5, see gen/RandomProgram.h)\n"
      "  --inject-fused-sweep-bug  flip Eq. 14 in the arena fused sweep\n"
      "                      (test-only fault injection; the campaign\n"
      "                      must catch and minimize it)\n"
      "  --verbose           progress to stderr\n");
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "gnt-fuzz: cannot read %s\n", Path.c_str());
    return false;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

} // namespace

int main(int argc, char **argv) {
  FuzzOptions Opts;
  std::string DistillFile, MinimizeFile;
  int GenBucket = -1;
  bool SpecMode = false;
  bool NetMode = false;

  auto NextArg = [&](int &I) -> const char * {
    if (I + 1 >= argc) {
      std::fprintf(stderr, "gnt-fuzz: %s needs an argument\n", argv[I]);
      std::exit(2);
    }
    return argv[++I];
  };

  for (int I = 1; I < argc; ++I) {
    const char *A = argv[I];
    if (!std::strcmp(A, "--smoke")) {
      Opts.MaxInputs = 500;
      Opts.MinimizeBudget = 400;
    } else if (!std::strcmp(A, "--specs")) {
      SpecMode = true;
    } else if (!std::strcmp(A, "--net")) {
      NetMode = true;
    } else if (!std::strcmp(A, "--corpus")) {
      Opts.CorpusDir = NextArg(I);
    } else if (!std::strcmp(A, "--out")) {
      Opts.OutDir = NextArg(I);
    } else if (!std::strcmp(A, "--seed")) {
      Opts.Seed = static_cast<unsigned>(std::atoi(NextArg(I)));
    } else if (!std::strcmp(A, "--max-inputs")) {
      Opts.MaxInputs =
          static_cast<unsigned long long>(std::atoll(NextArg(I)));
    } else if (!std::strcmp(A, "--max-seconds")) {
      Opts.MaxSeconds = std::atof(NextArg(I));
    } else if (!std::strcmp(A, "--minimize-budget")) {
      Opts.MinimizeBudget = static_cast<unsigned>(std::atoi(NextArg(I)));
    } else if (!std::strcmp(A, "--stop-on-finding")) {
      Opts.StopOnFinding = true;
    } else if (!std::strcmp(A, "--strategies")) {
      Opts.Oracle.Strategies = true;
    } else if (!std::strcmp(A, "--no-strategies")) {
      Opts.Oracle.Strategies = false;
    } else if (!std::strcmp(A, "--distill")) {
      DistillFile = NextArg(I);
    } else if (!std::strcmp(A, "--minimize")) {
      MinimizeFile = NextArg(I);
    } else if (!std::strcmp(A, "--gen")) {
      GenBucket = std::atoi(NextArg(I));
    } else if (!std::strcmp(A, "--inject-fused-sweep-bug")) {
      detail::InjectFusedSweepBug.store(true);
    } else if (!std::strcmp(A, "--verbose")) {
      Opts.Verbose = true;
    } else if (!std::strcmp(A, "--help") || !std::strcmp(A, "-h")) {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "gnt-fuzz: unknown option %s\n", A);
      usage();
      return 2;
    }
  }

  if (NetMode) {
    NetOracleOptions NO;
    NO.Seed = Opts.Seed;
    NO.CorpusDir = Opts.CorpusDir;
    if (Opts.MaxInputs && Opts.MaxInputs < 500)
      NO.MaxPrograms = static_cast<unsigned>(Opts.MaxInputs);
    NO.Verbose = Opts.Verbose;
    NetOracleReport Report = runNetOracle(NO);
    std::printf("gnt-fuzz(net): %llu programs, %llu responses diffed "
                "against the serial engine, %zu findings\n",
                Report.Programs, Report.Requests, Report.Findings.size());
    for (const NetOracleFinding &F : Report.Findings) {
      std::printf("  FINDING %s: %s\n", F.Kind.c_str(), F.Detail.c_str());
      if (!F.Request.empty())
        std::printf("    request: %.200s\n", F.Request.c_str());
    }
    return Report.clean() ? 0 : 1;
  }

  if (SpecMode) {
    SpecFuzzOptions SO;
    SO.Seed = Opts.Seed;
    SO.MaxSpecs = Opts.MaxInputs;
    SO.Verbose = Opts.Verbose;
    SpecFuzzReport Report = runSpecFuzzer(SO);
    std::printf("gnt-fuzz(specs): %llu specs (%llu accepted, %llu rejected), "
                "%zu findings\n",
                Report.Tried, Report.Accepted, Report.Rejected,
                Report.Findings.size());
    for (const SpecFuzzFinding &F : Report.Findings)
      std::printf("  FINDING %s: %s\n    spec:\n%s", F.Kind.c_str(),
                  F.Detail.c_str(), F.Spec.c_str());
    return Report.clean() ? 0 : 1;
  }

  if (GenBucket >= 0) {
    if (static_cast<unsigned>(GenBucket) >= NumGenBuckets) {
      std::fprintf(stderr, "gnt-fuzz: --gen bucket must be 0..%u\n",
                   NumGenBuckets - 1);
      return 2;
    }
    GenConfig C =
        genConfigForBucket(static_cast<unsigned>(GenBucket), Opts.Seed);
    std::fputs(AstPrinter().print(generateRandomProgram(C)).c_str(),
               stdout);
    return 0;
  }

  if (!DistillFile.empty()) {
    std::string Source;
    if (!readFile(DistillFile, Source))
      return 2;
    OracleOutcome Base = runOracle(Source);
    if (!Base.clean() || !Base.WerrorClean) {
      std::fprintf(stderr,
                   "gnt-fuzz: --distill input is not oracle-clean%s\n",
                   Base.Valid ? "" : " (frontend rejects it)");
      return 2;
    }
    std::string Small = distillProgram(Source, Opts.MinimizeBudget);
    OracleOutcome O = runOracle(Small);
    std::fputs(provenanceHeader("distilled", Opts.Seed, O.Features).c_str(),
               stdout);
    std::fputs(Small.c_str(), stdout);
    return 0;
  }

  if (!MinimizeFile.empty()) {
    std::string Source;
    if (!readFile(MinimizeFile, Source))
      return 2;
    OracleOutcome Base = runOracle(Source);
    if (Base.Findings.empty()) {
      std::fprintf(stderr, "gnt-fuzz: --minimize input has no findings\n");
      return 2;
    }
    std::string Class = findingClass(Base.Findings.front().Kind);
    std::string Small = minimizeSource(
        Source,
        [&](const std::string &Candidate) {
          OracleOutcome O = runOracle(Candidate);
          for (const OracleFinding &F : O.Findings)
            if (findingClass(F.Kind) == Class)
              return true;
          return false;
        },
        Opts.MinimizeBudget);
    OracleOutcome O = runOracle(Small);
    std::fputs(provenanceHeader(Class, Opts.Seed, O.Features).c_str(),
               stdout);
    std::fputs(Small.c_str(), stdout);
    return 1;
  }

  FuzzReport Report = runFuzzer(Opts);
  std::printf("gnt-fuzz: %llu inputs (%llu valid, %llu novel, %llu seeds), "
              "%u live corpus, %zu findings\n",
              Report.Executed, Report.Valid, Report.Novel,
              Report.SeedInputs, Report.CorpusSize,
              Report.Findings.size());
  for (const FuzzFinding &F : Report.Findings) {
    std::printf("  FINDING %s: %s\n", F.Kind.c_str(), F.Detail.c_str());
    if (!F.Path.empty())
      std::printf("    repro: %s\n", F.Path.c_str());
    else
      std::printf("    repro (%u lines):\n%s",
                  static_cast<unsigned>(
                      std::count(F.Minimized.begin(), F.Minimized.end(),
                                 '\n')),
                  F.Minimized.c_str());
  }
  return Report.Findings.empty() ? 0 : 1;
}
