//===- fuzz/SpecFuzz.h - Analysis-spec fuzzer ------------------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A mutation fuzzer for the declarative analysis-spec language
/// (analysis/SpecLang.h). The corpus is the four built-in specs; each
/// iteration mutates one — value swaps (including invalid ones), line
/// deletion/duplication, random transfer expressions, junk keys — and
/// checks two oracle layers:
///
///  1. Linter totality: a rejected spec must carry at least one
///     structured CheckId::Spec error; silent rejection or an
///     unexplained crash is a finding.
///  2. Solver soundness: an accepted spec is compiled and solved on a
///     battery of generated programs. A solution that fails the
///     fixed-point check (analysis/SpecCompile.h) is a finding — the
///     normalized gen/kill form must solve *arbitrary* monotone specs,
///     not just the built-ins.
///
/// Deterministic in Seed, like the program fuzzer.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_FUZZ_SPECFUZZ_H
#define GNT_FUZZ_SPECFUZZ_H

#include <string>
#include <vector>

namespace gnt::fuzz {

struct SpecFuzzOptions {
  unsigned Seed = 1;
  /// Stop after this many mutated specs.
  unsigned long long MaxSpecs = 200;
  /// Generated programs each accepted spec is solved on.
  unsigned ProgramsPerSpec = 3;
  /// Progress lines to stderr.
  bool Verbose = false;
};

struct SpecFuzzFinding {
  std::string Kind;   ///< "spec.lint.no-diagnostic" or
                      ///< "spec.differential".
  std::string Detail; ///< Human-readable description.
  std::string Spec;   ///< The offending spec text (the repro).
};

struct SpecFuzzReport {
  unsigned long long Tried = 0;    ///< Specs run through the oracle.
  unsigned long long Accepted = 0; ///< Specs the linter accepted.
  unsigned long long Rejected = 0; ///< Specs rejected with diagnostics.
  std::vector<SpecFuzzFinding> Findings;

  bool clean() const { return Findings.empty(); }
};

/// Runs one spec-fuzzing campaign; deterministic in Opts.Seed.
SpecFuzzReport runSpecFuzzer(const SpecFuzzOptions &Opts);

} // namespace gnt::fuzz

#endif // GNT_FUZZ_SPECFUZZ_H
