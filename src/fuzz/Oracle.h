//===- fuzz/Oracle.h - The stacked placement oracle -------------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The oracle every fuzzer input runs through. Layers, cheapest first:
///
///  1. frontend gate — a plain pipeline compile; inputs the frontend or
///     interval analysis rejects are *invalid*, not findings;
///  2. audit gate — the production pipeline with the full static audit,
///     the independent C1/C3/O1 verifier and -Werror: any diagnostic on
///     a frontend-valid input is a finding;
///  3. incremental differential — a stage cache is primed with the
///     input, a deterministic mutator edit is compiled incrementally
///     from the warm cache, and its result signature and annotation
///     must be byte-identical to a cold compile of the edit;
///  4. trace simulation — the annotated program executes under several
///     (params, branch-seed) bindings; any dynamic C1/C3 violation is a
///     finding;
///  5. strategy layer — the input re-compiles under every non-balanced
///     placement strategy (comm/Strategy.h): `lospre`, and
///     `speculative` fed a profile from a biased training execution of
///     the balanced plan. Each must pass the audit stack and simulate
///     without dynamic violations; on jump-free programs the
///     speculative plan must not execute more messages than balanced
///     under the profile-generating trajectory;
///  6. metamorphic layer — each semantics-preserving transform from
///     Metamorphic.h is applied and the variant's SimStats must match
///     the original under the transform's invariant mask.
///
/// The solver itself is checked in layer 2: the audit's DIFF check
/// re-solves the READ/WRITE problems with the iterative reference
/// solver and compares all 20 dataflow variables with the production
/// arena solve.
///
/// The oracle is deterministic: all internal randomness is seeded from
/// a hash of the source, so a failing input re-fails identically during
/// minimization and replay.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_FUZZ_ORACLE_H
#define GNT_FUZZ_ORACLE_H

#include "fuzz/Coverage.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gnt::fuzz {

struct OracleOptions {
  /// Layer toggles (all on by default).
  bool Simulate = true;
  bool Metamorphic = true;
  /// Strategy layer: `lospre` and profile-fed `speculative` compiles of
  /// the input, each gated on audit, trace simulation, and
  /// (speculative, jump-free inputs) the message-cost contract.
  /// Findings are "strategies.<name>.*".
  bool Strategies = true;
  /// Incremental differential: prime a stage cache with the input,
  /// derive an edited variant, compile the variant incrementally from
  /// the warm cache and byte-diff it against a cold compile. Findings
  /// are "differential.incremental.*".
  bool Incremental = true;
};

struct OracleFinding {
  /// Dot-separated failure class, e.g. "differential.incremental.signature"
  /// or "metamorphic.rename-items.Messages". The minimizer preserves
  /// the first two components while shrinking.
  std::string Kind;
  std::string Detail;
};

struct OracleOutcome {
  /// The input passed the frontend gate (parse, CFG, interval analysis,
  /// solve). Invalid inputs produce no findings.
  bool Valid = false;

  /// No audit/verifier diagnostics of *any* severity — the bar the
  /// ctest corpus replays (`--audit --werror`) hold checked-in seeds
  /// to. Weaker conservatism notes (e.g. O1 redundancy under jump
  /// poisoning) are legal on valid inputs, so this can be false while
  /// the input is finding-free.
  bool WerrorClean = false;
  std::vector<OracleFinding> Findings;

  /// Structural coverage of the input (valid inputs only).
  CoverageFeatures Features;
  std::uint64_t CoverageKey = 0;
  unsigned UniverseSize = 0;

  bool clean() const { return Valid && Findings.empty(); }
};

/// Runs the full oracle stack over \p Source.
OracleOutcome runOracle(const std::string &Source,
                        const OracleOptions &Opts = {});

/// First two dot components of a finding kind — the class the minimizer
/// must preserve ("differential.incremental", "metamorphic.rename-items").
std::string findingClass(const std::string &Kind);

} // namespace gnt::fuzz

#endif // GNT_FUZZ_ORACLE_H
