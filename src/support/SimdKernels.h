//===- support/SimdKernels.h - Runtime-dispatched row kernels --*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver's hot loops — the row primitives, the fused S1/S3/S4
/// sweeps, Eq. 9's fuseGiveLoc, and the spec-compiled gen/kill
/// transfer — behind one registry of function pointers with explicit-SIMD variants. The
/// default build carries no architecture flags, so the compiler's
/// auto-vectorization of those loops bottoms out at the baseline ISA
/// (SSE2 on x86-64); the variants here are hand-written with AVX2 /
/// AVX-512 (x86) or NEON (aarch64) intrinsics inside
/// `__attribute__((target))` functions, which lets one ordinary
/// translation unit hold all of them and a CPUID probe pick the widest
/// one the machine actually has.
///
/// Every variant is a pure per-word bitwise evaluation of the same
/// equations — no reassociation of anything but bit operations, no
/// cross-lane state — so all variants are byte-identical by
/// construction, and the fuzz oracle plus the PropertyTest grid keep
/// them that way against the classic solver.
///
/// Selection happens once, on first use:
///   1. `GNT_KERNEL=scalar|avx2|avx512|neon` forces a variant when it
///      names one that is compiled in AND supported by this CPU;
///      anything else falls through to
///   2. runtime feature detection (`__builtin_cpu_supports`), widest
///      first.
///
/// All variants use unaligned loads, so alignment is a performance
/// property, not a correctness one: DataflowMatrix pads and aligns its
/// rows (64-byte base, stride a multiple of 8 words) so wide loads
/// never straddle rows, while scratch rows in plain vectors still work.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_SUPPORT_SIMDKERNELS_H
#define GNT_SUPPORT_SIMDKERNELS_H

#include "support/BitVector.h"

#include <cstddef>
#include <string_view>
#include <vector>

namespace gnt {

/// One selectable set of solver kernels. All pointers are always
/// non-null; `Name` is the stable identifier used by `GNT_KERNEL`,
/// `gntc --list-kernels`, the fuzz oracle, and bench output.
struct SolverKernels {
  using Word = BitVector::Word;

  const char *Name;

  /// D = A (W words).
  void (*RowCopy)(Word *D, const Word *A, unsigned W);
  /// D |= A.
  void (*RowOr)(Word *D, const Word *A, unsigned W);
  /// D &= A.
  void (*RowAnd)(Word *D, const Word *A, unsigned W);
  /// D |= A & ~B.
  void (*RowOrAndNot)(Word *D, const Word *A, const Word *B, unsigned W);

  /// Eq. 9 finisher: D = (D | Give | Take) & ~Steal.
  void (*FuseGiveLoc)(unsigned W, Word *D, const Word *Give, const Word *Take,
                      const Word *Steal);

  /// The fused S1 step (Eq. 1-3, 5-8); operand roles and the HoistMask
  /// convention are documented at the call site in GiveNTake.cpp.
  void (*FuseS1)(unsigned W, const Word *StealI, const Word *GiveI,
                 const Word *TakeI, const Word *SumSteal, const Word *SumGive,
                 const Word *EntryBlock, const Word *EntryTaken,
                 const Word *EntryTake, const Word *FwdBlock,
                 const Word *EfTake, Word HoistMask, const Word *TakenOut,
                 Word *RSteal, Word *RGive, Word *RBlock, Word *RTake,
                 Word *RTakenIn, Word *RBlockLoc, Word *RTakeLoc);

  /// The fused S3 step (Eq. 11-13); RGivenIn arrives holding the
  /// predecessor meet and is rewritten in place.
  void (*FuseS3)(unsigned W, Word *RGivenIn, const Word *PredUnion,
                 const Word *HdrGiven, const Word *HdrSteal,
                 const Word *NTakenIn, const Word *NUrgent, const Word *NGive,
                 const Word *NSteal, Word *RGiven, Word *RGivenOut);

  /// The fused S4 step (Eq. 14-15); RResOut arrives holding the
  /// successor union. Returns the OR over the final RES_out words
  /// (no-critical-edge assert). FlipEq14 is the fuzz fault injection.
  Word (*FuseS4)(unsigned W, bool FlipEq14, const Word *RGiven,
                 const Word *RGivenIn, const Word *RGivenOut, Word *RResIn,
                 Word *RResOut);

  /// Spec-compiled gen/kill transfer: Out = (In & ~Kill) | Gen.
  /// Returns the OR of (old ^ new) over Out so callers get change
  /// detection for free.
  Word (*FuseTransfer)(unsigned W, Word *Out, const Word *In, const Word *Gen,
                       const Word *Kill);
};

/// The process-wide selected kernel set. First call resolves the
/// `GNT_KERNEL` override / CPUID probe and caches the result; later
/// calls are one relaxed atomic load.
const SolverKernels &solverKernels();

/// Name of the active kernel set (== solverKernels().Name).
const char *solverKernelName();

/// Looks a variant up by name; returns nullptr when the name is
/// unknown, not compiled into this binary, or unsupported by this CPU.
const SolverKernels *solverKernelByName(std::string_view Name);

/// Every variant this binary can run on this machine, scalar first.
/// Tests, the fuzz differential, and the bench roofline iterate this.
std::vector<const SolverKernels *> availableSolverKernels();

namespace detail {

/// Test/bench-only: forces the process-wide kernel selection for the
/// lifetime of the object. Not safe to use concurrently with running
/// solves (production code never overrides; it only reads).
class ScopedKernelOverride {
public:
  explicit ScopedKernelOverride(const SolverKernels &K);
  ~ScopedKernelOverride();
  ScopedKernelOverride(const ScopedKernelOverride &) = delete;
  ScopedKernelOverride &operator=(const ScopedKernelOverride &) = delete;

private:
  const SolverKernels *Prev;
};

} // namespace detail

} // namespace gnt

#endif // GNT_SUPPORT_SIMDKERNELS_H
