//===- support/SimdKernels.h - Solver row primitives ----------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The word loops shared by the GIVE-N-TAKE arena solver
/// (dataflow/GiveNTake.cpp) and the spec-compiled arena engine
/// (analysis/SpecCompile.cpp): copy, OR, AND and OR-ANDNOT over one row
/// of W words. They are plain scalar loops the compiler inlines and
/// auto-vectorizes; the fused per-equation sweeps live next to their
/// only callers.
///
/// Aliasing contract: the destination never overlaps a source (rows of
/// different arena fields or nodes, or a scratch row); sources may
/// alias each other.
///
/// The header keeps its historical name because perfbench/gnt-perf
/// includes it for solverKernelName().
///
//===----------------------------------------------------------------------===//

#ifndef GNT_SUPPORT_SIMDKERNELS_H
#define GNT_SUPPORT_SIMDKERNELS_H

#include "support/BitVector.h"

#include <cstring>

namespace gnt {

/// D = A (W words).
inline void rowCopy(BitVector::Word *D, const BitVector::Word *A, unsigned W) {
  std::memcpy(D, A, W * sizeof(BitVector::Word));
}

/// D |= A.
inline void rowOr(BitVector::Word *__restrict D,
                  const BitVector::Word *__restrict A, unsigned W) {
  for (unsigned K = 0; K != W; ++K)
    D[K] |= A[K];
}

/// D &= A.
inline void rowAnd(BitVector::Word *__restrict D,
                   const BitVector::Word *__restrict A, unsigned W) {
  for (unsigned K = 0; K != W; ++K)
    D[K] &= A[K];
}

/// D |= A & ~B.
inline void rowOrAndNot(BitVector::Word *__restrict D,
                        const BitVector::Word *__restrict A,
                        const BitVector::Word *__restrict B, unsigned W) {
  for (unsigned K = 0; K != W; ++K)
    D[K] |= A[K] & ~B[K];
}

/// Name of the solver's word-loop implementation, for benchmark
/// reports. There is one, so this is a constant.
inline const char *solverKernelName() { return "scalar"; }

} // namespace gnt

#endif // GNT_SUPPORT_SIMDKERNELS_H
