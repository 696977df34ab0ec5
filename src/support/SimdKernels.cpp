//===- support/SimdKernels.cpp - Runtime-dispatched row kernels ------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// One translation unit holds every variant: the wide-ISA functions are
// compiled under __attribute__((target(...))), so the file itself needs
// no -mavx2/-mavx512f flags and the surrounding binary stays runnable
// on the baseline ISA. Each variant is the same per-word bitwise
// evaluation; the vector bodies process 256/512 bits per iteration with
// unaligned loads and fall back to a scalar tail for the remainder, so
// results are byte-identical regardless of width or alignment.
//
//===----------------------------------------------------------------------===//

#include "support/SimdKernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define GNT_SIMD_X86 1
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#define GNT_SIMD_NEON 1
#endif

using namespace gnt;
using Word = SolverKernels::Word;

//===----------------------------------------------------------------------===//
// Scalar variant
//
// These are the auto-vectorizable reference loops (they used to live
// inline in GiveNTake.cpp); every wide variant below must match them
// word for word. The scalar tails of the wide variants reuse them.
//===----------------------------------------------------------------------===//

namespace {
namespace sc {

void rowCopy(Word *D, const Word *A, unsigned W) {
  std::memcpy(D, A, W * sizeof(Word));
}

void rowOr(Word *__restrict D, const Word *__restrict A, unsigned W) {
  for (unsigned K = 0; K != W; ++K)
    D[K] |= A[K];
}

void rowAnd(Word *__restrict D, const Word *__restrict A, unsigned W) {
  for (unsigned K = 0; K != W; ++K)
    D[K] &= A[K];
}

void rowOrAndNot(Word *__restrict D, const Word *__restrict A,
                 const Word *__restrict B, unsigned W) {
  for (unsigned K = 0; K != W; ++K)
    D[K] |= A[K] & ~B[K];
}

void fuseGiveLoc(unsigned W, Word *__restrict D, const Word *__restrict Give,
                 const Word *__restrict Take, const Word *__restrict Steal) {
  for (unsigned K = 0; K != W; ++K)
    D[K] = (D[K] | Give[K] | Take[K]) & ~Steal[K];
}

void fuseS1(unsigned W, const Word *__restrict StealI,
            const Word *__restrict GiveI, const Word *__restrict TakeI,
            const Word *__restrict SumSteal, const Word *__restrict SumGive,
            const Word *__restrict EntryBlock,
            const Word *__restrict EntryTaken,
            const Word *__restrict EntryTake, const Word *__restrict FwdBlock,
            const Word *__restrict EfTake, Word HoistMask,
            const Word *__restrict TakenOut, Word *__restrict RSteal,
            Word *__restrict RGive, Word *__restrict RBlock,
            Word *__restrict RTake, Word *__restrict RTakenIn,
            Word *__restrict RBlockLoc, Word *__restrict RTakeLoc) {
  for (unsigned K = 0; K != W; ++K) {
    Word Steal = StealI[K] | SumSteal[K];
    Word Give = GiveI[K] | SumGive[K];
    Word Block = Steal | Give | EntryBlock[K];
    Word TOut = TakenOut[K];
    Word Take =
        TakeI[K] | (EntryTaken[K] & ~Steal) | (EntryTake[K] & TOut & ~Block);
    Word TakenIn = Take | (TOut & ~Block & HoistMask);
    Word BlockLoc = (Block | FwdBlock[K]) & ~Take;
    Word TakeLoc = (EfTake[K] & ~Block) | Take;
    RSteal[K] = Steal;
    RGive[K] = Give;
    RBlock[K] = Block;
    RTake[K] = Take;
    RTakenIn[K] = TakenIn;
    RBlockLoc[K] = BlockLoc;
    RTakeLoc[K] = TakeLoc;
  }
}

void fuseS3(unsigned W, Word *__restrict RGivenIn,
            const Word *__restrict PredUnion, const Word *__restrict HdrGiven,
            const Word *__restrict HdrSteal, const Word *__restrict NTakenIn,
            const Word *__restrict NUrgent, const Word *__restrict NGive,
            const Word *__restrict NSteal, Word *__restrict RGiven,
            Word *__restrict RGivenOut) {
  for (unsigned K = 0; K != W; ++K) {
    Word In = RGivenIn[K] | (HdrGiven[K] & ~HdrSteal[K]) |
              (PredUnion[K] & NTakenIn[K]);
    Word Given = In | NUrgent[K];
    RGivenIn[K] = In;
    RGiven[K] = Given;
    RGivenOut[K] = (NGive[K] | Given) & ~NSteal[K];
  }
}

Word fuseS4(unsigned W, bool FlipEq14, const Word *__restrict RGiven,
            const Word *__restrict RGivenIn, const Word *__restrict RGivenOut,
            Word *__restrict RResIn, Word *__restrict RResOut) {
  // FlipEq14 (the fuzz fault injection) as a mask keeps the loop
  // branch-free in every variant: GivenIn ^ ~0 == ~GivenIn.
  const Word Inv = FlipEq14 ? Word(0) : ~Word(0);
  Word AnyOut = 0;
  for (unsigned K = 0; K != W; ++K) {
    RResIn[K] = RGiven[K] & (RGivenIn[K] ^ Inv);
    Word Out = RResOut[K] & ~RGivenOut[K];
    RResOut[K] = Out;
    AnyOut |= Out;
  }
  return AnyOut;
}

Word fuseTransfer(unsigned W, Word *__restrict Out, const Word *__restrict In,
                  const Word *__restrict Gen, const Word *__restrict Kill) {
  Word Diff = 0;
  for (unsigned K = 0; K != W; ++K) {
    Word NV = (In[K] & ~Kill[K]) | Gen[K];
    Diff |= Out[K] ^ NV;
    Out[K] = NV;
  }
  return Diff;
}

} // namespace sc

const SolverKernels ScalarKernels = {
    "scalar",      sc::rowCopy, sc::rowOr,         sc::rowAnd,
    sc::rowOrAndNot, sc::fuseGiveLoc, sc::fuseS1, sc::fuseS3,
    sc::fuseS4,    sc::fuseTransfer,
};

} // namespace

//===----------------------------------------------------------------------===//
// AVX2 / AVX-512 variants (x86)
//===----------------------------------------------------------------------===//

#if GNT_SIMD_X86

namespace {
namespace v2 {

#define GNT_AVX2 __attribute__((target("avx2")))

GNT_AVX2 inline __m256i ld(const Word *P) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(P));
}
GNT_AVX2 inline void st(Word *P, __m256i V) {
  _mm256_storeu_si256(reinterpret_cast<__m256i *>(P), V);
}

GNT_AVX2 void rowCopy(Word *D, const Word *A, unsigned W) {
  unsigned K = 0;
  for (; K + 4 <= W; K += 4)
    st(D + K, ld(A + K));
  for (; K != W; ++K)
    D[K] = A[K];
}

GNT_AVX2 void rowOr(Word *D, const Word *A, unsigned W) {
  unsigned K = 0;
  for (; K + 4 <= W; K += 4)
    st(D + K, _mm256_or_si256(ld(D + K), ld(A + K)));
  for (; K != W; ++K)
    D[K] |= A[K];
}

GNT_AVX2 void rowAnd(Word *D, const Word *A, unsigned W) {
  unsigned K = 0;
  for (; K + 4 <= W; K += 4)
    st(D + K, _mm256_and_si256(ld(D + K), ld(A + K)));
  for (; K != W; ++K)
    D[K] &= A[K];
}

GNT_AVX2 void rowOrAndNot(Word *D, const Word *A, const Word *B, unsigned W) {
  unsigned K = 0;
  for (; K + 4 <= W; K += 4)
    st(D + K,
       _mm256_or_si256(ld(D + K), _mm256_andnot_si256(ld(B + K), ld(A + K))));
  for (; K != W; ++K)
    D[K] |= A[K] & ~B[K];
}

GNT_AVX2 void fuseGiveLoc(unsigned W, Word *D, const Word *Give,
                          const Word *Take, const Word *Steal) {
  unsigned K = 0;
  for (; K + 4 <= W; K += 4) {
    __m256i V = _mm256_or_si256(_mm256_or_si256(ld(D + K), ld(Give + K)),
                                ld(Take + K));
    st(D + K, _mm256_andnot_si256(ld(Steal + K), V));
  }
  for (; K != W; ++K)
    D[K] = (D[K] | Give[K] | Take[K]) & ~Steal[K];
}

GNT_AVX2 void fuseS1(unsigned W, const Word *StealI, const Word *GiveI,
                     const Word *TakeI, const Word *SumSteal,
                     const Word *SumGive, const Word *EntryBlock,
                     const Word *EntryTaken, const Word *EntryTake,
                     const Word *FwdBlock, const Word *EfTake, Word HoistMask,
                     const Word *TakenOut, Word *RSteal, Word *RGive,
                     Word *RBlock, Word *RTake, Word *RTakenIn,
                     Word *RBlockLoc, Word *RTakeLoc) {
  const __m256i Hoist =
      _mm256_set1_epi64x(static_cast<long long>(HoistMask));
  unsigned K = 0;
  for (; K + 4 <= W; K += 4) {
    __m256i Steal = _mm256_or_si256(ld(StealI + K), ld(SumSteal + K));
    __m256i Give = _mm256_or_si256(ld(GiveI + K), ld(SumGive + K));
    __m256i Block =
        _mm256_or_si256(_mm256_or_si256(Steal, Give), ld(EntryBlock + K));
    __m256i TOut = ld(TakenOut + K);
    __m256i Take = _mm256_or_si256(
        ld(TakeI + K),
        _mm256_or_si256(
            _mm256_andnot_si256(Steal, ld(EntryTaken + K)),
            _mm256_andnot_si256(Block,
                                _mm256_and_si256(ld(EntryTake + K), TOut))));
    __m256i TakenIn = _mm256_or_si256(
        Take, _mm256_and_si256(_mm256_andnot_si256(Block, TOut), Hoist));
    __m256i BlockLoc =
        _mm256_andnot_si256(Take, _mm256_or_si256(Block, ld(FwdBlock + K)));
    __m256i TakeLoc =
        _mm256_or_si256(_mm256_andnot_si256(Block, ld(EfTake + K)), Take);
    st(RSteal + K, Steal);
    st(RGive + K, Give);
    st(RBlock + K, Block);
    st(RTake + K, Take);
    st(RTakenIn + K, TakenIn);
    st(RBlockLoc + K, BlockLoc);
    st(RTakeLoc + K, TakeLoc);
  }
  if (K != W)
    sc::fuseS1(W - K, StealI + K, GiveI + K, TakeI + K, SumSteal + K,
               SumGive + K, EntryBlock + K, EntryTaken + K, EntryTake + K,
               FwdBlock + K, EfTake + K, HoistMask, TakenOut + K, RSteal + K,
               RGive + K, RBlock + K, RTake + K, RTakenIn + K, RBlockLoc + K,
               RTakeLoc + K);
}

GNT_AVX2 void fuseS3(unsigned W, Word *RGivenIn, const Word *PredUnion,
                     const Word *HdrGiven, const Word *HdrSteal,
                     const Word *NTakenIn, const Word *NUrgent,
                     const Word *NGive, const Word *NSteal, Word *RGiven,
                     Word *RGivenOut) {
  unsigned K = 0;
  for (; K + 4 <= W; K += 4) {
    __m256i In = _mm256_or_si256(
        ld(RGivenIn + K),
        _mm256_or_si256(
            _mm256_andnot_si256(ld(HdrSteal + K), ld(HdrGiven + K)),
            _mm256_and_si256(ld(PredUnion + K), ld(NTakenIn + K))));
    __m256i Given = _mm256_or_si256(In, ld(NUrgent + K));
    st(RGivenIn + K, In);
    st(RGiven + K, Given);
    st(RGivenOut + K,
       _mm256_andnot_si256(ld(NSteal + K),
                           _mm256_or_si256(ld(NGive + K), Given)));
  }
  if (K != W)
    sc::fuseS3(W - K, RGivenIn + K, PredUnion + K, HdrGiven + K, HdrSteal + K,
               NTakenIn + K, NUrgent + K, NGive + K, NSteal + K, RGiven + K,
               RGivenOut + K);
}

GNT_AVX2 Word fuseS4(unsigned W, bool FlipEq14, const Word *RGiven,
                     const Word *RGivenIn, const Word *RGivenOut, Word *RResIn,
                     Word *RResOut) {
  const Word InvW = FlipEq14 ? Word(0) : ~Word(0);
  const __m256i Inv = _mm256_set1_epi64x(static_cast<long long>(InvW));
  __m256i Any = _mm256_setzero_si256();
  unsigned K = 0;
  for (; K + 4 <= W; K += 4) {
    st(RResIn + K, _mm256_and_si256(ld(RGiven + K),
                                    _mm256_xor_si256(ld(RGivenIn + K), Inv)));
    __m256i Out = _mm256_andnot_si256(ld(RGivenOut + K), ld(RResOut + K));
    st(RResOut + K, Out);
    Any = _mm256_or_si256(Any, Out);
  }
  Word Lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i *>(Lanes), Any);
  Word AnyOut = Lanes[0] | Lanes[1] | Lanes[2] | Lanes[3];
  if (K != W)
    AnyOut |= sc::fuseS4(W - K, FlipEq14, RGiven + K, RGivenIn + K,
                         RGivenOut + K, RResIn + K, RResOut + K);
  return AnyOut;
}

GNT_AVX2 Word fuseTransfer(unsigned W, Word *Out, const Word *In,
                           const Word *Gen, const Word *Kill) {
  __m256i Diff = _mm256_setzero_si256();
  unsigned K = 0;
  for (; K + 4 <= W; K += 4) {
    __m256i NV = _mm256_or_si256(
        _mm256_andnot_si256(ld(Kill + K), ld(In + K)), ld(Gen + K));
    Diff = _mm256_or_si256(Diff, _mm256_xor_si256(ld(Out + K), NV));
    st(Out + K, NV);
  }
  Word Lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i *>(Lanes), Diff);
  Word D = Lanes[0] | Lanes[1] | Lanes[2] | Lanes[3];
  if (K != W)
    D |= sc::fuseTransfer(W - K, Out + K, In + K, Gen + K, Kill + K);
  return D;
}

#undef GNT_AVX2

} // namespace v2

const SolverKernels Avx2Kernels = {
    "avx2",        v2::rowCopy, v2::rowOr,         v2::rowAnd,
    v2::rowOrAndNot, v2::fuseGiveLoc, v2::fuseS1, v2::fuseS3,
    v2::fuseS4,    v2::fuseTransfer,
};

namespace v5 {

#define GNT_AVX512 __attribute__((target("avx512f")))

GNT_AVX512 inline __m512i ld(const Word *P) {
  return _mm512_loadu_si512(reinterpret_cast<const void *>(P));
}
GNT_AVX512 inline void st(Word *P, __m512i V) {
  _mm512_storeu_si512(reinterpret_cast<void *>(P), V);
}
/// A | B | C in one ternary-logic op (truth table 0xFE).
GNT_AVX512 inline __m512i or3(__m512i A, __m512i B, __m512i C) {
  return _mm512_ternarylogic_epi64(A, B, C, 0xFE);
}

GNT_AVX512 void rowCopy(Word *D, const Word *A, unsigned W) {
  unsigned K = 0;
  for (; K + 8 <= W; K += 8)
    st(D + K, ld(A + K));
  for (; K != W; ++K)
    D[K] = A[K];
}

GNT_AVX512 void rowOr(Word *D, const Word *A, unsigned W) {
  unsigned K = 0;
  for (; K + 8 <= W; K += 8)
    st(D + K, _mm512_or_epi64(ld(D + K), ld(A + K)));
  for (; K != W; ++K)
    D[K] |= A[K];
}

GNT_AVX512 void rowAnd(Word *D, const Word *A, unsigned W) {
  unsigned K = 0;
  for (; K + 8 <= W; K += 8)
    st(D + K, _mm512_and_epi64(ld(D + K), ld(A + K)));
  for (; K != W; ++K)
    D[K] &= A[K];
}

GNT_AVX512 void rowOrAndNot(Word *D, const Word *A, const Word *B,
                            unsigned W) {
  unsigned K = 0;
  for (; K + 8 <= W; K += 8)
    // D | (A & ~B): ternary truth table 0xF4 over (D, A, B).
    st(D + K, _mm512_ternarylogic_epi64(ld(D + K), ld(A + K), ld(B + K),
                                        0xF4));
  for (; K != W; ++K)
    D[K] |= A[K] & ~B[K];
}

GNT_AVX512 void fuseGiveLoc(unsigned W, Word *D, const Word *Give,
                            const Word *Take, const Word *Steal) {
  unsigned K = 0;
  for (; K + 8 <= W; K += 8) {
    __m512i V = or3(ld(D + K), ld(Give + K), ld(Take + K));
    st(D + K, _mm512_andnot_epi64(ld(Steal + K), V));
  }
  for (; K != W; ++K)
    D[K] = (D[K] | Give[K] | Take[K]) & ~Steal[K];
}

GNT_AVX512 void fuseS1(unsigned W, const Word *StealI, const Word *GiveI,
                       const Word *TakeI, const Word *SumSteal,
                       const Word *SumGive, const Word *EntryBlock,
                       const Word *EntryTaken, const Word *EntryTake,
                       const Word *FwdBlock, const Word *EfTake,
                       Word HoistMask, const Word *TakenOut, Word *RSteal,
                       Word *RGive, Word *RBlock, Word *RTake, Word *RTakenIn,
                       Word *RBlockLoc, Word *RTakeLoc) {
  const __m512i Hoist =
      _mm512_set1_epi64(static_cast<long long>(HoistMask));
  unsigned K = 0;
  for (; K + 8 <= W; K += 8) {
    __m512i Steal = _mm512_or_epi64(ld(StealI + K), ld(SumSteal + K));
    __m512i Give = _mm512_or_epi64(ld(GiveI + K), ld(SumGive + K));
    __m512i Block = or3(Steal, Give, ld(EntryBlock + K));
    __m512i TOut = ld(TakenOut + K);
    __m512i Take = or3(
        ld(TakeI + K), _mm512_andnot_epi64(Steal, ld(EntryTaken + K)),
        _mm512_andnot_epi64(Block,
                            _mm512_and_epi64(ld(EntryTake + K), TOut)));
    __m512i TakenIn = _mm512_or_epi64(
        Take, _mm512_and_epi64(_mm512_andnot_epi64(Block, TOut), Hoist));
    __m512i BlockLoc =
        _mm512_andnot_epi64(Take, _mm512_or_epi64(Block, ld(FwdBlock + K)));
    __m512i TakeLoc =
        _mm512_or_epi64(_mm512_andnot_epi64(Block, ld(EfTake + K)), Take);
    st(RSteal + K, Steal);
    st(RGive + K, Give);
    st(RBlock + K, Block);
    st(RTake + K, Take);
    st(RTakenIn + K, TakenIn);
    st(RBlockLoc + K, BlockLoc);
    st(RTakeLoc + K, TakeLoc);
  }
  if (K != W)
    sc::fuseS1(W - K, StealI + K, GiveI + K, TakeI + K, SumSteal + K,
               SumGive + K, EntryBlock + K, EntryTaken + K, EntryTake + K,
               FwdBlock + K, EfTake + K, HoistMask, TakenOut + K, RSteal + K,
               RGive + K, RBlock + K, RTake + K, RTakenIn + K, RBlockLoc + K,
               RTakeLoc + K);
}

GNT_AVX512 void fuseS3(unsigned W, Word *RGivenIn, const Word *PredUnion,
                       const Word *HdrGiven, const Word *HdrSteal,
                       const Word *NTakenIn, const Word *NUrgent,
                       const Word *NGive, const Word *NSteal, Word *RGiven,
                       Word *RGivenOut) {
  unsigned K = 0;
  for (; K + 8 <= W; K += 8) {
    __m512i In = or3(ld(RGivenIn + K),
                     _mm512_andnot_epi64(ld(HdrSteal + K), ld(HdrGiven + K)),
                     _mm512_and_epi64(ld(PredUnion + K), ld(NTakenIn + K)));
    __m512i Given = _mm512_or_epi64(In, ld(NUrgent + K));
    st(RGivenIn + K, In);
    st(RGiven + K, Given);
    st(RGivenOut + K,
       _mm512_andnot_epi64(ld(NSteal + K),
                           _mm512_or_epi64(ld(NGive + K), Given)));
  }
  if (K != W)
    sc::fuseS3(W - K, RGivenIn + K, PredUnion + K, HdrGiven + K, HdrSteal + K,
               NTakenIn + K, NUrgent + K, NGive + K, NSteal + K, RGiven + K,
               RGivenOut + K);
}

GNT_AVX512 Word fuseS4(unsigned W, bool FlipEq14, const Word *RGiven,
                       const Word *RGivenIn, const Word *RGivenOut,
                       Word *RResIn, Word *RResOut) {
  const Word InvW = FlipEq14 ? Word(0) : ~Word(0);
  const __m512i Inv = _mm512_set1_epi64(static_cast<long long>(InvW));
  __m512i Any = _mm512_setzero_si512();
  unsigned K = 0;
  for (; K + 8 <= W; K += 8) {
    st(RResIn + K, _mm512_and_epi64(ld(RGiven + K),
                                    _mm512_xor_epi64(ld(RGivenIn + K), Inv)));
    __m512i Out = _mm512_andnot_epi64(ld(RGivenOut + K), ld(RResOut + K));
    st(RResOut + K, Out);
    Any = _mm512_or_epi64(Any, Out);
  }
  Word AnyOut = static_cast<Word>(_mm512_reduce_or_epi64(Any));
  if (K != W)
    AnyOut |= sc::fuseS4(W - K, FlipEq14, RGiven + K, RGivenIn + K,
                         RGivenOut + K, RResIn + K, RResOut + K);
  return AnyOut;
}

GNT_AVX512 Word fuseTransfer(unsigned W, Word *Out, const Word *In,
                             const Word *Gen, const Word *Kill) {
  __m512i Diff = _mm512_setzero_si512();
  unsigned K = 0;
  for (; K + 8 <= W; K += 8) {
    __m512i NV = _mm512_or_epi64(
        _mm512_andnot_epi64(ld(Kill + K), ld(In + K)), ld(Gen + K));
    Diff = _mm512_or_epi64(Diff, _mm512_xor_epi64(ld(Out + K), NV));
    st(Out + K, NV);
  }
  Word D = static_cast<Word>(_mm512_reduce_or_epi64(Diff));
  if (K != W)
    D |= sc::fuseTransfer(W - K, Out + K, In + K, Gen + K, Kill + K);
  return D;
}

#undef GNT_AVX512

} // namespace v5

const SolverKernels Avx512Kernels = {
    "avx512",      v5::rowCopy, v5::rowOr,         v5::rowAnd,
    v5::rowOrAndNot, v5::fuseGiveLoc, v5::fuseS1, v5::fuseS3,
    v5::fuseS4,    v5::fuseTransfer,
};

} // namespace

#endif // GNT_SIMD_X86

//===----------------------------------------------------------------------===//
// NEON variant (aarch64)
//
// NEON is baseline on aarch64, so no target attribute is needed; the
// vectors are 128-bit (2 words), which mostly matches what the
// auto-vectorizer already does — the value of the variant is keeping
// the dispatch seam and the fused multi-output sweeps explicit.
//===----------------------------------------------------------------------===//

#if GNT_SIMD_NEON

namespace {
namespace vn {

inline uint64x2_t ld(const Word *P) { return vld1q_u64(P); }
inline void st(Word *P, uint64x2_t V) { vst1q_u64(P, V); }

void rowCopy(Word *D, const Word *A, unsigned W) {
  std::memcpy(D, A, W * sizeof(Word));
}

void rowOr(Word *D, const Word *A, unsigned W) {
  unsigned K = 0;
  for (; K + 2 <= W; K += 2)
    st(D + K, vorrq_u64(ld(D + K), ld(A + K)));
  for (; K != W; ++K)
    D[K] |= A[K];
}

void rowAnd(Word *D, const Word *A, unsigned W) {
  unsigned K = 0;
  for (; K + 2 <= W; K += 2)
    st(D + K, vandq_u64(ld(D + K), ld(A + K)));
  for (; K != W; ++K)
    D[K] &= A[K];
}

void rowOrAndNot(Word *D, const Word *A, const Word *B, unsigned W) {
  unsigned K = 0;
  for (; K + 2 <= W; K += 2)
    st(D + K, vorrq_u64(ld(D + K), vbicq_u64(ld(A + K), ld(B + K))));
  for (; K != W; ++K)
    D[K] |= A[K] & ~B[K];
}

void fuseGiveLoc(unsigned W, Word *D, const Word *Give, const Word *Take,
                 const Word *Steal) {
  unsigned K = 0;
  for (; K + 2 <= W; K += 2) {
    uint64x2_t V = vorrq_u64(vorrq_u64(ld(D + K), ld(Give + K)),
                             ld(Take + K));
    st(D + K, vbicq_u64(V, ld(Steal + K)));
  }
  for (; K != W; ++K)
    D[K] = (D[K] | Give[K] | Take[K]) & ~Steal[K];
}

void fuseS1(unsigned W, const Word *StealI, const Word *GiveI,
            const Word *TakeI, const Word *SumSteal, const Word *SumGive,
            const Word *EntryBlock, const Word *EntryTaken,
            const Word *EntryTake, const Word *FwdBlock, const Word *EfTake,
            Word HoistMask, const Word *TakenOut, Word *RSteal, Word *RGive,
            Word *RBlock, Word *RTake, Word *RTakenIn, Word *RBlockLoc,
            Word *RTakeLoc) {
  const uint64x2_t Hoist = vdupq_n_u64(HoistMask);
  unsigned K = 0;
  for (; K + 2 <= W; K += 2) {
    uint64x2_t Steal = vorrq_u64(ld(StealI + K), ld(SumSteal + K));
    uint64x2_t Give = vorrq_u64(ld(GiveI + K), ld(SumGive + K));
    uint64x2_t Block = vorrq_u64(vorrq_u64(Steal, Give), ld(EntryBlock + K));
    uint64x2_t TOut = ld(TakenOut + K);
    uint64x2_t Take = vorrq_u64(
        ld(TakeI + K),
        vorrq_u64(vbicq_u64(ld(EntryTaken + K), Steal),
                  vbicq_u64(vandq_u64(ld(EntryTake + K), TOut), Block)));
    uint64x2_t TakenIn =
        vorrq_u64(Take, vandq_u64(vbicq_u64(TOut, Block), Hoist));
    uint64x2_t BlockLoc =
        vbicq_u64(vorrq_u64(Block, ld(FwdBlock + K)), Take);
    uint64x2_t TakeLoc = vorrq_u64(vbicq_u64(ld(EfTake + K), Block), Take);
    st(RSteal + K, Steal);
    st(RGive + K, Give);
    st(RBlock + K, Block);
    st(RTake + K, Take);
    st(RTakenIn + K, TakenIn);
    st(RBlockLoc + K, BlockLoc);
    st(RTakeLoc + K, TakeLoc);
  }
  if (K != W)
    sc::fuseS1(W - K, StealI + K, GiveI + K, TakeI + K, SumSteal + K,
               SumGive + K, EntryBlock + K, EntryTaken + K, EntryTake + K,
               FwdBlock + K, EfTake + K, HoistMask, TakenOut + K, RSteal + K,
               RGive + K, RBlock + K, RTake + K, RTakenIn + K, RBlockLoc + K,
               RTakeLoc + K);
}

void fuseS3(unsigned W, Word *RGivenIn, const Word *PredUnion,
            const Word *HdrGiven, const Word *HdrSteal, const Word *NTakenIn,
            const Word *NUrgent, const Word *NGive, const Word *NSteal,
            Word *RGiven, Word *RGivenOut) {
  unsigned K = 0;
  for (; K + 2 <= W; K += 2) {
    uint64x2_t In = vorrq_u64(
        ld(RGivenIn + K),
        vorrq_u64(vbicq_u64(ld(HdrGiven + K), ld(HdrSteal + K)),
                  vandq_u64(ld(PredUnion + K), ld(NTakenIn + K))));
    uint64x2_t Given = vorrq_u64(In, ld(NUrgent + K));
    st(RGivenIn + K, In);
    st(RGiven + K, Given);
    st(RGivenOut + K,
       vbicq_u64(vorrq_u64(ld(NGive + K), Given), ld(NSteal + K)));
  }
  if (K != W)
    sc::fuseS3(W - K, RGivenIn + K, PredUnion + K, HdrGiven + K, HdrSteal + K,
               NTakenIn + K, NUrgent + K, NGive + K, NSteal + K, RGiven + K,
               RGivenOut + K);
}

Word fuseS4(unsigned W, bool FlipEq14, const Word *RGiven,
            const Word *RGivenIn, const Word *RGivenOut, Word *RResIn,
            Word *RResOut) {
  const uint64x2_t Inv = vdupq_n_u64(FlipEq14 ? Word(0) : ~Word(0));
  uint64x2_t Any = vdupq_n_u64(0);
  unsigned K = 0;
  for (; K + 2 <= W; K += 2) {
    st(RResIn + K,
       vandq_u64(ld(RGiven + K), veorq_u64(ld(RGivenIn + K), Inv)));
    uint64x2_t Out = vbicq_u64(ld(RResOut + K), ld(RGivenOut + K));
    st(RResOut + K, Out);
    Any = vorrq_u64(Any, Out);
  }
  Word AnyOut = vgetq_lane_u64(Any, 0) | vgetq_lane_u64(Any, 1);
  if (K != W)
    AnyOut |= sc::fuseS4(W - K, FlipEq14, RGiven + K, RGivenIn + K,
                         RGivenOut + K, RResIn + K, RResOut + K);
  return AnyOut;
}

Word fuseTransfer(unsigned W, Word *Out, const Word *In, const Word *Gen,
                  const Word *Kill) {
  uint64x2_t Diff = vdupq_n_u64(0);
  unsigned K = 0;
  for (; K + 2 <= W; K += 2) {
    uint64x2_t NV =
        vorrq_u64(vbicq_u64(ld(In + K), ld(Kill + K)), ld(Gen + K));
    Diff = vorrq_u64(Diff, veorq_u64(ld(Out + K), NV));
    st(Out + K, NV);
  }
  Word D = vgetq_lane_u64(Diff, 0) | vgetq_lane_u64(Diff, 1);
  if (K != W)
    D |= sc::fuseTransfer(W - K, Out + K, In + K, Gen + K, Kill + K);
  return D;
}

} // namespace vn

const SolverKernels NeonKernels = {
    "neon",        vn::rowCopy, vn::rowOr,         vn::rowAnd,
    vn::rowOrAndNot, vn::fuseGiveLoc, vn::fuseS1, vn::fuseS3,
    vn::fuseS4,    vn::fuseTransfer,
};

} // namespace

#endif // GNT_SIMD_NEON

//===----------------------------------------------------------------------===//
// Selection
//===----------------------------------------------------------------------===//

namespace {

bool cpuHasAvx2() {
#if GNT_SIMD_X86
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool cpuHasAvx512() {
#if GNT_SIMD_X86
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

/// Widest variant this machine supports.
const SolverKernels &bestKernels() {
#if GNT_SIMD_X86
  if (cpuHasAvx512())
    return Avx512Kernels;
  if (cpuHasAvx2())
    return Avx2Kernels;
#endif
#if GNT_SIMD_NEON
  return NeonKernels;
#else
  return ScalarKernels;
#endif
}

/// The process-wide selection; null until first use.
std::atomic<const SolverKernels *> Active{nullptr};

const SolverKernels *resolve() {
  if (const char *Env = std::getenv("GNT_KERNEL"))
    if (const SolverKernels *K = solverKernelByName(Env))
      return K;
  // Unknown / unsupported override names fall through to autodetect:
  // a stale GNT_KERNEL=avx512 on a machine without it must not turn
  // into a crash or a silent scalar pin.
  return &bestKernels();
}

} // namespace

const SolverKernels &gnt::solverKernels() {
  const SolverKernels *K = Active.load(std::memory_order_acquire);
  if (!K) {
    K = resolve();
    Active.store(K, std::memory_order_release);
  }
  return *K;
}

const char *gnt::solverKernelName() { return solverKernels().Name; }

const SolverKernels *gnt::solverKernelByName(std::string_view Name) {
  for (const SolverKernels *K : availableSolverKernels())
    if (Name == K->Name)
      return K;
  return nullptr;
}

std::vector<const SolverKernels *> gnt::availableSolverKernels() {
  std::vector<const SolverKernels *> Out;
  Out.push_back(&ScalarKernels);
#if GNT_SIMD_X86
  if (cpuHasAvx2())
    Out.push_back(&Avx2Kernels);
  if (cpuHasAvx512())
    Out.push_back(&Avx512Kernels);
#endif
#if GNT_SIMD_NEON
  Out.push_back(&NeonKernels);
#endif
  return Out;
}

gnt::detail::ScopedKernelOverride::ScopedKernelOverride(
    const SolverKernels &K) {
  Prev = &solverKernels(); // Force resolution so restore is well-defined.
  Active.store(&K, std::memory_order_release);
}

gnt::detail::ScopedKernelOverride::~ScopedKernelOverride() {
  Active.store(Prev, std::memory_order_release);
}
