//===- tests/DataflowMatrixTest.cpp - Flat bit-set arena tests --------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/DataflowMatrix.h"

#include "TestUtil.h"
#include "dataflow/GiveNTake.h"

#include <gtest/gtest.h>

#include <cstdint>

using namespace gnt;

TEST(DataflowMatrix, EmptyAndShape) {
  DataflowMatrix Empty;
  EXPECT_EQ(Empty.rows(), 0u);
  EXPECT_EQ(Empty.bits(), 0u);
  EXPECT_EQ(Empty.wordsPerRow(), 0u);

  DataflowMatrix M(5, 130);
  EXPECT_EQ(M.rows(), 5u);
  EXPECT_EQ(M.bits(), 130u);
  EXPECT_EQ(M.wordsPerRow(), 3u);
  for (unsigned R = 0; R != 5; ++R)
    EXPECT_TRUE(M.rowNone(R)) << "row " << R;
}

TEST(DataflowMatrix, AssignExtractRoundTrip) {
  for (unsigned Bits : {1u, 63u, 64u, 65u, 200u}) {
    DataflowMatrix M(3, Bits);
    BitVector V(Bits);
    for (unsigned I = 0; I < Bits; I += 5)
      V.set(I);
    M.assignRow(1, V);
    EXPECT_EQ(M.extractRow(1), V) << "bits " << Bits;
    EXPECT_TRUE(M.rowNone(0)) << "bits " << Bits;
    EXPECT_TRUE(M.rowNone(2)) << "bits " << Bits;
    EXPECT_FALSE(M.rowNone(1)) << "bits " << Bits;
  }
}

TEST(DataflowMatrix, SetRowRespectsTailMask) {
  for (unsigned Bits : {1u, 63u, 64u, 65u, 130u}) {
    DataflowMatrix M(2, Bits);
    M.setRow(0);
    BitVector Row = M.extractRow(0);
    EXPECT_EQ(Row.count(), Bits) << "bits " << Bits;
    // The raw tail word must not carry bits past Bits: extractRow
    // masking would hide them, so check the words directly.
    const DataflowMatrix::Word *W = M.row(0);
    EXPECT_EQ(W[M.wordsPerRow() - 1] & ~M.tailMask(), 0u) << "bits " << Bits;
    EXPECT_TRUE(M.rowNone(1)) << "bits " << Bits;
  }
}

TEST(DataflowMatrix, TailMaskValues) {
  EXPECT_EQ(DataflowMatrix(1, 64).tailMask(), ~DataflowMatrix::Word(0));
  EXPECT_EQ(DataflowMatrix(1, 1).tailMask(), DataflowMatrix::Word(1));
  EXPECT_EQ(DataflowMatrix(1, 65).tailMask(), DataflowMatrix::Word(1));
  EXPECT_EQ(DataflowMatrix(1, 63).tailMask(),
            ~DataflowMatrix::Word(0) >> 1);
}

TEST(DataflowMatrix, ClearZeroesEverything) {
  DataflowMatrix M(4, 70);
  for (unsigned R = 0; R != 4; ++R)
    M.setRow(R);
  M.clear();
  for (unsigned R = 0; R != 4; ++R)
    EXPECT_TRUE(M.rowNone(R)) << "row " << R;
}

TEST(DataflowMatrix, UninitArenaIsUsableOnceEveryRowIsWritten) {
  // The Uninit tag's contract: rows hold garbage until assigned, and a
  // writer that assigns (or zeroes) every row gets a fully defined
  // matrix with the tail-word invariant intact. This is the pattern of
  // the solver export.
  for (unsigned Bits : {1u, 63u, 64u, 65u, 130u, 200u}) {
    DataflowMatrix M(6, Bits, DataflowMatrix::Uninit);
    BitVector Odd(Bits);
    for (unsigned I = 1; I < Bits; I += 2)
      Odd.set(I);
    for (unsigned R = 0; R != 6; ++R) {
      if (R % 2)
        M.assignRow(R, Odd);
      else
        M.setRow(R);
    }
    for (unsigned R = 0; R != 6; ++R) {
      BitVector Row = M.extractRow(R);
      EXPECT_EQ(Row.count(), R % 2 ? Odd.count() : Bits)
          << "bits " << Bits << " row " << R;
      const DataflowMatrix::Word *W = M.row(R);
      EXPECT_EQ(W[M.wordsPerRow() - 1] & ~M.tailMask(), 0u)
          << "bits " << Bits << " row " << R;
    }
  }
}

TEST(DataflowMatrix, MoveTransfersMappedStorage) {
  DataflowMatrix A(3, 4096);
  A.setRow(1);
  DataflowMatrix B(std::move(A));
  EXPECT_EQ(B.extractRow(1).count(), 4096u);
  EXPECT_TRUE(B.rowNone(0));
  DataflowMatrix C;
  C = std::move(B);
  EXPECT_EQ(C.extractRow(1).count(), 4096u);
  EXPECT_TRUE(C.rowNone(2));
}

TEST(DataflowMatrix, GntResultCopyOutlivesItsArena) {
  // The solver's result vectors borrow their words from the arena the
  // GntResult keeps alive; copying a result must deep-copy into owned
  // storage so the copy survives the original (and its arena) being
  // destroyed. A use-after-free here is exactly what ASan builds of
  // this test would catch.
  auto P = test::Pipeline::fromSource("continue\ncontinue\n");
  ASSERT_TRUE(P.Ifg.has_value());
  unsigned N = P.Ifg->size();
  GntProblem Prob(N, 130); // Partial tail word.
  for (unsigned Item = 0; Item != 130; ++Item) {
    Prob.TakeInit[Item % N].set(Item);
    if (Item % 3 == 0)
      Prob.GiveInit[(Item / N) % N].set(Item);
  }
  GntResult Copy;
  BitVector TakeAtOne;
  {
    GntResult R = solveGiveNTake(*P.Ifg, Prob);
    ASSERT_NE(R.Arena, nullptr);
    TakeAtOne = BitVector::fromWords(R.Take[1].words(), R.Take[1].size());
    Copy = R;           // Deep copy: every BitVector now owns its words.
    Copy.Arena.reset(); // Drop the copied keep-alive handle on purpose.
  }                     // Original result and the arena die here.
  ASSERT_EQ(Copy.Take.size(), TakeAtOne.size() ? Copy.Take.size() : 0u);
  EXPECT_EQ(Copy.Take[1], TakeAtOne);
  forEachGntField(Copy, [&](const char *Name,
                            const std::vector<BitVector> &V) {
    for (const BitVector &BV : V) {
      EXPECT_EQ(BV.size(), 130u) << Name;
      (void)BV.count(); // Touch every word: must be owned storage.
    }
  });
}

TEST(DataflowMatrix, RowsAreLaneAlignedAndStridePadded) {
  // The SIMD alignment contract (support/SimdKernels.h): base and every
  // row start on a 64-byte boundary, and the stride is the word count
  // rounded up to a lane multiple — so a 512-bit load of a row's last
  // words never straddles into the next row.
  for (unsigned Bits : {1u, 63u, 64u, 65u, 130u, 512u, 513u}) {
    DataflowMatrix M(5, Bits);
    EXPECT_EQ(M.rowStride() % DataflowMatrix::LaneWords, 0u)
        << "bits " << Bits;
    EXPECT_GE(M.rowStride(), M.wordsPerRow()) << "bits " << Bits;
    EXPECT_LT(M.rowStride(), M.wordsPerRow() + DataflowMatrix::LaneWords)
        << "bits " << Bits;
    EXPECT_EQ(M.storageWords(),
              static_cast<std::size_t>(M.rows()) * M.rowStride())
        << "bits " << Bits;
    for (unsigned R = 0; R != 5; ++R)
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(M.row(R)) %
                    DataflowMatrix::LaneBytes,
                0u)
          << "bits " << Bits << " row " << R;
  }
}

TEST(DataflowMatrix, PaddingNeverLeaksIntoExports) {
  // Fill the padding words behind every row with garbage through the
  // raw stride, then check that extraction, comparison, and the
  // exportability probe see only the data words. This is the
  // tail-word/padding contract borrowWords exports rely on.
  for (unsigned Bits : {1u, 63u, 65u, 130u}) {
    DataflowMatrix M(3, Bits);
    BitVector V(Bits);
    for (unsigned I = 0; I < Bits; I += 3)
      V.set(I);
    for (unsigned R = 0; R != 3; ++R)
      M.assignRow(R, V);
    for (unsigned R = 0; R != 3; ++R) {
      DataflowMatrix::Word *Row = M.row(R);
      for (unsigned W = M.wordsPerRow(); W != M.rowStride(); ++W)
        Row[W] = ~DataflowMatrix::Word(0);
    }
    EXPECT_TRUE(M.rowsExportable()) << "bits " << Bits;
    for (unsigned R = 0; R != 3; ++R) {
      EXPECT_EQ(M.extractRow(R), V) << "bits " << Bits << " row " << R;
      BitVector Borrowed = BitVector::borrowWords(M.row(R), Bits);
      EXPECT_EQ(Borrowed.count(), V.count()) << "bits " << Bits;
    }
  }
}

#ifndef NDEBUG
TEST(DataflowMatrix, UninitPoisonTripsExportabilityCheck) {
  // Debug builds poison Uninit storage with 0xA5. For any universe that
  // is not a word multiple the poison puts bits past bits() in the tail
  // word, so a never-written row must fail rowsExportable() — this is
  // what makes the solver's export assert catch missed rows instead of
  // silently exporting leftover heap bytes.
  DataflowMatrix M(2, 65, DataflowMatrix::Uninit);
  EXPECT_FALSE(M.rowsExportable());
  M.setRow(0);
  EXPECT_FALSE(M.rowsExportable()); // Row 1 still poisoned.
  M.setRow(1);
  EXPECT_TRUE(M.rowsExportable());

  // Word-multiple universes have no out-of-range tail bits to poison;
  // the check is trivially true there (the poison still makes reads
  // loud, it just cannot be *detected* as an invariant violation).
  DataflowMatrix Full(2, 128, DataflowMatrix::Uninit);
  EXPECT_TRUE(Full.rowsExportable());
}
#endif

TEST(DataflowMatrix, RowsAreIndependent) {
  // Adjacent rows share the allocation; writes through row pointers
  // must stay within their own row.
  DataflowMatrix M(3, 65);
  M.setRow(1);
  DataflowMatrix::Word *Mid = M.row(1);
  Mid[0] = 0; // Partial clear through the raw pointer.
  EXPECT_TRUE(M.rowNone(0));
  EXPECT_TRUE(M.rowNone(2));
  EXPECT_EQ(M.extractRow(1).count(), 1u); // Only bit 64 survives.
  EXPECT_TRUE(M.extractRow(1).test(64));
}
