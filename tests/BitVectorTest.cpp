//===- tests/BitVectorTest.cpp - BitVector unit tests -----------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/BitVector.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

using namespace gnt;

TEST(BitVector, EmptyAndSized) {
  BitVector Empty;
  EXPECT_EQ(Empty.size(), 0u);
  EXPECT_TRUE(Empty.none());
  EXPECT_EQ(Empty.count(), 0u);

  BitVector V(130);
  EXPECT_EQ(V.size(), 130u);
  EXPECT_TRUE(V.none());
  EXPECT_FALSE(V.any());
}

TEST(BitVector, SetResetTest) {
  BitVector V(100);
  V.set(0);
  V.set(63);
  V.set(64);
  V.set(99);
  EXPECT_TRUE(V.test(0));
  EXPECT_TRUE(V.test(63));
  EXPECT_TRUE(V.test(64));
  EXPECT_TRUE(V.test(99));
  EXPECT_FALSE(V.test(1));
  EXPECT_EQ(V.count(), 4u);
  V.reset(63);
  EXPECT_FALSE(V.test(63));
  EXPECT_EQ(V.count(), 3u);
}

TEST(BitVector, AllOnesConstruction) {
  BitVector V(70, true);
  EXPECT_TRUE(V.all());
  EXPECT_EQ(V.count(), 70u);
  // Excess bits in the tail word must not leak into count().
  V.reset(69);
  EXPECT_EQ(V.count(), 69u);
  EXPECT_FALSE(V.all());
}

TEST(BitVector, ResizeGrowWithValue) {
  BitVector V(10, true);
  V.resize(130, true);
  EXPECT_EQ(V.count(), 130u);
  BitVector W(10, true);
  W.resize(130, false);
  EXPECT_EQ(W.count(), 10u);
}

TEST(BitVector, SetAlgebra) {
  BitVector A(80), B(80);
  A.set(1);
  A.set(40);
  A.set(70);
  B.set(40);
  B.set(71);

  BitVector U = unionOf(A, B);
  EXPECT_EQ(U.count(), 4u);
  EXPECT_TRUE(U.test(1) && U.test(40) && U.test(70) && U.test(71));

  BitVector I = intersectionOf(A, B);
  EXPECT_EQ(I.count(), 1u);
  EXPECT_TRUE(I.test(40));

  BitVector D = differenceOf(A, B);
  EXPECT_EQ(D.count(), 2u);
  EXPECT_TRUE(D.test(1) && D.test(70));
  EXPECT_FALSE(D.test(40));
}

TEST(BitVector, SubsetAndCommon) {
  BitVector A(64), B(64);
  A.set(3);
  B.set(3);
  B.set(9);
  EXPECT_TRUE(A.isSubsetOf(B));
  EXPECT_FALSE(B.isSubsetOf(A));
  EXPECT_TRUE(A.anyCommon(B));
  A.reset(3);
  EXPECT_FALSE(A.anyCommon(B));
  EXPECT_TRUE(A.isSubsetOf(B)); // Empty set is a subset of everything.
}

TEST(BitVector, FindAndIteration) {
  BitVector V(200);
  std::set<unsigned> Expected = {0, 5, 63, 64, 65, 128, 199};
  for (unsigned I : Expected)
    V.set(I);

  std::set<unsigned> Seen;
  for (unsigned I : V)
    Seen.insert(I);
  EXPECT_EQ(Seen, Expected);

  EXPECT_EQ(V.findFirst(), 0);
  EXPECT_EQ(V.findNext(0), 5);
  EXPECT_EQ(V.findNext(65), 128);
  EXPECT_EQ(V.findNext(199), -1);
}

TEST(BitVector, EqualityAndEmptyIteration) {
  BitVector A(33), B(33);
  EXPECT_EQ(A, B);
  A.set(32);
  EXPECT_NE(A, B);
  B.set(32);
  EXPECT_EQ(A, B);

  BitVector E(50);
  unsigned Count = 0;
  for (unsigned I : E) {
    (void)I;
    ++Count;
  }
  EXPECT_EQ(Count, 0u);
}

/// Randomized consistency check against std::set as the reference model.
TEST(BitVector, RandomizedAgainstReferenceModel) {
  std::mt19937 Rng(12345);
  for (unsigned Trial = 0; Trial != 50; ++Trial) {
    unsigned Size = 1 + Rng() % 300;
    BitVector A(Size), B(Size);
    std::set<unsigned> RefA, RefB;
    for (unsigned I = 0; I != Size / 2; ++I) {
      unsigned X = Rng() % Size, Y = Rng() % Size;
      A.set(X);
      RefA.insert(X);
      B.set(Y);
      RefB.insert(Y);
    }
    BitVector U = unionOf(A, B), In = intersectionOf(A, B),
              D = differenceOf(A, B);
    for (unsigned I = 0; I != Size; ++I) {
      EXPECT_EQ(U.test(I), RefA.count(I) || RefB.count(I));
      EXPECT_EQ(In.test(I), RefA.count(I) && RefB.count(I));
      EXPECT_EQ(D.test(I), RefA.count(I) && !RefB.count(I));
    }
    EXPECT_EQ(A.count(), RefA.size());
  }
}

//===----------------------------------------------------------------------===//
// Tail-word edge cases: sizes that are not a multiple of 64
//===----------------------------------------------------------------------===//
//
// The solver and its DataflowMatrix arena depend on the
// tail-word invariant (bits beyond size() in the last word stay zero)
// holding through every mutation path; these tests pin the awkward
// sizes: 1, 63, 65, 127 and the word boundary itself.

TEST(BitVector, FlipRespectsTailWord) {
  for (unsigned Size : {1u, 63u, 64u, 65u, 127u, 130u}) {
    BitVector V(Size);
    V.flip();
    EXPECT_EQ(V.count(), Size) << "size " << Size;
    EXPECT_TRUE(V.all()) << "size " << Size;
    V.flip();
    EXPECT_TRUE(V.none()) << "size " << Size;
    EXPECT_EQ(V, BitVector(Size)) << "size " << Size;
  }
}

TEST(BitVector, ResizeShrinkClearsExcess) {
  BitVector V(130, true);
  V.resize(65);
  EXPECT_EQ(V.size(), 65u);
  EXPECT_EQ(V.count(), 65u);
  // Regrow: the bits dropped by the shrink must not reappear.
  V.resize(130, false);
  EXPECT_EQ(V.count(), 65u);
  EXPECT_EQ(V.findNext(64), -1);
}

TEST(BitVector, ResizeGrowFromPartialTail) {
  // Growing an all-ones vector whose old tail word was partial must
  // fill the fresh high bits of that word too.
  BitVector V(3, true);
  V.resize(65, true);
  EXPECT_EQ(V.count(), 65u);
  EXPECT_TRUE(V.all());
  V.resize(64);
  EXPECT_EQ(V.count(), 64u);
  V.resize(1);
  EXPECT_EQ(V.count(), 1u);
}

TEST(BitVector, SetAllThenShrinkGrowRoundTrip) {
  BitVector V(100);
  V.set();
  EXPECT_EQ(V.count(), 100u);
  V.flip();
  EXPECT_TRUE(V.none());
  V.set();
  V.reset();
  EXPECT_TRUE(V.none());
}

TEST(BitVector, FindNextNearTail) {
  BitVector V(65);
  V.set(64);
  EXPECT_EQ(V.findFirst(), 64);
  EXPECT_EQ(V.findNext(63), 64);
  EXPECT_EQ(V.findNext(64), -1);
  BitVector W(63);
  W.set(62);
  EXPECT_EQ(W.findNext(61), 62);
  EXPECT_EQ(W.findNext(62), -1);
}

TEST(BitVector, WordsRoundTrip) {
  for (unsigned Size : {1u, 63u, 64u, 65u, 200u}) {
    BitVector V(Size);
    for (unsigned I = 0; I < Size; I += 7)
      V.set(I);
    BitVector R = BitVector::fromWords(V.words(), V.size());
    EXPECT_EQ(R, V) << "size " << Size;
    EXPECT_EQ(R.wordCount(), (Size + 63) / 64) << "size " << Size;
  }
}

TEST(BitVector, FromWordsMasksTail) {
  // fromWords must clear source bits beyond the requested size.
  BitVector::Word Src[2] = {~BitVector::Word(0), ~BitVector::Word(0)};
  BitVector V = BitVector::fromWords(Src, 65);
  EXPECT_EQ(V.count(), 65u);
  BitVector W = BitVector::fromWords(Src, 63);
  EXPECT_EQ(W.count(), 63u);
}

TEST(BitVector, SliceWords) {
  BitVector V(200);
  for (unsigned I = 0; I < 200; I += 3)
    V.set(I);
  // Slice covering words 1..2 (bits 64..191), 100 bits worth.
  BitVector S = V.sliceWords(1, 100);
  EXPECT_EQ(S.size(), 100u);
  for (unsigned I = 0; I != 100; ++I)
    EXPECT_EQ(S.test(I), V.test(64 + I)) << "bit " << I;
  // A full-vector slice is the identity.
  EXPECT_EQ(V.sliceWords(0, 200), V);
  // A tail slice narrower than a word.
  BitVector T = V.sliceWords(3, 8);
  for (unsigned I = 0; I != 8; ++I)
    EXPECT_EQ(T.test(I), V.test(192 + I)) << "bit " << I;
}

TEST(BitVector, InlineHeapAndBorrowedStorage) {
  static_assert(sizeof(BitVector) <= 40, "rows must stay 40 bytes");
  // 192 bits fill the inline words exactly; 193 bits need a heap block.
  for (unsigned Size : {192u, 193u}) {
    SCOPED_TRACE(Size);
    BitVector V(Size);
    for (unsigned I = 0; I < Size; I += 5)
      V.set(I);
    V.set(Size - 1);
    const unsigned Count = V.count();

    // Copies are deep.
    BitVector C = V;
    EXPECT_EQ(C, V);
    C.reset(0);
    EXPECT_TRUE(V.test(0));

    // A move leaves the source empty and reusable.
    BitVector M = std::move(C);
    EXPECT_EQ(M.size(), Size);
    EXPECT_FALSE(M.test(0));
    EXPECT_EQ(C.size(), 0u);
    EXPECT_TRUE(C.none());
    C.resize(70, true);
    EXPECT_EQ(C.count(), 70u);
    C = std::move(M);
    EXPECT_EQ(C.size(), Size);
    EXPECT_EQ(C.count(), Count - 1);

    // Copy-assigning onto a borrowed vector detaches it without writing
    // the borrowed row.
    std::vector<BitVector::Word> Row(V.wordCount(), 0);
    BitVector B = BitVector::borrowWords(Row.data(), Size);
    B.set(1);
    EXPECT_EQ(Row[0], BitVector::Word(2));
    B = V;
    EXPECT_EQ(B, V);
    B.set(2);
    EXPECT_EQ(Row[0], BitVector::Word(2));
    for (unsigned W = 1; W != Row.size(); ++W)
      EXPECT_EQ(Row[W], 0u);

    // A moved borrowed vector keeps pointing at the row.
    BitVector B2 = BitVector::borrowWords(Row.data(), Size);
    BitVector B3 = std::move(B2);
    B3.set(3);
    EXPECT_EQ(Row[0], BitVector::Word(2 | 8));

    // Self-assignment keeps the contents.
    BitVector &Alias = V;
    V = Alias;
    EXPECT_EQ(V.count(), Count);
  }

  // Resizing across the inline boundary keeps the bits and clears the
  // tail beyond the size.
  BitVector R(192);
  R.set(0);
  R.set(191);
  R.resize(193, true);
  EXPECT_TRUE(R.test(192));
  EXPECT_EQ(R.count(), 3u);
  R.resize(192);
  EXPECT_EQ(R.count(), 2u);
  R.resize(193);
  EXPECT_FALSE(R.test(192));
  EXPECT_EQ(R.count(), 2u);
  R.resize(64);
  R.set();
  EXPECT_EQ(R.count(), 64u);
  R.resize(300);
  EXPECT_EQ(R.count(), 64u);
  EXPECT_TRUE(R.test(63));
  EXPECT_FALSE(R.test(64));

  // Resizing a borrowed vector materializes an owned copy.
  std::vector<BitVector::Word> Row(4, ~BitVector::Word(0));
  BitVector B = BitVector::borrowWords(Row.data(), 256);
  B.resize(193);
  EXPECT_EQ(B.count(), 193u);
  B.reset();
  EXPECT_EQ(Row[0], ~BitVector::Word(0));
  EXPECT_EQ(Row[3], ~BitVector::Word(0));
}
