//===- tests/SimdKernelsTest.cpp - Kernel variant parity --------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Every kernel variant this machine can run must agree with the scalar
// reference word-for-word, on every primitive, on widths that exercise
// the vector body, the scalar tail, and the degenerate cases (0, 1,
// sub-lane, exact-lane, lane+1, many lanes). The solver-level identity
// batteries (PropertyTest, fuzz oracle) subsume this in aggregate;
// this test exists so a tail-handling or operand-order bug in one
// primitive fails with the primitive's name in the test output rather
// than as a 20-variable solver diff.
//
//===----------------------------------------------------------------------===//

#include "support/SimdKernels.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

using namespace gnt;

namespace {

using Word = SolverKernels::Word;

// Widths chosen to hit: empty, single word, below one AVX2 step (4),
// exactly one AVX-512 step (8), one step plus tail, several steps plus
// tail, and a large row.
const unsigned Widths[] = {0, 1, 3, 4, 5, 7, 8, 9, 12, 16, 17, 64, 129};

std::vector<Word> randomRow(std::mt19937_64 &Rng, unsigned W) {
  std::vector<Word> R(W);
  for (Word &X : R)
    X = Rng();
  return R;
}

class SimdKernelsTest : public ::testing::Test {
protected:
  const SolverKernels &Scalar = *solverKernelByName("scalar");
  std::mt19937_64 Rng{0x9e3779b97f4a7c15ull};
};

TEST_F(SimdKernelsTest, ScalarIsAlwaysAvailable) {
  ASSERT_NE(solverKernelByName("scalar"), nullptr);
  std::vector<const SolverKernels *> All = availableSolverKernels();
  ASSERT_FALSE(All.empty());
  EXPECT_STREQ(All.front()->Name, "scalar");
  // The active selection is one of the available ones.
  bool Found = false;
  for (const SolverKernels *K : All)
    Found |= std::string_view(K->Name) == solverKernelName();
  EXPECT_TRUE(Found);
}

TEST_F(SimdKernelsTest, UnknownNameIsRejected) {
  EXPECT_EQ(solverKernelByName("mmx"), nullptr);
  EXPECT_EQ(solverKernelByName(""), nullptr);
}

TEST_F(SimdKernelsTest, RowPrimitivesMatchScalar) {
  for (const SolverKernels *K : availableSolverKernels()) {
    SCOPED_TRACE(K->Name);
    for (unsigned W : Widths) {
      SCOPED_TRACE(W);
      const std::vector<Word> A = randomRow(Rng, W);
      const std::vector<Word> B = randomRow(Rng, W);
      const std::vector<Word> D0 = randomRow(Rng, W);

      std::vector<Word> Want = D0, Got = D0;
      Scalar.RowCopy(Want.data(), A.data(), W);
      K->RowCopy(Got.data(), A.data(), W);
      EXPECT_EQ(Want, Got) << "RowCopy";

      Want = D0;
      Got = D0;
      Scalar.RowOr(Want.data(), A.data(), W);
      K->RowOr(Got.data(), A.data(), W);
      EXPECT_EQ(Want, Got) << "RowOr";

      Want = D0;
      Got = D0;
      Scalar.RowAnd(Want.data(), A.data(), W);
      K->RowAnd(Got.data(), A.data(), W);
      EXPECT_EQ(Want, Got) << "RowAnd";

      Want = D0;
      Got = D0;
      Scalar.RowOrAndNot(Want.data(), A.data(), B.data(), W);
      K->RowOrAndNot(Got.data(), A.data(), B.data(), W);
      EXPECT_EQ(Want, Got) << "RowOrAndNot";
    }
  }
}

TEST_F(SimdKernelsTest, FusedSweepsMatchScalar) {
  for (const SolverKernels *K : availableSolverKernels()) {
    SCOPED_TRACE(K->Name);
    for (unsigned W : Widths) {
      SCOPED_TRACE(W);

      // FuseGiveLoc: D = (D | Give | Take) & ~Steal.
      {
        const std::vector<Word> Give = randomRow(Rng, W);
        const std::vector<Word> Take = randomRow(Rng, W);
        const std::vector<Word> Steal = randomRow(Rng, W);
        std::vector<Word> Want = randomRow(Rng, W);
        std::vector<Word> Got = Want;
        Scalar.FuseGiveLoc(W, Want.data(), Give.data(), Take.data(),
                           Steal.data());
        K->FuseGiveLoc(W, Got.data(), Give.data(), Take.data(),
                       Steal.data());
        EXPECT_EQ(Want, Got) << "FuseGiveLoc";
      }

      // FuseS1: 11 inputs, 7 outputs, plus the hoist mask.
      for (Word HoistMask : {~Word(0), Word(0)}) {
        std::vector<std::vector<Word>> In;
        for (int I = 0; I != 11; ++I)
          In.push_back(randomRow(Rng, W));
        std::vector<std::vector<Word>> Want(7, randomRow(Rng, W));
        std::vector<std::vector<Word>> Got = Want;
        auto RunS1 = [&](const SolverKernels &SK,
                         std::vector<std::vector<Word>> &Out) {
          SK.FuseS1(W, In[0].data(), In[1].data(), In[2].data(),
                    In[3].data(), In[4].data(), In[5].data(), In[6].data(),
                    In[7].data(), In[8].data(), In[9].data(), HoistMask,
                    In[10].data(), Out[0].data(), Out[1].data(),
                    Out[2].data(), Out[3].data(), Out[4].data(),
                    Out[5].data(), Out[6].data());
        };
        RunS1(Scalar, Want);
        RunS1(*K, Got);
        EXPECT_EQ(Want, Got) << "FuseS1 mask=" << HoistMask;
      }

      // FuseS3: RGivenIn is in-out, RGiven/RGivenOut are outputs.
      {
        std::vector<std::vector<Word>> In;
        for (int I = 0; I != 7; ++I)
          In.push_back(randomRow(Rng, W));
        std::vector<Word> GivenInW = randomRow(Rng, W);
        std::vector<Word> GivenInG = GivenInW;
        std::vector<Word> GivenW(W), GivenOutW(W), GivenG(W), GivenOutG(W);
        Scalar.FuseS3(W, GivenInW.data(), In[0].data(), In[1].data(),
                      In[2].data(), In[3].data(), In[4].data(),
                      In[5].data(), In[6].data(), GivenW.data(),
                      GivenOutW.data());
        K->FuseS3(W, GivenInG.data(), In[0].data(), In[1].data(),
                  In[2].data(), In[3].data(), In[4].data(), In[5].data(),
                  In[6].data(), GivenG.data(), GivenOutG.data());
        EXPECT_EQ(GivenInW, GivenInG) << "FuseS3 RGivenIn";
        EXPECT_EQ(GivenW, GivenG) << "FuseS3 RGiven";
        EXPECT_EQ(GivenOutW, GivenOutG) << "FuseS3 RGivenOut";
      }

      // FuseS4: RResOut arrives holding the successor union; the
      // returned word ORs the final RES_out. Both fault-injection arms.
      for (bool Flip : {false, true}) {
        const std::vector<Word> Given = randomRow(Rng, W);
        const std::vector<Word> GivenIn = randomRow(Rng, W);
        const std::vector<Word> GivenOut = randomRow(Rng, W);
        std::vector<Word> ResInW(W), ResInG(W);
        std::vector<Word> ResOutW = randomRow(Rng, W);
        std::vector<Word> ResOutG = ResOutW;
        Word RetW = Scalar.FuseS4(W, Flip, Given.data(), GivenIn.data(),
                                  GivenOut.data(), ResInW.data(),
                                  ResOutW.data());
        Word RetG = K->FuseS4(W, Flip, Given.data(), GivenIn.data(),
                              GivenOut.data(), ResInG.data(),
                              ResOutG.data());
        EXPECT_EQ(ResInW, ResInG) << "FuseS4 RResIn flip=" << Flip;
        EXPECT_EQ(ResOutW, ResOutG) << "FuseS4 RResOut flip=" << Flip;
        EXPECT_EQ(RetW, RetG) << "FuseS4 return flip=" << Flip;
      }

      // FuseTransfer: Out = (In & ~Kill) | Gen, returns OR of old^new.
      {
        const std::vector<Word> In = randomRow(Rng, W);
        const std::vector<Word> Gen = randomRow(Rng, W);
        const std::vector<Word> Kill = randomRow(Rng, W);
        std::vector<Word> OutW = randomRow(Rng, W);
        std::vector<Word> OutG = OutW;
        Word RetW = Scalar.FuseTransfer(W, OutW.data(), In.data(),
                                        Gen.data(), Kill.data());
        Word RetG = K->FuseTransfer(W, OutG.data(), In.data(), Gen.data(),
                                    Kill.data());
        EXPECT_EQ(OutW, OutG) << "FuseTransfer Out";
        EXPECT_EQ(RetW, RetG) << "FuseTransfer return";
        // No-change round-trip must report no diff.
        EXPECT_EQ(K->FuseTransfer(W, OutG.data(), In.data(), Gen.data(),
                                  Kill.data()),
                  Word(0))
            << "FuseTransfer fixed point";
        (void)RetW;
      }
    }
  }
}

} // namespace
