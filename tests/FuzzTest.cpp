//===- tests/FuzzTest.cpp - Fuzz library tests ------------------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Unit and end-to-end coverage for the metamorphic differential fuzzer:
/// AST cloning, mutation validity, structural coverage features, the
/// layered oracle (including the injected fused-sweep fault it must
/// catch), metamorphic transform application, class-preserving
/// minimization, and a short deterministic campaign.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "dataflow/GiveNTake.h"
#include "fuzz/Clone.h"
#include "fuzz/Fuzzer.h"
#include "fuzz/Metamorphic.h"
#include "fuzz/Minimizer.h"
#include "fuzz/Mutator.h"
#include "fuzz/Oracle.h"
#include "gen/RandomProgram.h"
#include "ir/AstPrinter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace gnt;
using namespace gnt::fuzz;

namespace {

/// Restores the fault-injection flag even when an assertion fails.
struct ScopedFaultInjection {
  ScopedFaultInjection() { detail::InjectFusedSweepBug.store(true); }
  ~ScopedFaultInjection() { detail::InjectFusedSweepBug.store(false); }
};

/// Structurally rich, oracle-clean program: loops, a branch with else,
/// an indirect subscript, and a constant zero-trip loop.
const char *RichSource = R"(
distribute x, y
array a, w, z
do i = 1, n
  w(i) = x(a(i))
enddo
if (t(n)) then
  do j = 1, 0
    y(j) = 4
  enddo
else
  z(1) = y(2)
endif
do k = 1, n
  w(k) = 5
  z(k) = x(k) + y(k)
enddo
)";

/// The fused-sweep fault's minimized shape: a read of a distributed
/// element in one arm of a branch. Flipping Eq. 14 (RES = GIVEN minus
/// inherited GIVEN_in) desynchronizes the arena sweep from the
/// reference engine here.
const char *FaultTriggerSource = R"(
distribute x2
array w
if (t(i1)) then
else
  w(1) = x2(1) + 24
endif
)";

unsigned lineCount(const std::string &S) {
  return static_cast<unsigned>(std::count(S.begin(), S.end(), '\n'));
}

} // namespace

//===----------------------------------------------------------------------===//
// Cloning
//===----------------------------------------------------------------------===//

TEST(FuzzClone, RoundTripIsByteIdentical) {
  ParseResult PR = parseProgram(test::fig11Source());
  ASSERT_TRUE(PR.success());
  Program Copy = cloneProgram(PR.Prog);
  EXPECT_EQ(AstPrinter().print(Copy), AstPrinter().print(PR.Prog));
}

TEST(FuzzClone, RenameRewritesDeclarationAndEveryReference) {
  ParseResult PR = parseProgram(test::fig11Source());
  ASSERT_TRUE(PR.success());
  Program Renamed = cloneProgram(PR.Prog, {{"y", "yq"}});
  EXPECT_TRUE(Renamed.isDistributed("yq"));
  EXPECT_FALSE(Renamed.isDistributed("y"));
  std::string Out = AstPrinter().print(Renamed);
  EXPECT_EQ(Out.find("y("), std::string::npos) << Out;
  EXPECT_NE(Out.find("yq("), std::string::npos);
  // Alpha-renaming is oracle-transparent end to end.
  EXPECT_TRUE(runOracle(Out).clean());
}

//===----------------------------------------------------------------------===//
// Mutation
//===----------------------------------------------------------------------===//

TEST(FuzzMutator, ProducesParseableProgramsDeterministically) {
  std::mt19937 RngA(11), RngB(11);
  unsigned Parsed = 0, Changed = 0;
  for (unsigned I = 0; I != 30; ++I) {
    std::string A = mutateSource(RichSource, RngA);
    EXPECT_EQ(A, mutateSource(RichSource, RngB)) << "draw " << I;
    if (A.empty())
      continue;
    if (parseProgram(A).success())
      ++Parsed;
    Changed += A != RichSource;
  }
  // The mutator re-prints through the AST, so emitted children always
  // parse; most draws find an applicable site.
  EXPECT_GE(Parsed, 25u);
  EXPECT_GE(Changed, 25u);
}

TEST(FuzzMutator, CrossoverImportsDeclarationsFromDonor) {
  std::mt19937 Rng(3);
  for (unsigned I = 0; I != 10; ++I) {
    std::string Child =
        crossoverSources(RichSource, test::fig11Source(), Rng);
    if (Child.empty())
      continue;
    ParseResult PR = parseProgram(Child);
    EXPECT_TRUE(PR.success())
        << (PR.Errors.empty() ? "" : PR.Errors.front()) << "\n"
        << Child;
  }
}

//===----------------------------------------------------------------------===//
// Coverage features
//===----------------------------------------------------------------------===//

TEST(FuzzCoverage, FlagsAndKeyReflectStructure) {
  OracleOutcome O = runOracle(RichSource);
  ASSERT_TRUE(O.Valid);
  EXPECT_TRUE(O.Features.HasElse);
  EXPECT_TRUE(O.Features.HasZeroTripConst);
  EXPECT_TRUE(O.Features.HasIndirect);
  EXPECT_FALSE(O.Features.HasWideUniverse);
  EXPECT_EQ(O.Features.key(), O.CoverageKey);
  EXPECT_NE(O.Features.describe().find("edges="), std::string::npos);

  // Deterministic, and sensitive to structure.
  EXPECT_EQ(runOracle(RichSource).CoverageKey, O.CoverageKey);
  EXPECT_NE(runOracle(test::fig11Source()).CoverageKey, O.CoverageKey);
}

//===----------------------------------------------------------------------===//
// Oracle
//===----------------------------------------------------------------------===//

TEST(FuzzOracle, FindingClassKeepsTwoComponents) {
  EXPECT_EQ(findingClass("differential.incremental.signature"),
            "differential.incremental");
  EXPECT_EQ(findingClass("simulator.trace"), "simulator.trace");
  EXPECT_EQ(findingClass("audit"), "audit");
}

TEST(FuzzOracle, CleanOnEveryGeneratorBucket) {
  for (unsigned Bucket = 0; Bucket != NumGenBuckets; ++Bucket) {
    GenConfig C = genConfigForBucket(Bucket, 1);
    std::string Source = AstPrinter().print(generateRandomProgram(C));
    OracleOutcome O = runOracle(Source);
    EXPECT_TRUE(O.clean())
        << "bucket " << Bucket << ": "
        << (O.Findings.empty() ? "invalid" : O.Findings.front().Kind);
  }
}

TEST(FuzzOracle, InvalidInputYieldsNoFindings) {
  OracleOutcome O = runOracle("do i = 1\n  w(1) = \nenddo\n");
  EXPECT_FALSE(O.Valid);
  EXPECT_TRUE(O.Findings.empty());
}

TEST(FuzzOracle, ToleratesConservatismNotesButReportsThem) {
  // Jump poisoning makes the auditor emit O1 notes; that is documented
  // Section 5.3 conservatism, not a finding — but WerrorClean must
  // expose it so the distiller can hold corpus seeds to the strict bar.
  const char *Poisoned = R"(
distribute w
array a
do i = 1, n
  w(a(i)) = 1
  if (t(i)) goto 9
enddo
9 do k = 1, n
  w(a(k)) = 2
enddo
)";
  OracleOutcome O = runOracle(Poisoned);
  EXPECT_TRUE(O.clean());
  EXPECT_FALSE(O.WerrorClean);
  EXPECT_TRUE(runOracle(RichSource).WerrorClean);
}

TEST(FuzzOracle, CatchesInjectedFusedSweepBug) {
  ASSERT_TRUE(runOracle(FaultTriggerSource).clean());
  ScopedFaultInjection Inject;
  OracleOutcome O = runOracle(FaultTriggerSource);
  ASSERT_FALSE(O.Findings.empty());
  // The audit's DIFF check, a re-solve with the reference solver, sees
  // the desync in the audit gate (layer 2).
  EXPECT_TRUE(findingClass(O.Findings.front().Kind) == "audit.error" ||
              findingClass(O.Findings.front().Kind).rfind(
                  "differential", 0) == 0)
      << O.Findings.front().Kind;
}

//===----------------------------------------------------------------------===//
// Metamorphic transforms
//===----------------------------------------------------------------------===//

TEST(FuzzMetamorphic, EveryTransformAppliesAndStaysOracleClean) {
  for (unsigned T = 0; T != NumMetaTransforms; ++T) {
    auto Kind = static_cast<MetaTransform>(T);
    std::mt19937 Rng(41 + T);
    MetaVariant V = applyMetaTransform(RichSource, Kind, Rng);
    ASSERT_TRUE(V.Applied) << metaTransformName(Kind);
    EXPECT_NE(V.Source, RichSource) << metaTransformName(Kind);
    // The variant is itself a well-formed program the full oracle
    // accepts (its own metamorphic layer included).
    EXPECT_TRUE(runOracle(V.Source).clean())
        << metaTransformName(Kind) << ":\n"
        << V.Source;
  }
}

TEST(FuzzMetamorphic, InvariantMasksMatchDocumentedSemantics) {
  // Alpha-renaming is the only transform strong enough to pin the
  // plan's static counts; anything touching control flow or adding
  // statements must release the latency/work dimensions it shifts.
  EXPECT_TRUE(metaInvariants(MetaTransform::RenameItems).StaticCounts);
  EXPECT_TRUE(metaInvariants(MetaTransform::RenameItems).ExposedLatency);
  EXPECT_FALSE(
      metaInvariants(MetaTransform::SplitForwardEdge).ExposedLatency);
  EXPECT_FALSE(metaInvariants(MetaTransform::CloneBlockIfElse).Work);
  EXPECT_FALSE(metaInvariants(MetaTransform::InsertDeadStmt).Steps);
  EXPECT_TRUE(metaInvariants(MetaTransform::PermuteIndependent).Messages);
  for (unsigned T = 0; T != NumMetaTransforms; ++T)
    EXPECT_TRUE(metaInvariants(static_cast<MetaTransform>(T)).Volume);
}

//===----------------------------------------------------------------------===//
// Minimization
//===----------------------------------------------------------------------===//

TEST(FuzzMinimizer, ShrinksUnderSyntheticPredicate) {
  // Keep only "a goto survives": everything else in fig11 is ballast.
  MinimizeStats Stats;
  std::string Small = minimizeSource(
      test::fig11Source(),
      [](const std::string &Candidate) {
        return parseProgram(Candidate).success() &&
               Candidate.find("goto") != std::string::npos;
      },
      1000, &Stats);
  EXPECT_NE(Small.find("goto"), std::string::npos);
  EXPECT_LT(lineCount(Small), lineCount(test::fig11Source()));
  EXPECT_GT(Stats.Accepted, 0u);
  EXPECT_GT(Stats.Candidates, Stats.Accepted);
}

TEST(FuzzMinimizer, InjectedBugReproShrinksBelowFifteenLines) {
  ScopedFaultInjection Inject;
  // Start from a deliberately padded failing input.
  std::string Padded = std::string(RichSource) + FaultTriggerSource;
  OracleOutcome Base = runOracle(Padded);
  ASSERT_FALSE(Base.Findings.empty());
  std::string Class = findingClass(Base.Findings.front().Kind);
  std::string Small = minimizeSource(
      Padded,
      [&](const std::string &Candidate) {
        for (const OracleFinding &F : runOracle(Candidate).Findings)
          if (findingClass(F.Kind) == Class)
            return true;
        return false;
      },
      400);
  EXPECT_LT(lineCount(Small), 15u) << Small;
  // The shrunk repro still fails for the same class.
  bool StillFails = false;
  for (const OracleFinding &F : runOracle(Small).Findings)
    StillFails |= findingClass(F.Kind) == Class;
  EXPECT_TRUE(StillFails);
}

TEST(FuzzMinimizer, DistillKeepsCoverageKeyAndWerrorBar) {
  OracleOutcome Base = runOracle(RichSource);
  ASSERT_TRUE(Base.clean() && Base.WerrorClean);
  std::string Small = distillProgram(RichSource, 600);
  OracleOutcome O = runOracle(Small);
  EXPECT_TRUE(O.clean());
  EXPECT_TRUE(O.WerrorClean);
  EXPECT_EQ(O.CoverageKey, Base.CoverageKey);
  EXPECT_LE(lineCount(Small), lineCount(RichSource));
}

//===----------------------------------------------------------------------===//
// Campaign
//===----------------------------------------------------------------------===//

TEST(FuzzCampaign, ProvenanceHeaderFormat) {
  OracleOutcome O = runOracle(RichSource);
  std::string H = provenanceHeader("distilled", 7, O.Features);
  EXPECT_EQ(H.rfind("! gnt-fuzz: distilled seed=7 ", 0), 0u) << H;
  EXPECT_EQ(H.back(), '\n');
  EXPECT_NE(H.find("edges="), std::string::npos);
  // Headers are comments: prepending one changes nothing semantically.
  EXPECT_EQ(runOracle(H + RichSource).CoverageKey, O.CoverageKey);
}

TEST(FuzzCampaign, ShortCampaignIsCleanAndDeterministic) {
  FuzzOptions Opts;
  Opts.Seed = 3;
  Opts.MaxInputs = 40;
  FuzzReport A = runFuzzer(Opts);
  EXPECT_TRUE(A.clean());
  EXPECT_EQ(A.Executed, 40u);
  EXPECT_EQ(A.SeedInputs, 2 * NumGenBuckets);
  EXPECT_GT(A.Valid, 30u);
  EXPECT_GT(A.Novel, 5u);

  FuzzReport B = runFuzzer(Opts);
  EXPECT_EQ(B.Executed, A.Executed);
  EXPECT_EQ(B.Valid, A.Valid);
  EXPECT_EQ(B.Novel, A.Novel);
}

TEST(FuzzCampaign, CampaignCatchesAndMinimizesInjectedBug) {
  ScopedFaultInjection Inject;
  FuzzOptions Opts;
  Opts.Seed = 1;
  Opts.MaxInputs = 60;
  Opts.MinimizeBudget = 300;
  Opts.StopOnFinding = true;
  FuzzReport R = runFuzzer(Opts);
  ASSERT_FALSE(R.Findings.empty());
  const FuzzFinding &F = R.Findings.front();
  EXPECT_FALSE(F.Minimized.empty());
  EXPECT_LE(lineCount(F.Minimized), lineCount(F.Source));
  EXPECT_LT(lineCount(F.Minimized), 15u) << F.Minimized;
}
