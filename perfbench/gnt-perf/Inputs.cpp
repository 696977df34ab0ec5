//===- perfbench/gnt-perf/Inputs.cpp - Seeded benchmark inputs ------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "gen/RandomProgram.h"
#include "ir/AstPrinter.h"
#include "service/Pipeline.h"
#include "service/StageCache.h"
#include "support/Json.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

using namespace perf;

namespace {

/// SplitMix64 finalizer: decorrelates the per-program generator seeds.
std::uint64_t mix(std::uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

unsigned genSeed(unsigned Seed, unsigned Salt) {
  return static_cast<unsigned>(mix((std::uint64_t(Seed) << 32) | Salt) >> 33);
}

std::string generate(gnt::GenConfig C) {
  return gnt::AstPrinter().print(gnt::generateRandomProgram(C));
}

bool readFmDir(const std::filesystem::path &Dir, const std::string &Label,
               std::vector<BenchProgram> &Out, std::string &Error) {
  std::error_code EC;
  std::vector<std::filesystem::path> Files;
  for (const auto &E : std::filesystem::directory_iterator(Dir, EC))
    if (E.path().extension() == ".fm")
      Files.push_back(E.path());
  if (EC || Files.empty()) {
    Error = "cannot read FMini programs from " + Dir.string();
    return false;
  }
  std::sort(Files.begin(), Files.end());
  for (const auto &F : Files) {
    std::ifstream In(F);
    std::ostringstream SS;
    SS << In.rdbuf();
    Out.push_back({Label + "/" + F.filename().string(), SS.str(), 0});
  }
  return true;
}

std::vector<std::string> splitLines(const std::string &S) {
  std::vector<std::string> Lines;
  std::string::size_type Pos = 0;
  while (Pos < S.size()) {
    auto Nl = S.find('\n', Pos);
    if (Nl == std::string::npos)
      Nl = S.size();
    Lines.push_back(S.substr(Pos, Nl - Pos));
    Pos = Nl + 1;
  }
  return Lines;
}

std::string joinLines(const std::vector<std::string> &Lines) {
  std::string S;
  for (const std::string &L : Lines)
    S += L + "\n";
  return S;
}

std::string::size_type indentOf(const std::string &L) {
  return L.find_first_not_of(' ');
}

/// Position of " = " in an assignment line, npos for anything else
/// (loops, branches, labels, declarations).
std::string::size_type assignAt(const std::string &L) {
  auto I = indentOf(L);
  if (I == std::string::npos || !std::isalpha(static_cast<unsigned char>(L[I])))
    return std::string::npos;
  for (const char *Kw : {"do ", "if", "else", "end", "goto", "continue",
                         "distribute", "array"})
    if (L.compare(I, std::strlen(Kw), Kw) == 0)
      return std::string::npos;
  return L.find(" = ");
}

/// Start of a trailing integer literal term of an assignment line.
std::string::size_type trailingLiteral(const std::string &L) {
  auto Eq = assignAt(L);
  if (Eq == std::string::npos)
    return std::string::npos;
  auto P = L.size();
  while (P > Eq + 3 && std::isdigit(static_cast<unsigned char>(L[P - 1])))
    --P;
  if (P == L.size() || P < 1 || L[P - 1] != ' ')
    return std::string::npos;
  return P;
}

void swapRhs(std::vector<std::string> &Lines, unsigned I) {
  auto A = assignAt(Lines[I]), B = assignAt(Lines[I + 1]);
  std::string RA = Lines[I].substr(A), RB = Lines[I + 1].substr(B);
  Lines[I] = Lines[I].substr(0, A) + RB;
  Lines[I + 1] = Lines[I + 1].substr(0, B) + RA;
}

/// True when an incremental compile of \p Edited against a stage cache
/// warmed with \p Base re-solves part of the graph (the edit keeps the
/// item universe and loop forest, so the solve memo is reusable).
bool editResolvesPartially(const std::string &Base, const std::string &Edited) {
  gnt::PipelineOptions Opts;
  Opts.Incremental = true;
  gnt::StageCache Cache;
  gnt::Pipeline P(Opts);
  if (!P.compile(Base, &Cache).ok())
    return false;
  auto Before = Cache.statsSnapshot().Inc.PartialSolves;
  if (!P.compile(Edited, &Cache).ok())
    return false;
  return Cache.statsSnapshot().Inc.PartialSolves > Before;
}

std::vector<double> zipfCdf(unsigned N, double S) {
  std::vector<double> Cdf(N);
  double Sum = 0;
  for (unsigned R = 0; R < N; ++R) {
    Sum += 1.0 / std::pow(static_cast<double>(R + 1), S);
    Cdf[R] = Sum;
  }
  for (double &V : Cdf)
    V /= Sum;
  return Cdf;
}

double uniform01(std::mt19937_64 &Rng) {
  return static_cast<double>(Rng() >> 11) * (1.0 / 9007199254740992.0);
}

/// The gntd_zipf program population. Like the skew (MixSkew, the
/// default of tools/gnt-load's --zipf), these are assumptions, not
/// measured traffic.
constexpr unsigned MixPrograms = 48;
constexpr unsigned MixSizes[] = {30, 60, 100, 200};
constexpr double MixSkew = 1.1;
constexpr unsigned EditTargetStmts = 200;

/// Variant \p V of family \p B at \p Stmts statements.
BenchProgram compileProgram(unsigned Seed, unsigned B, unsigned Stmts,
                            unsigned V) {
  gnt::GenConfig C =
      gnt::genConfigForBucket(B, genSeed(Seed, (B * 8191 + Stmts) * 4 + V));
  C.TargetStmts = Stmts;
  return {std::string("b") + std::to_string(B) + ".s" +
              std::to_string(Stmts) + ".v" + std::to_string(V),
          generate(C), Stmts};
}

} // namespace

BenchProgram perf::firstCompileProgram(unsigned Seed) {
  return compileProgram(Seed, 0, CompileSizes[0], 0);
}

std::vector<BenchProgram> perf::compileProgramSet(unsigned Seed,
                                                  const std::string &Root,
                                                  std::string &Error) {
  std::vector<BenchProgram> Set;
  for (unsigned B = 0; B < gnt::NumGenBuckets; ++B)
    for (unsigned SI = 0; SI < std::size(CompileSizes); ++SI)
      for (unsigned V = 0; V < CompileVariants[SI]; ++V)
        Set.push_back(compileProgram(Seed, B, CompileSizes[SI], V));
  std::filesystem::path R(Root);
  if (!readFmDir(R / "tests" / "corpus", "tests/corpus", Set, Error) ||
      !readFmDir(R / "examples" / "fm", "examples/fm", Set, Error))
    return {};
  return Set;
}

ServeMix::ServeMix(unsigned Seed) : Rng(mix(Seed ^ 0x5eed)) {
  // Program 0, the hottest, is the edit target: a paper-default shape
  // without gotos, because interval-level incremental solving applies
  // only to jump-free graphs.
  gnt::GenConfig T = gnt::genConfigForBucket(0, genSeed(Seed, 0));
  T.TargetStmts = EditTargetStmts;
  T.GotoProb = 0;
  Programs.push_back({"edit-target.s200", generate(T), EditTargetStmts});
  for (unsigned I = 1; I < MixPrograms; ++I) {
    unsigned B = (I - 1) % gnt::NumGenBuckets;
    gnt::GenConfig C = gnt::genConfigForBucket(B, genSeed(Seed, 100 + I));
    C.TargetStmts = MixSizes[I % 4];
    Programs.push_back({"b" + std::to_string(B) + ".s" +
                            std::to_string(C.TargetStmts) + ".r" +
                            std::to_string(I),
                        generate(C), C.TargetStmts});
  }
  Cdf = zipfCdf(MixPrograms, MixSkew);
  for (unsigned I = 0; I < MixPrograms; ++I)
    PlainLines.push_back(line({StreamRequest::Plain, I, 0}));

  // Edits: swap the right-hand sides of two adjacent assignments of one
  // block (same references, different nodes) and stamp a unique literal
  // so every edit is a distinct AST. Only swaps that keep the solve memo
  // reusable are kept.
  EditLines = splitLines(Programs[0].Source);
  for (unsigned I = 0; I < EditLines.size(); ++I)
    if (trailingLiteral(EditLines[I]) != std::string::npos) {
      StampLine = I;
      StampPos = trailingLiteral(EditLines[I]);
      break;
    }
  for (unsigned I = 0; I + 1 < EditLines.size() && SwapAt.size() < 4; ++I) {
    const std::string &A = EditLines[I], &B = EditLines[I + 1];
    if (assignAt(A) == std::string::npos || assignAt(B) == std::string::npos ||
        indentOf(A) != indentOf(B) ||
        A.substr(assignAt(A)) == B.substr(assignAt(B)))
      continue;
    std::vector<std::string> L = EditLines;
    swapRhs(L, I);
    if (editResolvesPartially(Programs[0].Source, joinLines(L)))
      SwapAt.push_back(I);
  }
}

std::string ServeMix::editSource(unsigned E) const {
  std::vector<std::string> L = EditLines;
  if (StampPos != 0)
    L[StampLine] = L[StampLine].substr(0, StampPos) + std::to_string(100 + E);
  if (E % 2 == 1 && !SwapAt.empty())
    swapRhs(L, SwapAt[(E / 2) % SwapAt.size()]);
  return joinLines(L);
}

std::string ServeMix::sourceOf(const StreamRequest &Q) const {
  switch (Q.K) {
  case StreamRequest::Plain:
    return Programs[Q.Prog].Source;
  case StreamRequest::Variant: {
    // A unique whitespace tail: the binary digits of the variant number
    // as newline (1) and space (0). The parse key changes, the AST does
    // not, so every stage from the CFG on is a stage-cache hit.
    std::string Tail = "\n";
    for (int Bit = 31; Bit >= 0; --Bit)
      if (Q.Serial >> Bit)
        Tail += (Q.Serial >> Bit) & 1 ? '\n' : ' ';
    return Programs[Q.Prog].Source + Tail;
  }
  case StreamRequest::Edit:
    return editSource(Q.Serial);
  }
  return {};
}

std::string ServeMix::id(const StreamRequest &Q) const {
  static const char *const Prefix[] = {"p", "v", "e"};
  return Prefix[Q.K] +
         std::to_string(Q.K == StreamRequest::Plain ? Q.Prog : Q.Serial);
}

std::string ServeMix::line(const StreamRequest &Q) const {
  if (Q.K == StreamRequest::Plain && Q.Prog < PlainLines.size())
    return PlainLines[Q.Prog];
  gnt::JsonWriter W;
  W.beginObject();
  W.key("id").value(id(Q));
  W.key("source").value(sourceOf(Q));
  if (Q.K != StreamRequest::Plain) {
    W.key("options");
    W.beginObject();
    W.key(Q.K == StreamRequest::Variant ? "werror" : "incremental").value(true);
    W.endObject();
  }
  W.endObject();
  return W.str() + "\n";
}

StreamRequest ServeMix::next() {
  unsigned Roll = static_cast<unsigned>(Rng() % 100);
  if (Roll < EditPercent)
    return {StreamRequest::Edit, 0, Edits++};
  unsigned Prog = static_cast<unsigned>(
      std::lower_bound(Cdf.begin(), Cdf.end(), uniform01(Rng)) - Cdf.begin());
  Prog = std::min<unsigned>(Prog, MixPrograms - 1);
  if (Roll < EditPercent + VariantPercent)
    return {StreamRequest::Variant, Prog, Variants++};
  return {StreamRequest::Plain, Prog, 0};
}
