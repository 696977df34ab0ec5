//===- perfbench/gnt-perf/Inputs.h - Seeded benchmark inputs ----*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every input the benchmark sends is FMini text or a JSON request line
/// derived from the run's seed: the compile workloads' program set and
/// the gntd_zipf request stream. The same seed gives the same inputs.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_PERFBENCH_INPUTS_H
#define GNT_PERFBENCH_INPUTS_H

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace perf {

struct BenchProgram {
  std::string Name;   ///< "b3.s1600" for generated, the path for files.
  std::string Source; ///< FMini text.
  unsigned Stmts = 0; ///< Generator statement target; 0 for files.
};

/// Generated statement targets of the compile set, and how many
/// programs of each family the set holds at that size. The counts follow
/// no measured traffic: they were picked so that several programs per
/// family average out what one seed's program costs and so that the
/// median request falls well inside the 200-statement cluster instead of
/// on the edge between two sizes.
inline constexpr unsigned CompileSizes[] = {30, 200, 1600};
inline constexpr unsigned CompileVariants[] = {2, 6, 4};

/// The compile workloads' programs: CompileVariants programs of every
/// genConfigForBucket family (0-5) at each of CompileSizes, then
/// tests/corpus/*.fm and
/// examples/fm/*.fm under \p Root in name order. Empty with \p Error
/// set when a corpus directory cannot be read.
std::vector<BenchProgram> compileProgramSet(unsigned Seed,
                                            const std::string &Root,
                                            std::string &Error);

/// The first program of compileProgramSet(\p Seed, ...): family 0 at the
/// smallest size, generated alone.
BenchProgram firstCompileProgram(unsigned Seed);

/// One request of the gntd_zipf stream.
struct StreamRequest {
  enum Kind { Plain, Variant, Edit };
  Kind K = Plain;
  unsigned Prog = 0;   ///< Program index (0, the edit target, for edits).
  unsigned Serial = 0; ///< Variant or edit number; unique per kind.
};

/// The gntd_zipf request mix: zipf-popular programs from every bucket
/// (mostly 30-200 statements), one-statement edits of the hottest
/// program sent with "incremental":true, and repeats of hot sources
/// with "werror":true plus a unique whitespace tail, which miss the
/// result cache but hit every stage from the CFG on. Requests are drawn
/// lazily in a fixed order, so any prefix of the stream is a function
/// of the seed alone.
class ServeMix {
public:
  explicit ServeMix(unsigned Seed);

  /// Draws the next request of the stream.
  StreamRequest next();

  /// The request id: equal for byte-identical requests, so every
  /// response to one of them is byte-identical too.
  std::string id(const StreamRequest &Q) const;

  /// The JSON frame, newline included.
  std::string line(const StreamRequest &Q) const;

  /// The FMini text a request carries.
  std::string sourceOf(const StreamRequest &Q) const;

  const std::vector<BenchProgram> &programs() const { return Programs; }
  /// Swaps that make an edit re-solve part of the graph; zero means the
  /// edits of this seed are memo hits or full solves only.
  unsigned editSwaps() const { return static_cast<unsigned>(SwapAt.size()); }

private:
  std::string editSource(unsigned E) const;

  std::vector<BenchProgram> Programs;
  std::vector<std::string> PlainLines; ///< Frames of the plain requests.
  std::vector<double> Cdf;
  std::mt19937_64 Rng;
  unsigned Edits = 0;
  unsigned Variants = 0;
  /// Lines of the edit target and the swappable assignment line pairs.
  std::vector<std::string> EditLines;
  std::vector<unsigned> SwapAt; ///< Swap lines I and I + 1.
  unsigned StampLine = 0;       ///< Line whose trailing literal is stamped.
  std::string::size_type StampPos = 0; ///< 0: no literal to stamp.
};

/// Percentage of the stream that is each kind (the rest is Plain). These
/// shares, like the zipf skew and program sizes in Inputs.cpp, are
/// assumptions with no measured traffic behind them; the gntd_zipf
/// report prints the request shares and result-cache hit ratio that
/// follow from them.
inline constexpr unsigned VariantPercent = 4;
inline constexpr unsigned EditPercent = 2;

} // namespace perf

#endif // GNT_PERFBENCH_INPUTS_H
