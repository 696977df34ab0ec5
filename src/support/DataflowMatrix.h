//===- support/DataflowMatrix.h - Flat bit-set arena -----------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flat arena of equally sized bit sets: one contiguous uint64_t
/// allocation holding NumRows rows of NumBits bits each, every row
/// starting on a word boundary. This is the backing store for the
/// GIVE-N-TAKE solver's dataflow variables — a (field x node) matrix of
/// item sets — replacing one BitVector heap allocation per node per
/// equation with straight-line word loops over stable pointers.
///
/// Rows are exposed as raw `Word *` spans rather than wrapped views:
/// the solver's inner loops fuse several equations into one pass over
/// the words of a node, and a pointer-plus-index idiom keeps that code
/// free of abstraction overhead. The tail-word invariant of BitVector
/// (bits past NumBits in the last word stay zero) is maintained by
/// construction and by the masked mutators below; the bitwise AND / OR
/// / ANDNOT combinations the equations use preserve it automatically.
///
/// Rows are packed: row R starts wordsPerRow() words after row R-1, so
/// a word written past the end of one row lands in its neighbor. Debug
/// builds poison Uninit storage (0xA5) to make any read-before-write
/// loud.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_SUPPORT_DATAFLOWMATRIX_H
#define GNT_SUPPORT_DATAFLOWMATRIX_H

#include "support/BitVector.h"

#include <cassert>
#include <cstdint>
#include <cstring>

namespace gnt {

/// Contiguous (row x bit) matrix of dataflow sets.
class DataflowMatrix {
public:
  using Word = BitVector::Word;
  static constexpr unsigned WordBits = BitVector::WordBits;

  /// Tag requesting an uninitialized arena (see the tagged constructor).
  struct UninitTag {};
  static constexpr UninitTag Uninit{};

  DataflowMatrix() = default;

  /// Creates \p NumRows rows of \p NumBits zeroed bits in one
  /// allocation.
  DataflowMatrix(unsigned NumRows, unsigned NumBits)
      : DataflowMatrix(NumRows, NumBits, Uninit) {
    clear();
  }

  /// Creates the arena without zero-filling it. For writers that assign
  /// every row exactly once (the GNT solver), the zero-fill is a wasted
  /// full pass over a potentially tens-of-megabytes allocation; such
  /// callers must take care to write (or explicitly zero) every row
  /// they later read or expose.
  DataflowMatrix(unsigned NumRows, unsigned NumBits, UninitTag)
      : NRows(NumRows), NBits(NumBits),
        WPerRow((NumBits + WordBits - 1) / WordBits),
        NWords(static_cast<std::size_t>(NumRows) * WPerRow),
        Words(NWords ? new Word[NWords] : nullptr) {
#ifndef NDEBUG
    // Poison uninitialized storage so a row that is read (or exported)
    // before being written shows up as garbage with out-of-range tail
    // bits rather than as plausible leftover zeros.
    if (NWords)
      std::memset(Words, 0xA5, NWords * sizeof(Word));
#endif
  }

  DataflowMatrix(DataflowMatrix &&RHS) noexcept
      : NRows(RHS.NRows), NBits(RHS.NBits), WPerRow(RHS.WPerRow),
        NWords(RHS.NWords), Words(RHS.Words) {
    RHS.Words = nullptr;
    RHS.NWords = 0;
  }
  DataflowMatrix &operator=(DataflowMatrix &&RHS) noexcept {
    if (this != &RHS) {
      delete[] Words;
      NRows = RHS.NRows;
      NBits = RHS.NBits;
      WPerRow = RHS.WPerRow;
      NWords = RHS.NWords;
      Words = RHS.Words;
      RHS.Words = nullptr;
      RHS.NWords = 0;
    }
    return *this;
  }
  DataflowMatrix(const DataflowMatrix &) = delete;
  DataflowMatrix &operator=(const DataflowMatrix &) = delete;
  ~DataflowMatrix() { delete[] Words; }

  unsigned rows() const { return NRows; }
  unsigned bits() const { return NBits; }
  unsigned wordsPerRow() const { return WPerRow; }

  /// Mask selecting the in-range bits of the last word of a row (all
  /// ones when NumBits is a multiple of the word size or zero).
  Word tailMask() const {
    unsigned Rem = NBits % WordBits;
    return Rem == 0 ? ~Word(0) : (~Word(0) >> (WordBits - Rem));
  }

  Word *row(unsigned R) {
    assert(R < NRows && "row out of range");
    return Words + static_cast<std::size_t>(R) * WPerRow;
  }
  const Word *row(unsigned R) const {
    assert(R < NRows && "row out of range");
    return Words + static_cast<std::size_t>(R) * WPerRow;
  }

  /// Zeroes every row.
  void clear() {
    if (NWords)
      std::memset(Words, 0, NWords * sizeof(Word));
  }

  /// Copies \p BV (which must have exactly bits() bits) into row \p R.
  void assignRow(unsigned R, const BitVector &BV) {
    assert(BV.size() == NBits && "row size mismatch");
    if (WPerRow)
      std::memcpy(row(R), BV.words(), WPerRow * sizeof(Word));
  }

  /// Materializes row \p R as a standalone BitVector.
  BitVector extractRow(unsigned R) const {
    return BitVector::fromWords(row(R), NBits);
  }

  /// Sets every bit of row \p R, respecting the tail-word invariant.
  void setRow(unsigned R) {
    Word *W = row(R);
    for (unsigned K = 0; K != WPerRow; ++K)
      W[K] = ~Word(0);
    if (WPerRow)
      W[WPerRow - 1] &= tailMask();
  }

  /// True if row \p R has no bit set.
  bool rowNone(unsigned R) const {
    const Word *W = row(R);
    for (unsigned K = 0; K != WPerRow; ++K)
      if (W[K])
        return false;
    return true;
  }

  /// True when every row honors the tail-word invariant (no bits past
  /// bits() in the last word). This is the bottom-row contract an
  /// Uninit writer must establish before rows are exported through
  /// borrowWords; the solver asserts it in Debug builds, where the
  /// 0xA5 poison guarantees a never-written row trips it whenever
  /// bits() is not a word multiple.
  bool rowsExportable() const {
    if (!WPerRow)
      return true;
    const Word Tail = tailMask();
    for (unsigned R = 0; R != NRows; ++R)
      if (row(R)[WPerRow - 1] & ~Tail)
        return false;
    return true;
  }

private:
  unsigned NRows = 0;
  unsigned NBits = 0;
  unsigned WPerRow = 0;
  std::size_t NWords = 0;
  Word *Words = nullptr; ///< Matrix storage; the class is move-only.
};

} // namespace gnt

#endif // GNT_SUPPORT_DATAFLOWMATRIX_H
