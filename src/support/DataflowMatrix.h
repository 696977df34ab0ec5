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
/// Alignment contract (support/SimdKernels.h): the base allocation is
/// 64-byte aligned and the distance between consecutive rows — the
/// stride, rowStride() — is padded up to a multiple of 8 words, so a
/// row that starts a 512-bit load never straddles into its neighbor
/// and every row starts on a cache-line/lane boundary. The padding
/// words are storage only: row(), extractRow(), rowNone(), and the
/// solver all address exactly wordsPerRow() words per row, and
/// borrowWords exports read exactly that many, so padding can never
/// leak into results. Debug builds poison Uninit storage (0xA5) to
/// make any read-before-write or padding leak loud.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_SUPPORT_DATAFLOWMATRIX_H
#define GNT_SUPPORT_DATAFLOWMATRIX_H

#include "support/BitVector.h"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>

namespace gnt {

/// Contiguous (row x bit) matrix of dataflow sets.
class DataflowMatrix {
public:
  using Word = BitVector::Word;
  static constexpr unsigned WordBits = BitVector::WordBits;

  /// Rows are padded to a multiple of this many words (one 64-byte
  /// SIMD lane) and the base allocation is aligned to match.
  static constexpr unsigned LaneWords = 8;
  static constexpr std::size_t LaneBytes = LaneWords * sizeof(Word);

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
        WStride(padStride(WPerRow)),
        NWords(static_cast<std::size_t>(NumRows) * WStride),
        Words(allocWords(NWords)) {
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
        WStride(RHS.WStride), NWords(RHS.NWords), Words(RHS.Words) {
    RHS.Words = nullptr;
    RHS.NWords = 0;
  }
  DataflowMatrix &operator=(DataflowMatrix &&RHS) noexcept {
    if (this != &RHS) {
      release();
      NRows = RHS.NRows;
      NBits = RHS.NBits;
      WPerRow = RHS.WPerRow;
      WStride = RHS.WStride;
      NWords = RHS.NWords;
      Words = RHS.Words;
      RHS.Words = nullptr;
      RHS.NWords = 0;
    }
    return *this;
  }
  DataflowMatrix(const DataflowMatrix &) = delete;
  DataflowMatrix &operator=(const DataflowMatrix &) = delete;
  ~DataflowMatrix() { release(); }

  unsigned rows() const { return NRows; }
  unsigned bits() const { return NBits; }
  unsigned wordsPerRow() const { return WPerRow; }

  /// Words between consecutive row starts; >= wordsPerRow(), padded to
  /// a LaneWords multiple. The words past wordsPerRow() are padding —
  /// storage, never data.
  unsigned rowStride() const { return WStride; }

  /// Total allocated words (rows() * rowStride()), for whole-arena
  /// copies such as the incremental solver's memo clone.
  std::size_t storageWords() const { return NWords; }

  /// Mask selecting the in-range bits of the last word of a row (all
  /// ones when NumBits is a multiple of the word size or zero).
  Word tailMask() const {
    unsigned Rem = NBits % WordBits;
    return Rem == 0 ? ~Word(0) : (~Word(0) >> (WordBits - Rem));
  }

  Word *row(unsigned R) {
    assert(R < NRows && "row out of range");
    return Words + static_cast<std::size_t>(R) * WStride;
  }
  const Word *row(unsigned R) const {
    assert(R < NRows && "row out of range");
    return Words + static_cast<std::size_t>(R) * WStride;
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
  /// bits() in the last data word). This is the bottom-row contract an
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
  static unsigned padStride(unsigned WordsPerRow) {
    return (WordsPerRow + LaneWords - 1) / LaneWords * LaneWords;
  }

  static Word *allocWords(std::size_t N) {
    if (!N)
      return nullptr;
    return static_cast<Word *>(
        ::operator new(N * sizeof(Word), std::align_val_t(LaneBytes)));
  }

  void release() {
    if (!Words)
      return;
    ::operator delete(Words, std::align_val_t(LaneBytes));
    Words = nullptr;
  }

  unsigned NRows = 0;
  unsigned NBits = 0;
  unsigned WPerRow = 0;
  unsigned WStride = 0;
  std::size_t NWords = 0;
  Word *Words = nullptr; ///< Matrix storage; the class is move-only.
};

} // namespace gnt

#endif // GNT_SUPPORT_DATAFLOWMATRIX_H
