//===- support/BitVector.h - Dense dynamic bit vector ----------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense, dynamically sized bit vector used to represent sets over the
/// dataflow universe. All GIVE-N-TAKE equations are unions, intersections
/// and differences of these sets, so this type is the workhorse of the
/// whole framework. The interface follows the spirit of llvm::BitVector.
///
/// Storage is either owned (the default) or borrowed from an external
/// word row (see borrowWords), which lets the arena-backed solver expose
/// its rows as BitVectors without copying. Owned vectors of up to
/// InlineWords words keep them inside the object, so the 1-3 word rows
/// of realistic universes never allocate; larger ones use one heap
/// block. Borrowing is invisible to users: copies always deep-copy into
/// owned storage, comparisons and set algebra read through whichever
/// storage is active, and resize() first materializes an owned copy.
/// The borrower is responsible for keeping the external row alive and
/// tail-masked.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_SUPPORT_BITVECTOR_H
#define GNT_SUPPORT_BITVECTOR_H

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace gnt {

/// Dense bit vector with set-algebra operations.
///
/// The vector has a fixed logical size (number of bits) established at
/// construction or via resize(); all binary operations require both
/// operands to have the same size.
class BitVector {
public:
  using Word = std::uint64_t;
  static constexpr unsigned WordBits = 64;

  /// Words an owned vector stores inside the object.
  static constexpr unsigned InlineWords = 3;

  BitVector() = default;

  /// Creates a vector of \p NumBits bits, all initialized to \p Value.
  explicit BitVector(unsigned NumBits, bool Value = false) {
    resize(NumBits, Value);
  }

  /// Deep copy: a copy always owns its words, even when the source
  /// borrows them.
  BitVector(const BitVector &RHS) { assignWords(RHS.words(), RHS.NumBits); }

  BitVector &operator=(const BitVector &RHS) {
    if (this != &RHS)
      assignWords(RHS.words(), RHS.NumBits);
    return *this;
  }

  /// Moves transfer storage as-is (a moved borrowed vector keeps
  /// pointing at the same external row) and leave the source empty.
  BitVector(BitVector &&RHS) noexcept { take(RHS); }

  BitVector &operator=(BitVector &&RHS) noexcept {
    if (this != &RHS) {
      release();
      take(RHS);
    }
    return *this;
  }

  ~BitVector() {
    if (OnHeap)
      delete[] Data;
  }

  /// Creates a vector of \p NumBits bits initialized from the packed
  /// words at \p Src (numWords(NumBits) of them). Bits of the last word
  /// beyond \p NumBits are ignored.
  static BitVector fromWords(const Word *Src, unsigned NumBits) {
    BitVector R;
    R.assignWords(Src, NumBits);
    R.clearExcessBits();
    return R;
  }

  /// Creates a vector of \p NumBits bits that aliases the
  /// numWords(NumBits) words at \p Row instead of copying them. The
  /// caller guarantees the row outlives every borrowed view and already
  /// satisfies the tail-word invariant (bits beyond \p NumBits zero).
  /// Mutations write through to the row; copying the vector or calling
  /// resize() detaches into owned storage.
  static BitVector borrowWords(Word *Row, unsigned NumBits) {
    return BitVector(Borrow, Row, NumBits);
  }

  /// Selects the borrowing constructor.
  struct BorrowTag {};
  static constexpr BorrowTag Borrow{};

  /// The vector borrowWords(\p Row, \p NumBits) returns, constructed in
  /// place (e.g. by emplace_back) without a temporary to move from.
  BitVector(BorrowTag, Word *Row, unsigned NumBits)
      : Data(Row), NumBits(NumBits) {}

  /// Number of bits in the vector.
  unsigned size() const { return NumBits; }

  /// Grows or shrinks the vector to \p NewSize bits; new bits get \p Value.
  void resize(unsigned NewSize, bool Value = false) {
    unsigned OldSize = NumBits, OldWords = wordCount();
    unsigned NewWords = numWords(NewSize);
    reserveOwned(NewWords);
    if (NewWords > OldWords)
      std::fill(Data + OldWords, Data + NewWords, Value ? ~Word(0) : Word(0));
    NumBits = NewSize;
    if (Value && OldSize < NewSize && OldSize % WordBits != 0) {
      // The old partial tail word must have its fresh high bits set.
      Data[OldSize / WordBits] |= ~Word(0) << (OldSize % WordBits);
    }
    clearExcessBits();
  }

  /// Sets bit \p Idx.
  void set(unsigned Idx) {
    assert(Idx < NumBits && "bit index out of range");
    wordsData()[Idx / WordBits] |= Word(1) << (Idx % WordBits);
  }

  /// Sets all bits.
  void set() {
    Word *W = wordsData();
    for (unsigned I = 0, E = wordCount(); I != E; ++I)
      W[I] = ~Word(0);
    clearExcessBits();
  }

  /// Clears bit \p Idx.
  void reset(unsigned Idx) {
    assert(Idx < NumBits && "bit index out of range");
    wordsData()[Idx / WordBits] &= ~(Word(1) << (Idx % WordBits));
  }

  /// Clears all bits.
  void reset() {
    Word *W = wordsData();
    for (unsigned I = 0, E = wordCount(); I != E; ++I)
      W[I] = 0;
  }

  /// Complements every bit, respecting the tail-word invariant.
  void flip() {
    Word *W = wordsData();
    for (unsigned I = 0, E = wordCount(); I != E; ++I)
      W[I] = ~W[I];
    clearExcessBits();
  }

  /// Returns the value of bit \p Idx.
  bool test(unsigned Idx) const {
    assert(Idx < NumBits && "bit index out of range");
    return (words()[Idx / WordBits] >> (Idx % WordBits)) & 1;
  }

  bool operator[](unsigned Idx) const { return test(Idx); }

  /// Returns true if any bit is set.
  bool any() const {
    const Word *W = words();
    for (unsigned I = 0, E = wordCount(); I != E; ++I)
      if (W[I])
        return true;
    return false;
  }

  /// Returns true if no bit is set.
  bool none() const { return !any(); }

  /// Returns true if every bit is set.
  bool all() const { return count() == NumBits; }

  /// Number of set bits.
  unsigned count() const {
    unsigned N = 0;
    const Word *W = words();
    for (unsigned I = 0, E = wordCount(); I != E; ++I)
      N += __builtin_popcountll(W[I]);
    return N;
  }

  /// Set union: this |= RHS.
  BitVector &operator|=(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "size mismatch");
    Word *W = wordsData();
    const Word *R = RHS.words();
    for (unsigned I = 0, E = wordCount(); I != E; ++I)
      W[I] |= R[I];
    return *this;
  }

  /// Set intersection: this &= RHS.
  BitVector &operator&=(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "size mismatch");
    Word *W = wordsData();
    const Word *R = RHS.words();
    for (unsigned I = 0, E = wordCount(); I != E; ++I)
      W[I] &= R[I];
    return *this;
  }

  /// Set difference: removes from this every bit set in \p RHS.
  BitVector &reset(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "size mismatch");
    Word *W = wordsData();
    const Word *R = RHS.words();
    for (unsigned I = 0, E = wordCount(); I != E; ++I)
      W[I] &= ~R[I];
    return *this;
  }

  bool operator==(const BitVector &RHS) const {
    assert(NumBits == RHS.NumBits && "size mismatch");
    const Word *A = words();
    const Word *B = RHS.words();
    for (unsigned I = 0, E = wordCount(); I != E; ++I)
      if (A[I] != B[I])
        return false;
    return true;
  }
  bool operator!=(const BitVector &RHS) const { return !(*this == RHS); }

  /// Returns true if this and \p RHS share any set bit.
  bool anyCommon(const BitVector &RHS) const {
    assert(NumBits == RHS.NumBits && "size mismatch");
    const Word *A = words();
    const Word *B = RHS.words();
    for (unsigned I = 0, E = wordCount(); I != E; ++I)
      if (A[I] & B[I])
        return true;
    return false;
  }

  /// Returns true if every set bit of this is also set in \p RHS.
  bool isSubsetOf(const BitVector &RHS) const {
    assert(NumBits == RHS.NumBits && "size mismatch");
    const Word *A = words();
    const Word *B = RHS.words();
    for (unsigned I = 0, E = wordCount(); I != E; ++I)
      if (A[I] & ~B[I])
        return false;
    return true;
  }

  /// Index of the first set bit, or -1 if none.
  int findFirst() const { return findNext(-1); }

  /// Index of the first set bit strictly after \p Prev, or -1 if none.
  int findNext(int Prev) const {
    unsigned Start = static_cast<unsigned>(Prev + 1);
    if (Start >= NumBits)
      return -1;
    const Word *Ws = words();
    unsigned WordIdx = Start / WordBits;
    Word W = Ws[WordIdx] & (~Word(0) << (Start % WordBits));
    while (true) {
      if (W)
        return static_cast<int>(WordIdx * WordBits + __builtin_ctzll(W));
      if (++WordIdx == wordCount())
        return -1;
      W = Ws[WordIdx];
    }
  }

  /// Iterator over the indices of set bits, for range-for loops.
  class SetBitIterator {
  public:
    SetBitIterator(const BitVector &BV, int Idx) : BV(&BV), Idx(Idx) {}
    unsigned operator*() const { return static_cast<unsigned>(Idx); }
    SetBitIterator &operator++() {
      Idx = BV->findNext(Idx);
      return *this;
    }
    bool operator!=(const SetBitIterator &RHS) const { return Idx != RHS.Idx; }

  private:
    const BitVector *BV;
    int Idx;
  };

  SetBitIterator begin() const { return SetBitIterator(*this, findFirst()); }
  SetBitIterator end() const { return SetBitIterator(*this, -1); }

  /// Number of storage words (numWords(size())).
  unsigned wordCount() const { return numWords(NumBits); }

  /// Read-only view of the packed words. Bits beyond size() in the last
  /// word are guaranteed zero (the tail-word invariant).
  const Word *words() const { return Data; }

  /// Mutable view of the packed words, for word-granular writers.
  /// Callers must keep the tail-word invariant: bits beyond size() stay
  /// zero. On a borrowed vector this is the external row itself.
  Word *wordsData() { return Data; }

  /// Returns the word-aligned sub-vector of \p SliceBits bits starting
  /// at word \p FirstWord (bit FirstWord * 64). The slice's words must
  /// all exist.
  BitVector sliceWords(unsigned FirstWord, unsigned SliceBits) const {
    assert(FirstWord + numWords(SliceBits) <= wordCount() &&
           "slice out of range");
    return fromWords(words() + FirstWord, SliceBits);
  }

private:
  static unsigned numWords(unsigned Bits) {
    return (Bits + WordBits - 1) / WordBits;
  }

  bool isBorrowed() const { return Data != Inline && !OnHeap; }

  /// Words the owned storage can hold: a heap block holds at least the
  /// current size.
  unsigned capacity() const { return OnHeap ? wordCount() : InlineWords; }

  /// Makes the storage owned with room for \p Words words, keeping the
  /// first min(Words, wordCount()) of them. A borrowed row is copied,
  /// never written.
  void reserveOwned(unsigned Words) {
    if (!isBorrowed() && Words <= capacity())
      return;
    Word *Old = Data;
    bool OldOnHeap = OnHeap;
    OnHeap = Words > InlineWords;
    Data = OnHeap ? new Word[Words] : Inline;
    std::copy_n(Old, std::min(Words, wordCount()), Data);
    if (OldOnHeap)
      delete[] Old;
  }

  /// Replaces the contents with the \p Bits bits packed at \p Src.
  void assignWords(const Word *Src, unsigned Bits) {
    reserveOwned(numWords(Bits));
    std::copy_n(Src, numWords(Bits), Data);
    NumBits = Bits;
  }

  /// Moves \p RHS's storage into this released vector and empties RHS.
  void take(BitVector &RHS) {
    NumBits = RHS.NumBits;
    OnHeap = RHS.OnHeap;
    if (RHS.Data == RHS.Inline)
      std::copy_n(RHS.Inline, wordCount(), Inline);
    else
      Data = RHS.Data;
    RHS.Data = RHS.Inline;
    RHS.OnHeap = false;
    RHS.NumBits = 0;
  }

  /// Frees a heap block, leaving an empty inline vector.
  void release() {
    if (OnHeap)
      delete[] Data;
    Data = Inline;
    OnHeap = false;
    NumBits = 0;
  }

  /// Bits beyond NumBits in the last word must stay zero so that count()
  /// and operator== behave.
  void clearExcessBits() {
    if (NumBits % WordBits != 0)
      wordsData()[NumBits / WordBits] &=
          ~Word(0) >> (WordBits - NumBits % WordBits);
  }

  /// Inline, the heap block or a borrowed external row.
  Word *Data = Inline;
  unsigned NumBits = 0;
  /// True when Data is a heap block this vector owns.
  bool OnHeap = false;
  Word Inline[InlineWords] = {};
};

/// Returns A | B as a new vector.
inline BitVector unionOf(const BitVector &A, const BitVector &B) {
  BitVector R = A;
  R |= B;
  return R;
}

/// Returns A & B as a new vector.
inline BitVector intersectionOf(const BitVector &A, const BitVector &B) {
  BitVector R = A;
  R &= B;
  return R;
}

/// Returns A - B (set difference) as a new vector.
inline BitVector differenceOf(const BitVector &A, const BitVector &B) {
  BitVector R = A;
  R.reset(B);
  return R;
}

} // namespace gnt

#endif // GNT_SUPPORT_BITVECTOR_H
