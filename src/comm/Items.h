//===- comm/Items.h - Dataflow universe of array sections -------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The communication problem's dataflow universe: value-numbered array
/// sections. An item is a distributed array together with a canonical
/// regular section, e.g. `x(11:n+10)`, or a one-level indirect section,
/// e.g. `x(a(1:n))`. References whose sections are structurally equal
/// share one item — this is how `x(a(k))` for k=1..N and `x(a(l))` for
/// l=1..N are "recognized as identical based on the subscript value
/// numbers" (paper, Figure 2 caption). The printable key is rendered
/// once per item, for display only.
///
/// Subscripts that depend on a mutated scalar cannot be value-numbered
/// soundly; such references get *volatile* items, unique per occurrence
/// and stolen whenever the scalar is reassigned.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_COMM_ITEMS_H
#define GNT_COMM_ITEMS_H

#include "ir/Affine.h"

#include <cassert>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace gnt {

/// One element of the communication dataflow universe.
struct Item {
  /// The distributed array being communicated.
  std::string Array;

  /// Printable form, e.g. "x(11:n+10)" or "x(a(1:n))", with a "#N"
  /// suffix for volatile items. Two non-volatile items have equal keys
  /// exactly when ItemTable::intern merges them.
  std::string Key;

  /// Direct section of Array, or the section of the *indirection* array
  /// for indirect items.
  Section Sec;

  /// For x(a(1:n)): "a". Empty for direct items.
  std::string IndirectArray;

  /// True if the subscript depends on a mutated scalar: the item is
  /// unique per occurrence and never shared.
  bool Volatile = false;

  /// '+' or '*' when every definition of this item is a reduction with
  /// that operator; 0 otherwise. Reduction write-backs combine at the
  /// owner instead of overwriting (paper Section 6).
  char ReductionOp = 0;

  /// Scalar symbols the section bounds depend on (used to steal the item
  /// when one of them is reassigned).
  std::vector<std::string> DependsOn;

  bool isIndirect() const { return !IndirectArray.empty(); }

  /// Appends the key without its volatile suffix: "x(11:n+10)",
  /// "x(a(1:n))" or "x(?)".
  void appendStructure(std::string &Out) const;

  /// Number of array elements this item covers, under the given
  /// parameter bindings; falls back to \p DefaultSize when the bounds are
  /// not evaluable.
  long long size(const std::map<std::string, long long> &Params,
                 long long DefaultSize) const;

  /// Conservative overlap: true unless the two items provably touch
  /// disjoint data.
  bool mayOverlap(const Item &RHS) const;
};

/// Interns items; ids index the GIVE-N-TAKE bit vectors.
class ItemTable {
public:
  /// Returns the id for \p I, reusing an existing id when a non-volatile
  /// item with the same array, indirection array, bounds and (unless the
  /// section is one element) stride exists. A new non-volatile item gets
  /// its Key rendered here; a volatile one must arrive with its Key set.
  unsigned intern(Item I);

  unsigned size() const { return static_cast<unsigned>(Items.size()); }

  const Item &item(unsigned Id) const {
    assert(Id < Items.size() && "bad item id");
    return Items[Id];
  }

  /// Item keys, for diagnostics and the verifier.
  std::vector<std::string> names() const;

  /// Id of the non-volatile item with key \p Key, or -1.
  int lookup(const std::string &Key) const;

  /// Records the kind of a definition of item \p Id: \p ReduceOp is '+'
  /// or '*' for reductions, 0 for plain stores. The item keeps a
  /// reduction operator only while *every* definition agrees on it.
  void noteDefinitionKind(unsigned Id, char ReduceOp);

private:
  std::vector<Item> Items;
  /// Non-volatile item ids by structural hash.
  std::unordered_multimap<std::uint64_t, unsigned> ByStructure;
  /// One char per item: nonzero once a definition has been noted.
  std::vector<char> SeenDef;
};

} // namespace gnt

#endif // GNT_COMM_ITEMS_H
