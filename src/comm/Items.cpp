//===- comm/Items.cpp - Dataflow universe of array sections -----------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "comm/Items.h"

#include "support/Hashing.h"

using namespace gnt;

namespace {

std::uint64_t mix(std::uint64_t H, std::uint64_t V) {
  return (H ^ V) * FnvPrime;
}

std::uint64_t hashAffine(std::uint64_t H, const AffineExpr &E) {
  H = mix(H, static_cast<std::uint64_t>(E.getConstTerm()));
  for (const auto &[Sym, C] : E.getTerms())
    H = mix(fnv1aAppend(H, Sym), static_cast<std::uint64_t>(C));
  return mix(H, E.getTerms().size());
}

/// The rendered key's equivalence: a one-element section prints no
/// stride, so its stride does not distinguish items.
bool sameStructure(const Item &A, const Item &B) {
  return A.Array == B.Array && A.IndirectArray == B.IndirectArray &&
         A.Sec.Lo == B.Sec.Lo && A.Sec.Hi == B.Sec.Hi &&
         (A.Sec.Lo == A.Sec.Hi || A.Sec.Stride == B.Sec.Stride);
}

std::uint64_t structuralHash(const Item &I) {
  std::uint64_t H = fnv1aAppend(FnvOffsetBasis, I.Array);
  H = fnv1aAppend(mix(H, '('), I.IndirectArray);
  H = hashAffine(mix(H, ':'), I.Sec.Lo);
  H = hashAffine(mix(H, ':'), I.Sec.Hi);
  if (!(I.Sec.Lo == I.Sec.Hi))
    H = mix(H, static_cast<std::uint64_t>(I.Sec.Stride));
  return H;
}

/// Evaluates an affine expression under parameter bindings; nullopt
/// when a symbol is unbound or the value does not fit in a long long.
std::optional<long long>
evaluate(const AffineExpr &E, const std::map<std::string, long long> &Params) {
  if (!E.isAffine())
    return std::nullopt;
  long long V = E.getConstTerm();
  for (const auto &[Sym, C] : E.getTerms()) {
    auto It = Params.find(Sym);
    long long Term;
    if (It == Params.end() || __builtin_mul_overflow(C, It->second, &Term) ||
        __builtin_add_overflow(V, Term, &V))
      return std::nullopt;
  }
  return V;
}

} // namespace

long long Item::size(const std::map<std::string, long long> &Params,
                     long long DefaultSize) const {
  std::optional<long long> Lo = evaluate(Sec.Lo, Params);
  std::optional<long long> Hi = evaluate(Sec.Hi, Params);
  long long Span;
  if (!Lo || !Hi || __builtin_sub_overflow(*Hi, *Lo, &Span))
    return DefaultSize;
  if (Span < 0)
    return 0;
  long long Size;
  if (__builtin_add_overflow(Span / (Sec.Stride > 0 ? Sec.Stride : 1), 1,
                             &Size))
    return DefaultSize;
  return Size;
}

bool Item::mayOverlap(const Item &RHS) const {
  if (Array != RHS.Array)
    return false;
  // Volatile or indirect sections are opaque: assume overlap.
  if (Volatile || RHS.Volatile)
    return true;
  if (isIndirect() || RHS.isIndirect()) {
    // Two indirect items through the same indirection array with provably
    // disjoint indirection sections still may collide (the indirection
    // contents are unknown); stay conservative.
    return true;
  }
  return Sec.mayOverlap(RHS.Sec);
}

void Item::appendStructure(std::string &Out) const {
  Out += Array;
  if (!isIndirect()) {
    Sec.appendTo(Out);
    return;
  }
  Out += '(';
  Out += IndirectArray;
  Sec.appendTo(Out);
  Out += ')';
}

unsigned ItemTable::intern(Item I) {
  unsigned Id = static_cast<unsigned>(Items.size());
  if (!I.Volatile) {
    std::uint64_t H = structuralHash(I);
    auto [It, End] = ByStructure.equal_range(H);
    for (; It != End; ++It)
      if (sameStructure(Items[It->second], I))
        return It->second;
    ByStructure.emplace(H, Id);
    I.Key.clear();
    I.appendStructure(I.Key);
  }
  assert(!I.Key.empty() && "volatile item without a key");
  Items.push_back(std::move(I));
  SeenDef.push_back(0);
  return Id;
}

std::vector<std::string> ItemTable::names() const {
  std::vector<std::string> R;
  R.reserve(Items.size());
  for (const Item &I : Items)
    R.push_back(I.Key);
  return R;
}

void ItemTable::noteDefinitionKind(unsigned Id, char ReduceOp) {
  assert(Id < Items.size() && "bad item id");
  Item &I = Items[Id];
  if (SeenDef[Id]) {
    if (I.ReductionOp != ReduceOp)
      I.ReductionOp = 0; // Mixed definition kinds: fall back to plain.
    return;
  }
  SeenDef[Id] = 1;
  I.ReductionOp = ReduceOp;
}

int ItemTable::lookup(const std::string &Key) const {
  for (unsigned Id = 0; Id != Items.size(); ++Id)
    if (!Items[Id].Volatile && Items[Id].Key == Key)
      return static_cast<int>(Id);
  return -1;
}
