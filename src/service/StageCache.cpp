//===- service/StageCache.cpp - Content-addressed stage cache ---------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/StageCache.h"

#include "ir/AstPrinter.h"
#include "service/DiskCache.h"
#include "support/Hashing.h"
#include "support/Support.h"

using namespace gnt;

const char *gnt::cacheStageName(CacheStage S) {
  switch (S) {
  case CacheStage::Parse:
    return "parse";
  case CacheStage::Cfg:
    return "cfg";
  case CacheStage::Interval:
    return "interval";
  case CacheStage::Solve:
    return "solve";
  case CacheStage::Annotate:
    return "annotate";
  }
  gntUnreachable("covered switch");
}

StageCache::StageCache() : StageCache(Config{}) {}

StageCache::StageCache(Config C, DiskCache *Disk) : Cfg_(C), Disk(Disk) {
  Parses.setCapacity(Cfg_.CapacityPerStage);
  Cfgs.setCapacity(Cfg_.CapacityPerStage);
  Intervals.setCapacity(Cfg_.CapacityPerStage);
  Solves.setCapacity(Cfg_.CapacityPerStage);
  Annotations.setCapacity(Cfg_.CapacityPerStage);
  Slots.setCapacity(MaxSolveSlots);
}

void StageCache::noteProbe(CacheStage S, bool Hit) {
  std::lock_guard<std::mutex> L(StatsMutex);
  if (Hit)
    ++Stats.Hits[static_cast<unsigned>(S)];
  else
    ++Stats.Misses[static_cast<unsigned>(S)];
}

std::shared_ptr<const ParseArtifact>
StageCache::lookupParse(std::uint64_t Key) {
  auto A = Parses.lookup(Key);
  noteProbe(CacheStage::Parse, A != nullptr);
  return A;
}
void StageCache::insertParse(std::uint64_t Key,
                             std::shared_ptr<const ParseArtifact> A) {
  Parses.insert(Key, std::move(A));
}

std::shared_ptr<const CfgArtifact> StageCache::lookupCfg(std::uint64_t Key) {
  auto A = Cfgs.lookup(Key);
  noteProbe(CacheStage::Cfg, A != nullptr);
  return A;
}
void StageCache::insertCfg(std::uint64_t Key,
                           std::shared_ptr<const CfgArtifact> A) {
  Cfgs.insert(Key, std::move(A));
}

std::shared_ptr<const IntervalArtifact>
StageCache::lookupInterval(std::uint64_t Key) {
  auto A = Intervals.lookup(Key);
  noteProbe(CacheStage::Interval, A != nullptr);
  return A;
}
void StageCache::insertInterval(std::uint64_t Key,
                                std::shared_ptr<const IntervalArtifact> A) {
  Intervals.insert(Key, std::move(A));
}

std::shared_ptr<const SolveArtifact>
StageCache::lookupSolve(std::uint64_t Key) {
  auto A = Solves.lookup(Key);
  noteProbe(CacheStage::Solve, A != nullptr);
  return A;
}
void StageCache::insertSolve(std::uint64_t Key,
                             std::shared_ptr<const SolveArtifact> A) {
  Solves.insert(Key, std::move(A));
}

std::shared_ptr<const std::string>
StageCache::lookupAnnotate(std::uint64_t Key) {
  auto A = Annotations.lookup(Key);
  noteProbe(CacheStage::Annotate, A != nullptr);
  return A;
}
void StageCache::insertAnnotate(std::uint64_t Key,
                                std::shared_ptr<const std::string> A) {
  Annotations.insert(Key, std::move(A));
}

std::shared_ptr<SolveSlot>
StageCache::solveSlot(const std::string &SolveOptsKey) {
  std::shared_ptr<SolveSlot> Slot = Slots.lookupOrCreate(SolveOptsKey);
  if (Disk) {
    // First user of the slot restores the previous process's memos.
    // Done under the slot mutex, not the table's: deserialization can be
    // large and must not block unrelated slots.
    std::lock_guard<std::mutex> L(Slot->M);
    if (!Slot->DiskLoadAttempted) {
      Slot->DiskLoadAttempted = true;
      struct {
        const char *Name;
        GntSolveMemo *Memo;
      } Sl[3] = {{"read", &Slot->Ctx.Read},
                 {"write", &Slot->Ctx.Write},
                 {"pre", &Slot->Ctx.Pre}};
      for (auto &S : Sl) {
        std::string Payload;
        if (Disk->lookupMemo(memoDiskKey(SolveOptsKey, S.Name), Payload))
          deserializeGntMemo(Payload, *S.Memo); // Corrupt -> stays empty.
      }
    }
  }
  return Slot;
}

std::size_t StageCache::solveSlots() const { return Slots.size(); }

void StageCache::persistSlot(SolveSlot &Slot,
                             const std::string &SolveOptsKey) {
  if (!Disk)
    return;
  struct {
    const char *Name;
    const GntSolveMemo *Memo;
  } Sl[3] = {{"read", &Slot.Ctx.Read},
             {"write", &Slot.Ctx.Write},
             {"pre", &Slot.Ctx.Pre}};
  for (auto &S : Sl) {
    if (!S.Memo->valid())
      continue;
    std::string Payload = serializeGntMemo(*S.Memo);
    if (!Payload.empty())
      Disk->insertMemo(memoDiskKey(SolveOptsKey, S.Name), Payload);
  }
}

void StageCache::noteIncremental(const GntIncrementalStats &Delta) {
  std::lock_guard<std::mutex> L(StatsMutex);
  Stats.Inc.merge(Delta);
}

StageCacheStats StageCache::statsSnapshot() const {
  std::lock_guard<std::mutex> L(StatsMutex);
  return Stats;
}

std::size_t StageCache::entries(CacheStage S) const {
  switch (S) {
  case CacheStage::Parse:
    return Parses.size();
  case CacheStage::Cfg:
    return Cfgs.size();
  case CacheStage::Interval:
    return Intervals.size();
  case CacheStage::Solve:
    return Solves.size();
  case CacheStage::Annotate:
    return Annotations.size();
  }
  gntUnreachable("covered switch");
}

std::uint64_t StageCache::parseKey(const std::string &Source) {
  std::uint64_t H = fnv1a("stage:parse");
  H = fnv1aAppend(H, std::string(1, '\0'));
  return fnv1aAppend(H, Source);
}

std::uint64_t StageCache::astDigest(const Program &P) {
  return fnv1a(AstPrinter().print(P));
}

namespace {

std::uint64_t mixTag(const char *Tag, std::uint64_t Digest) {
  std::uint64_t H = fnv1a(Tag);
  for (unsigned I = 0; I != 8; ++I) {
    H ^= (Digest >> (8 * I)) & 0xff;
    H *= FnvPrime;
  }
  return H;
}

} // namespace

std::uint64_t StageCache::cfgKey(std::uint64_t AstDigest) {
  return mixTag("stage:cfg", AstDigest);
}

std::uint64_t StageCache::intervalKey(std::uint64_t AstDigest) {
  return mixTag("stage:interval", AstDigest);
}

std::uint64_t StageCache::solveKey(std::uint64_t AstDigest,
                                   const std::string &SolveOptsKey) {
  std::uint64_t H = mixTag("stage:solve", AstDigest);
  H = fnv1aAppend(H, std::string(1, '\0'));
  return fnv1aAppend(H, SolveOptsKey);
}

std::uint64_t StageCache::annotateKey(std::uint64_t SolveKey) {
  return mixTag("stage:annotate", SolveKey);
}

std::string StageCache::solveOptionsKey(const PipelineOptions &Opts) {
  // Only knobs the solve stage consumes; see the header contract. The
  // stage-cache key audit test guards this list from drift the same way
  // the result-cache test guards canonical().
  std::string R;
  R += "mode=";
  R += Opts.Mode == PipelineMode::Comm ? "comm" : "pre";
  R += ";baseline=" + Opts.Baseline;
  R += ";strategy=";
  R += placementStrategyName(Opts.Strategy);
  R += ";profile=";
  R += '\x1f'; // Unit separators: profile text is free-form.
  R += Opts.Profile;
  R += '\x1f';
  auto field = [&R](const char *Name, long long Value) {
    R += Name;
    appendInt(R, Value);
  };
  field(";atomic=", Opts.Comm.Atomic);
  field(";owner_computes=", Opts.Comm.OwnerComputes);
  field(";hoist_zero_trip=", Opts.Comm.HoistZeroTrip);
  field(";reads=", Opts.Comm.GenerateReads);
  field(";writes=", Opts.Comm.GenerateWrites);
  return R;
}

std::uint64_t StageCache::memoDiskKey(const std::string &SolveOptsKey,
                                      const char *MemoSlot) {
  std::uint64_t H = fnv1a("stage-memo");
  H = fnv1aAppend(H, std::string(1, '\0'));
  H = fnv1aAppend(H, SolveOptsKey);
  H = fnv1aAppend(H, std::string(1, '\0'));
  return fnv1aAppend(H, MemoSlot);
}
