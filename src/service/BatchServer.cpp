//===- service/BatchServer.cpp - Batch compilation server -------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/BatchServer.h"

#include "support/Hashing.h"
#include "support/Json.h"
#include "support/JsonParse.h"
#include "support/Support.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <fstream>
#include <sstream>

using namespace gnt;

//===----------------------------------------------------------------------===//
// Request decoding
//===----------------------------------------------------------------------===//

namespace {

bool optionBool(const JsonValue &V, const std::string &Key, bool &Out,
                std::string &Error) {
  if (!V.isBool()) {
    Error = "option `" + Key + "` must be a boolean";
    return false;
  }
  Out = V.B;
  return true;
}

bool decodeOptions(const JsonValue &Obj, PipelineOptions &Opts,
                   std::string &Error) {
  for (const auto &[Key, V] : Obj.Fields) {
    if (Key == "mode") {
      if (V.isString() && V.S == "comm")
        Opts.Mode = PipelineMode::Comm;
      else if (V.isString() && V.S == "pre")
        Opts.Mode = PipelineMode::Pre;
      else {
        Error = "option `mode` must be \"comm\" or \"pre\"";
        return false;
      }
    } else if (Key == "baseline") {
      if (!V.isString()) {
        Error = "option `baseline` must be a string";
        return false;
      }
      Opts.Baseline = V.S;
    } else if (Key == "strategy") {
      // Placement strategy: semantic (part of the cache key), unlike
      // incremental below.
      if (!V.isString() || !parsePlacementStrategy(V.S, Opts.Strategy)) {
        Error = "option `strategy` must be \"balanced\", \"speculative\" "
                "or \"lospre\"";
        return false;
      }
    } else if (Key == "profile") {
      // gnt-profile-v1 text for the speculative strategy. Semantic
      // (cached); validated by the pipeline at solve time.
      if (!V.isString()) {
        Error = "option `profile` must be a string";
        return false;
      }
      Opts.Profile = V.S;
    } else if (Key == "atomic") {
      if (!optionBool(V, Key, Opts.Comm.Atomic, Error))
        return false;
    } else if (Key == "owner_computes") {
      if (!optionBool(V, Key, Opts.Comm.OwnerComputes, Error))
        return false;
    } else if (Key == "hoist_zero_trip") {
      if (!optionBool(V, Key, Opts.Comm.HoistZeroTrip, Error))
        return false;
    } else if (Key == "reads") {
      if (!optionBool(V, Key, Opts.Comm.GenerateReads, Error))
        return false;
    } else if (Key == "writes") {
      if (!optionBool(V, Key, Opts.Comm.GenerateWrites, Error))
        return false;
    } else if (Key == "annotate") {
      if (!optionBool(V, Key, Opts.Annotate, Error))
        return false;
    } else if (Key == "audit") {
      if (!optionBool(V, Key, Opts.Audit, Error))
        return false;
    } else if (Key == "verify") {
      if (!optionBool(V, Key, Opts.Verify, Error))
        return false;
    } else if (Key == "werror") {
      if (!optionBool(V, Key, Opts.Werror, Error))
        return false;
    } else if (Key == "incremental") {
      // Interval-level incremental solving: an execution strategy, not
      // a semantic knob — the incrementality-equivalence battery pins
      // its output byte-identical to a cold solve, so it is excluded
      // from the canonical options string and thus the cache key.
      if (!optionBool(V, Key, Opts.Incremental, Error))
        return false;
    } else if (Key == "analyses") {
      // User-specified analyses: built-in names or full spec texts,
      // solved and checked after the solve. Semantic (cached).
      if (!V.isArray()) {
        Error = "option `analyses` must be an array of strings";
        return false;
      }
      for (const JsonValue &E : V.Elems) {
        if (!E.isString()) {
          Error = "option `analyses` must be an array of strings";
          return false;
        }
        Opts.ExtraAnalyses.push_back(E.S);
      }
    } else {
      Error = "unknown option `" + Key + "`";
      return false;
    }
  }
  return true;
}

} // namespace

bool gnt::parseServiceRequest(const std::string &Line,
                              const std::string &DefaultId,
                              ServiceRequest &Req, std::string &Error) {
  JsonParseResult P = parseJson(Line);
  if (!P.success()) {
    Error = "malformed JSON: " + P.Error + " (at byte " +
            itostr(static_cast<long long>(P.ErrorOffset)) + ")";
    return false;
  }
  if (!P.Value.isObject()) {
    Error = "request must be a JSON object";
    return false;
  }
  Req = ServiceRequest();
  Req.Id = DefaultId;
  for (const auto &[Key, V] : P.Value.Fields) {
    if (Key == "id") {
      if (!V.isString()) {
        Error = "`id` must be a string";
        return false;
      }
      Req.Id = V.S;
    } else if (Key == "source") {
      if (!V.isString()) {
        Error = "`source` must be a string";
        return false;
      }
      Req.Source = V.S;
    } else if (Key == "file") {
      if (!V.isString()) {
        Error = "`file` must be a string";
        return false;
      }
      Req.File = V.S;
    } else if (Key == "tenant") {
      if (!V.isString()) {
        Error = "`tenant` must be a string";
        return false;
      }
      Req.Tenant = V.S;
    } else if (Key == "options") {
      if (!V.isObject()) {
        Error = "`options` must be an object";
        return false;
      }
      if (!decodeOptions(V, Req.Opts, Error))
        return false;
    } else {
      Error = "unknown request field `" + Key + "`";
      return false;
    }
  }
  bool HasSource = P.Value.field("source") != nullptr;
  bool HasFile = P.Value.field("file") != nullptr;
  if (HasSource == HasFile) {
    Error = "request needs exactly one of `source` or `file`";
    return false;
  }
  if (HasFile && Req.File.empty()) {
    Error = "`file` must be a non-empty path";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Result rendering
//===----------------------------------------------------------------------===//

std::string gnt::renderResultPayload(const PipelineResult &R) {
  JsonWriter W;
  W.beginObject();
  W.key("ok").value(R.ok());
  W.key("annotated").value(R.Annotated);
  if (R.Plan) {
    W.key("placements");
    W.beginObject();
    for (const auto &[Kind, Count] : R.Plan->staticCounts())
      W.key(commOpName(Kind)).value(Count);
    W.endObject();
  }
  if (R.Pre) {
    W.key("pre");
    W.beginObject();
    W.key("insertions").value(
        static_cast<long long>(R.Pre->Insertions.size()));
    W.key("redundant").value(static_cast<long long>(R.Pre->Redundant.size()));
    W.endObject();
  }
  if (!R.Analyses.empty()) {
    // Deterministic per-analysis summary: name, verdict, universe
    // size, and the solution hash as the cross-configuration
    // invariance witness. No statistics here — cached and fresh
    // responses must be byte-identical.
    W.beginArray("analyses");
    for (const AnalysisRun &A : R.Analyses) {
      W.beginObject();
      W.key("name").value(A.Name);
      W.key("ok").value(A.ok());
      W.key("universe").value(specUniverseName(A.Universe));
      W.key("items").value(A.UniverseSize);
      W.key("hash").value(hashToHex(A.solutionHash()));
      W.endObject();
    }
    W.endArray();
  }
  W.key("diagnostics").raw(R.Diags.renderJson());
  W.endObject();
  return W.str();
}

std::string gnt::renderResponse(const std::string &Id,
                                const std::string &Payload) {
  std::string R;
  R.reserve(Id.size() + Payload.size() + 20);
  R += "{\"id\":\"";
  appendJsonEscaped(R, Id);
  R += "\",\"result\":";
  R += Payload;
  R += '}';
  return R;
}

std::string gnt::renderErrorPayload(const std::string &Message) {
  DiagnosticSet Diags;
  Diagnostic D;
  D.Severity = DiagSeverity::Error;
  D.Check = CheckId::Engine;
  D.Message = Message;
  Diags.add(std::move(D));
  JsonWriter W;
  W.beginObject();
  W.key("ok").value(false);
  W.key("annotated").value(std::string());
  W.key("diagnostics").raw(Diags.renderJson());
  W.endObject();
  return W.str();
}

namespace {

/// Local alias: the rendering predates the public name.
std::string errorPayload(const std::string &Message) {
  return renderErrorPayload(Message);
}

} // namespace

//===----------------------------------------------------------------------===//
// ResultCache
//===----------------------------------------------------------------------===//

bool ResultCache::lookup(std::uint64_t Key, std::string &Payload) {
  if (Capacity == 0)
    return false;
  std::lock_guard<std::mutex> Lock(M);
  auto It = Index.find(Key);
  if (It == Index.end())
    return false;
  Lru.splice(Lru.begin(), Lru, It->second);
  Payload = It->second->second;
  return true;
}

void ResultCache::insert(std::uint64_t Key, const std::string &Payload) {
  if (Capacity == 0)
    return;
  std::lock_guard<std::mutex> Lock(M);
  auto It = Index.find(Key);
  if (It != Index.end()) {
    It->second->second = Payload;
    Lru.splice(Lru.begin(), Lru, It->second);
    return;
  }
  Lru.emplace_front(Key, Payload);
  Index[Key] = Lru.begin();
  while (Lru.size() > Capacity) {
    Index.erase(Lru.back().first);
    Lru.pop_back();
  }
}

unsigned ResultCache::size() const {
  std::lock_guard<std::mutex> Lock(M);
  return static_cast<unsigned>(Lru.size());
}

//===----------------------------------------------------------------------===//
// BatchServer
//===----------------------------------------------------------------------===//

BatchServer::BatchServer(ServiceConfig Config)
    : Config(Config), Cache(Config.CacheCapacity) {
  if (!this->Config.DiskCachePath.empty()) {
    auto D = std::make_unique<DiskCache>(this->Config.DiskCachePath,
                                         this->Config.DiskCacheCapacity,
                                         this->Config.DiskCacheMemoBytes);
    if (D->open(DiskError))
      Disk = std::move(D);
    // On failure the server degrades to memory-only; DiskError tells
    // the operator why persistence is off.
  }
  // The stage cache shares the disk cache so incremental solve memos
  // survive restarts alongside the result payloads.
  Stages = std::make_unique<StageCache>(StageCache::Config{}, Disk.get());
}

ServiceMetrics BatchServer::metricsSnapshot() const {
  ServiceMetrics M;
  {
    std::lock_guard<std::mutex> Lock(MetricsMutex);
    M = Metrics;
  }
  M.Stages = Stages->statsSnapshot();
  return M;
}

void BatchServer::flushDiskCache() {
  if (Disk)
    Disk->flush();
}

std::string BatchServer::serve(const ServiceRequest &Req) {
  auto Start = std::chrono::steady_clock::now();
  bool DiskHit = false;
  auto Finish = [&](const std::string &Payload, bool Failed, bool Hit,
                    bool Miss, const PipelineResult *R) {
    auto End = std::chrono::steady_clock::now();
    double Micros =
        std::chrono::duration<double, std::micro>(End - Start).count();
    std::lock_guard<std::mutex> Lock(MetricsMutex);
    ++Metrics.Jobs;
    if (Failed)
      ++Metrics.Failed;
    if (Hit)
      ++Metrics.CacheHits;
    if (DiskHit)
      ++Metrics.DiskHits;
    if (Miss)
      ++Metrics.CacheMisses;
    Metrics.JobLatency.record(Micros);
    if (R) {
      for (unsigned I = 0; I < NumPipelineStages; ++I)
        if (R->StageMicros[I] > 0)
          Metrics.StageLatency[I].record(R->StageMicros[I]);
    }
    return renderResponse(Req.Id, Payload);
  };

  // Resolve the source text; workers do the file I/O so a slow or
  // missing path never stalls request decoding.
  std::string Source;
  if (!Req.File.empty()) {
    std::ifstream In(Req.File);
    if (!In)
      return Finish(errorPayload("cannot open file `" + Req.File + "`"),
                    /*Failed=*/true, false, false, nullptr);
    std::ostringstream SS;
    SS << In.rdbuf();
    Source = SS.str();
  } else {
    Source = Req.Source;
  }

  std::uint64_t Key = pipelineCacheKey(Source, Req.Opts);
  std::string Payload;
  if (Cache.lookup(Key, Payload))
    return Finish(Payload, /*Failed=*/false, /*Hit=*/true, false, nullptr);

  // Persistent layer: a disk hit is promoted into the LRU so the next
  // lookup is a memory hit, and costs no recompilation.
  if (Disk && Disk->lookup(Key, Payload)) {
    DiskHit = true;
    Cache.insert(Key, Payload);
    return Finish(Payload, /*Failed=*/false, /*Hit=*/false, false, nullptr);
  }

  PipelineResult R = Pipeline(Req.Opts).compile(Source, Stages.get());
  Payload = renderResultPayload(R);
  Cache.insert(Key, Payload);
  if (Disk)
    Disk->insert(Key, Payload);
  return Finish(Payload, /*Failed=*/!R.ok(), false, /*Miss=*/true, &R);
}

std::vector<std::string> BatchServer::run(
    const std::vector<std::string> &Lines) {
  // Decode up front (cheap, serial, deterministic ids), then fan the
  // compilations out. Responses land by request index, so output order
  // is input order no matter how the pool schedules.
  struct Slot {
    bool Valid = false;
    ServiceRequest Req;
    std::string Response; // Pre-filled for undecodable requests.
  };
  std::vector<Slot> Slots;
  Slots.reserve(Lines.size());
  unsigned LineNo = 0;
  for (const std::string &Line : Lines) {
    ++LineNo;
    if (Line.find_first_not_of(" \t\r\n") == std::string::npos)
      continue;
    Slot S;
    std::string Error;
    std::string DefaultId = "line-" + itostr(LineNo);
    if (parseServiceRequest(Line, DefaultId, S.Req, Error)) {
      S.Valid = true;
    } else {
      S.Response = renderResponse(DefaultId, errorPayload(Error));
      std::lock_guard<std::mutex> Lock(MetricsMutex);
      ++Metrics.Jobs;
      ++Metrics.Failed;
    }
    Slots.push_back(std::move(S));
  }

  {
    ThreadPool Pool(Config.Workers);
    for (Slot &S : Slots)
      if (S.Valid)
        Pool.submit([this, &S] {
          // Cooperative drain: after a shutdown signal, jobs that have
          // not started yet answer `cancelled` instead of compiling, so
          // the batch still renders every response and the metrics
          // block is reached (the old path died mid-batch).
          if (Config.Stop && Config.Stop->load(std::memory_order_relaxed)) {
            S.Response = renderResponse(
                S.Req.Id,
                errorPayload("cancelled: shutdown requested before this "
                             "job started"));
            std::lock_guard<std::mutex> Lock(MetricsMutex);
            ++Metrics.Jobs;
            ++Metrics.Cancelled;
            return;
          }
          S.Response = serve(S.Req);
        });
    Pool.wait();
  }

  std::vector<std::string> Responses;
  Responses.reserve(Slots.size());
  for (Slot &S : Slots)
    Responses.push_back(std::move(S.Response));
  return Responses;
}
