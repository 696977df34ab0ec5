//===- service/BatchServer.h - Batch compilation server --------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `gntd` server core: a batch of JSON-lines compilation requests
/// fanned out over a worker thread pool, with a content-addressed
/// result cache and service metrics.
///
/// One request per line:
///
/// \code
///   {"id": "job-1", "source": "distribute x\n...", "options": {...}}
///   {"id": "job-2", "file": "examples/fm/fig11.fm"}
/// \endcode
///
/// Exactly one of "source" (inline program text) or "file" (path read
/// by the worker; batch mode only — the socket server rejects it) is
/// required; "id" defaults to the 1-based line number; "tenant"
/// (optional string) names the quota principal in socket mode and is
/// ignored here; "options" maps onto PipelineOptions: "mode"
/// ("comm"|"pre"), "baseline", "strategy"
/// ("balanced"|"speculative"|"lospre"), "profile" (gnt-profile-v1 text
/// for the speculative strategy), "atomic", "owner_computes",
/// "hoist_zero_trip", "reads", "writes", "annotate", "audit", "verify",
/// "werror", "incremental" (bool) and "analyses" (array of strings:
/// built-in analysis names or full spec texts, solved and checked after
/// the solve) — incremental is a solver execution strategy with
/// byte-identical results for either value, so it does not participate
/// in the result cache key; "strategy", "profile" and "analyses" change
/// the payload and do.
///
/// Compilations run through a content-addressed stage cache
/// (service/StageCache.h): an edited source re-runs only the pipeline
/// stages whose inputs changed, and with "incremental" set the solve
/// stage re-solves only the intervals whose equation inputs changed.
///
/// One response line per request, in request order regardless of
/// scheduling: {"id": ..., "result": {"ok": ..., "annotated": ...,
/// "placements": ..., "diagnostics": ..., "summary": ...}}. Failures
/// are isolated: a request that fails to parse (JSON or FMini) or
/// fails its audit produces a diagnostic payload and never kills the
/// batch. The "result" object is deterministic — it carries no timing
/// or cache state — so serial and parallel runs are byte-identical.
///
/// Repeat requests are served from an LRU-bounded cache keyed on the
/// FNV-1a content hash of (canonicalized options, source); hit/miss
/// counters and per-stage latency distributions land in
/// ServiceMetrics.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_SERVICE_BATCHSERVER_H
#define GNT_SERVICE_BATCHSERVER_H

#include "service/DiskCache.h"
#include "service/Metrics.h"
#include "service/Pipeline.h"
#include "service/StageCache.h"

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace gnt {

/// One decoded compilation request.
struct ServiceRequest {
  std::string Id;     ///< Echoed back; line number when absent.
  std::string Source; ///< Inline program text (empty if File is set).
  std::string File;   ///< Path to read instead (empty if Source is set).
  /// Quota accounting principal (socket mode); empty means the shared
  /// anonymous tenant. Routing metadata only — never part of the cache
  /// key, so tenants share each other's compilation results.
  std::string Tenant;
  PipelineOptions Opts;
};

/// Decodes one JSON line into \p Req. On malformed input returns false
/// and sets \p Error; \p DefaultId is used when the line has no "id".
bool parseServiceRequest(const std::string &Line,
                         const std::string &DefaultId, ServiceRequest &Req,
                         std::string &Error);

/// Server configuration.
struct ServiceConfig {
  /// Worker threads; 0 runs jobs inline in the caller (serial mode).
  unsigned Workers = 0;
  /// Result cache capacity in entries; 0 disables caching.
  unsigned CacheCapacity = 1024;
  /// Directory of the persistent disk cache layered under the in-memory
  /// LRU (service/DiskCache.h); empty disables persistence.
  std::string DiskCachePath;
  /// Disk cache capacity in entries.
  unsigned DiskCacheCapacity = 4096;
  /// Byte budget for persisted solve memos (`.gm` entries), evicted
  /// oldest-first when exceeded; 0 means uncapped. Memos are whole
  /// serialized solver arenas, so they are budgeted in bytes rather
  /// than sharing the result entry count.
  std::uint64_t DiskCacheMemoBytes = 64ull << 20;
  /// Cooperative cancellation: when set and it becomes true, batch jobs
  /// that have not started yet return a structured `cancelled` payload
  /// instead of compiling, so a signalled run still drains, renders
  /// every response, and reaches its shutdown metrics block.
  const std::atomic<bool> *Stop = nullptr;
};

/// A bounded, thread-safe, least-recently-used result cache keyed by
/// the pipeline content hash. Values are fully rendered result payloads
/// (strings), so a hit costs one lookup and no recompilation.
class ResultCache {
public:
  explicit ResultCache(unsigned Capacity) : Capacity(Capacity) {}

  /// Returns true and fills \p Payload on a hit (refreshing recency).
  bool lookup(std::uint64_t Key, std::string &Payload);

  /// Inserts \p Payload, evicting the least recently used entry beyond
  /// capacity. Racing inserts of one key are benign (last one wins).
  void insert(std::uint64_t Key, const std::string &Payload);

  unsigned size() const;

private:
  mutable std::mutex M;
  unsigned Capacity;
  /// Most recent first.
  std::list<std::pair<std::uint64_t, std::string>> Lru;
  std::unordered_map<std::uint64_t,
                     std::list<std::pair<std::uint64_t, std::string>>::iterator>
      Index;
};

/// The batch server: decode, schedule, cache, collect, measure.
class BatchServer {
public:
  explicit BatchServer(ServiceConfig Config = {});

  /// Processes one batch of JSON-lines (blank lines skipped) and
  /// returns one response line per request, in request order.
  /// Callable repeatedly; the cache and metrics persist across calls.
  std::vector<std::string> run(const std::vector<std::string> &Lines);

  /// Executes one decoded request (compile or cache hit) and returns
  /// the full response line. Thread-safe; this is the execution path
  /// the socket server's workers call directly.
  std::string serve(const ServiceRequest &Req);

  /// Locked copy of the metrics, safe to render while workers are
  /// still recording (the live /metrics endpoint needs this; the
  /// unlocked reference accessor is for quiescent shutdown reads).
  /// The stage cache's hit/miss counters and incremental solver totals
  /// are assigned to the copy's Stages — the raw metrics() reference
  /// carries only the job/result-cache counters.
  ServiceMetrics metricsSnapshot() const;

  /// Persists the disk cache index, if a disk cache is configured.
  void flushDiskCache();

  const ServiceMetrics &metrics() const { return Metrics; }
  const ServiceConfig &config() const { return Config; }
  /// The persistent layer, or nullptr when disabled or failed to open.
  const DiskCache *diskCache() const { return Disk.get(); }
  /// Non-empty when DiskCachePath was set but the directory could not
  /// be opened (the server then runs memory-only).
  const std::string &diskCacheError() const { return DiskError; }
  /// The content-addressed stage cache every miss compiles through.
  StageCache &stageCache() { return *Stages; }
  const StageCache &stageCache() const { return *Stages; }

private:
  ServiceConfig Config;
  ResultCache Cache;
  std::unique_ptr<DiskCache> Disk;
  std::unique_ptr<StageCache> Stages;
  std::string DiskError;
  mutable std::mutex MetricsMutex;
  ServiceMetrics Metrics;
};

/// Renders the structured failure payload for a request that never
/// reached the pipeline (malformed JSON, unreadable file, cancelled):
/// ok=false plus one engine diagnostic carrying \p Message.
std::string renderErrorPayload(const std::string &Message);

/// Renders the deterministic result payload for a finished compilation
/// (the cached portion of a response).
std::string renderResultPayload(const PipelineResult &R);

/// Wraps \p Payload into a full response line for request \p Id.
std::string renderResponse(const std::string &Id, const std::string &Payload);

} // namespace gnt

#endif // GNT_SERVICE_BATCHSERVER_H
