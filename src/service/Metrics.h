//===- service/Metrics.h - Batch service metrics ---------------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shutdown-time metrics for the batch compilation service: job and
/// cache counters, wall-clock throughput, and latency distributions
/// (min/mean/p50/p99) per pipeline stage and per whole job. Samples are
/// recorded under the server's lock into fixed-size rings and reduced
/// only when rendered, so the hot path stays a store.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_SERVICE_METRICS_H
#define GNT_SERVICE_METRICS_H

#include "service/Pipeline.h"
#include "service/StageCache.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

namespace gnt {

/// A latency sample set: exact count, mean and min from running totals,
/// and order statistics over a ring of the most recent samples, so
/// memory and snapshot cost stay constant for a server's lifetime.
class LatencyStats {
public:
  /// Samples the quantiles are computed over. 16,384 leaves more than
  /// ten samples beyond the highest exported quantile (0.999).
  static constexpr size_t Window = 16384;

  void record(double Micros) {
    if (Recent.size() < Window)
      Recent.push_back(Micros);
    else
      Recent[Count % Window] = Micros;
    Min = Count == 0 ? Micros : std::min(Min, Micros);
    Sum += Micros;
    ++Count;
  }

  bool empty() const { return Count == 0; }
  size_t count() const { return Count; }
  /// Samples currently held for the quantiles (at most Window).
  size_t retained() const { return Recent.size(); }

  double min() const { return Min; }

  double mean() const {
    return Count ? Sum / static_cast<double>(Count) : 0;
  }

  /// Nearest-rank percentile over the retained samples; \p P in
  /// [0, 100].
  double percentile(double P) const {
    if (Recent.empty())
      return 0;
    std::vector<double> Copy = Recent;
    double Rank = P / 100.0 * static_cast<double>(Copy.size() - 1);
    size_t Idx = std::min(static_cast<size_t>(Rank + 0.5), Copy.size() - 1);
    std::nth_element(Copy.begin(), Copy.begin() + Idx, Copy.end());
    return Copy[Idx];
  }

private:
  std::vector<double> Recent;
  size_t Count = 0;
  double Sum = 0;
  double Min = 0;
};

/// Everything the service measured over one run.
struct ServiceMetrics {
  unsigned long long Jobs = 0;      ///< Requests processed (incl. failed).
  unsigned long long Failed = 0;    ///< Requests whose result has errors.
  unsigned long long CacheHits = 0; ///< In-memory LRU hits.
  unsigned long long CacheMisses = 0;
  /// Persistent-layer hits (miss in memory, valid entry on disk).
  /// Always zero when no disk cache is configured.
  unsigned long long DiskHits = 0;
  /// Jobs answered `cancelled` because shutdown was requested before
  /// they started (ServiceConfig::Stop).
  unsigned long long Cancelled = 0;
  double WallMicros = 0; ///< Batch wall time (submit to drain).

  LatencyStats JobLatency; ///< Whole-job latency (hits and misses).
  /// Per-stage latency, misses only (hits run no stages).
  LatencyStats StageLatency[NumPipelineStages];

  /// Per-stage stage-cache hits and misses (service/StageCache.h
  /// order: parse, cfg, interval, solve, annotate). All zero when no
  /// job compiled through a stage cache — only requests that miss the
  /// result cache probe the stages.
  unsigned long long StageHits[NumCacheStages] = {};
  unsigned long long StageMisses[NumCacheStages] = {};

  /// Incremental solver counters aggregated over every solve slot
  /// (dataflow/Incremental.h). All zero unless a request asked for
  /// incremental solving.
  GntIncrementalStats Incremental;

  /// Hits / (hits + misses) for one cached stage; 0 when never probed.
  double stageHitRate(unsigned Stage) const {
    unsigned long long Probes = StageHits[Stage] + StageMisses[Stage];
    return Probes ? static_cast<double>(StageHits[Stage]) /
                        static_cast<double>(Probes)
                  : 0;
  }

  double throughputJobsPerSec() const {
    return WallMicros > 0
               ? static_cast<double>(Jobs) / (WallMicros / 1e6)
               : 0;
  }

  double cacheHitRate() const {
    unsigned long long Lookups = CacheHits + CacheMisses;
    return Lookups ? static_cast<double>(CacheHits) /
                         static_cast<double>(Lookups)
                   : 0;
  }

  /// Human-readable multi-line summary.
  std::string renderText() const {
    char Buf[256];
    std::string R;
    std::snprintf(Buf, sizeof(Buf),
                  "jobs: %llu (%llu failed)  wall: %.1f ms  "
                  "throughput: %.1f jobs/s\n",
                  Jobs, Failed, WallMicros / 1e3, throughputJobsPerSec());
    R += Buf;
    std::snprintf(Buf, sizeof(Buf),
                  "cache: %llu hits / %llu misses (%.1f%% hit rate)\n",
                  CacheHits, CacheMisses, cacheHitRate() * 100.0);
    R += Buf;
    // Conditional lines: runs without a disk cache or a shutdown signal
    // render byte-identically to the pre-persistence format.
    if (DiskHits) {
      std::snprintf(Buf, sizeof(Buf), "disk cache: %llu hits\n", DiskHits);
      R += Buf;
    }
    if (Cancelled) {
      std::snprintf(Buf, sizeof(Buf), "cancelled: %llu jobs\n", Cancelled);
      R += Buf;
    }
    // Stage cache and incremental blocks share the conditional idiom:
    // a server that never compiled through a stage cache (or never
    // solved incrementally) renders byte-identically to the old format.
    bool AnyStage = false;
    for (unsigned I = 0; I < NumCacheStages; ++I)
      AnyStage = AnyStage || StageHits[I] || StageMisses[I];
    if (AnyStage) {
      R += "stage cache:\n";
      for (unsigned I = 0; I < NumCacheStages; ++I) {
        if (!StageHits[I] && !StageMisses[I])
          continue;
        std::snprintf(Buf, sizeof(Buf),
                      "  %-9s %llu hits / %llu misses (%.1f%% hit rate)\n",
                      cacheStageName(static_cast<CacheStage>(I)),
                      StageHits[I], StageMisses[I],
                      stageHitRate(I) * 100.0);
        R += Buf;
      }
    }
    if (Incremental.any()) {
      std::snprintf(Buf, sizeof(Buf),
                    "incremental: %llu full / %llu partial / %llu memo "
                    "hits\n",
                    Incremental.FullSolves, Incremental.PartialSolves,
                    Incremental.MemoHits);
      R += Buf;
      if (Incremental.PartialSolves) {
        std::snprintf(Buf, sizeof(Buf),
                      "  re-solved %llu/%llu intervals (%llu/%llu "
                      "nodes)\n",
                      Incremental.IntervalsResolved,
                      Incremental.IntervalsTotal,
                      Incremental.NodesResolved, Incremental.NodesTotal);
        R += Buf;
      }
    }
    auto Line = [&R, &Buf](const char *Name, const LatencyStats &L) {
      if (L.empty())
        return;
      std::snprintf(Buf, sizeof(Buf),
                    "  %-9s min %8.1fus  mean %8.1fus  p50 %8.1fus  "
                    "p99 %8.1fus  (n=%zu)\n",
                    Name, L.min(), L.mean(), L.percentile(50),
                    L.percentile(99), L.count());
      R += Buf;
    };
    R += "latency:\n";
    Line("job", JobLatency);
    for (unsigned I = 0; I < NumPipelineStages; ++I)
      Line(pipelineStageName(static_cast<PipelineStage>(I)),
           StageLatency[I]);
    return R;
  }

  /// Machine-readable rendering with the same content.
  std::string renderJson() const {
    JsonWriter W;
    W.beginObject();
    W.key("jobs").value(static_cast<long long>(Jobs));
    W.key("failed").value(static_cast<long long>(Failed));
    W.key("wall_micros").value(static_cast<long long>(WallMicros));
    W.key("throughput_jobs_per_sec");
    jsonDouble(W, throughputJobsPerSec());
    W.key("cache");
    W.beginObject();
    W.key("hits").value(static_cast<long long>(CacheHits));
    W.key("misses").value(static_cast<long long>(CacheMisses));
    W.key("hit_rate");
    jsonDouble(W, cacheHitRate());
    // Emitted only when nonzero, like the text rendering, so stdio-mode
    // metrics JSON stays byte-compatible with the pre-net format.
    if (DiskHits)
      W.key("disk_hits").value(static_cast<long long>(DiskHits));
    W.endObject();
    if (Cancelled)
      W.key("cancelled").value(static_cast<long long>(Cancelled));
    // Conditional like the text rendering: absent unless some job
    // compiled through a stage cache / solved incrementally.
    bool AnyStage = false;
    for (unsigned I = 0; I < NumCacheStages; ++I)
      AnyStage = AnyStage || StageHits[I] || StageMisses[I];
    if (AnyStage) {
      W.key("stage_cache");
      W.beginObject();
      for (unsigned I = 0; I < NumCacheStages; ++I) {
        W.key(cacheStageName(static_cast<CacheStage>(I)));
        W.beginObject();
        W.key("hits").value(static_cast<long long>(StageHits[I]));
        W.key("misses").value(static_cast<long long>(StageMisses[I]));
        W.key("hit_rate");
        jsonDouble(W, stageHitRate(I));
        W.endObject();
      }
      W.endObject();
    }
    if (Incremental.any()) {
      W.key("incremental");
      W.beginObject();
      W.key("full_solves")
          .value(static_cast<long long>(Incremental.FullSolves));
      W.key("partial_solves")
          .value(static_cast<long long>(Incremental.PartialSolves));
      W.key("memo_hits").value(static_cast<long long>(Incremental.MemoHits));
      W.key("intervals_resolved")
          .value(static_cast<long long>(Incremental.IntervalsResolved));
      W.key("intervals_total")
          .value(static_cast<long long>(Incremental.IntervalsTotal));
      W.key("nodes_resolved")
          .value(static_cast<long long>(Incremental.NodesResolved));
      W.key("nodes_total")
          .value(static_cast<long long>(Incremental.NodesTotal));
      W.endObject();
    }
    W.key("latency_micros");
    W.beginObject();
    emitLatency(W, "job", JobLatency);
    for (unsigned I = 0; I < NumPipelineStages; ++I)
      emitLatency(W, pipelineStageName(static_cast<PipelineStage>(I)),
                  StageLatency[I]);
    W.endObject();
    W.endObject();
    return W.str();
  }

private:
  /// JsonWriter has no double overload (the diagnostics vocabulary is
  /// integral); render with fixed precision so output is stable.
  static void jsonDouble(JsonWriter &W, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.3f", V);
    W.raw(Buf);
  }

  static void emitLatency(JsonWriter &W, const char *Name,
                          const LatencyStats &L) {
    if (L.empty())
      return;
    W.key(Name);
    W.beginObject();
    W.key("count").value(static_cast<long long>(L.count()));
    W.key("min");
    jsonDouble(W, L.min());
    W.key("mean");
    jsonDouble(W, L.mean());
    W.key("p50");
    jsonDouble(W, L.percentile(50));
    W.key("p99");
    jsonDouble(W, L.percentile(99));
    W.endObject();
  }
};

} // namespace gnt

#endif // GNT_SERVICE_METRICS_H
