//===- service/Metrics.h - gntd counters and the metric table --*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything gntd counts, described once. ServiceMetrics (batch
/// service), NetMetrics (socket layer) and DiskCacheStats
/// (service/DiskCache.h) hold the counters; metricTable() turns a
/// snapshot of them into Prometheus families, which renderPrometheus()
/// writes for `GET /metrics` and gntd's shutdown block and renderJson()
/// writes for `--metrics-json`.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_SERVICE_METRICS_H
#define GNT_SERVICE_METRICS_H

#include "service/Pipeline.h"
#include "service/StageCache.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace gnt {

class DiskCache;

/// A latency sample set: exact count and sum from running totals, and
/// order statistics over a ring of the most recent samples, so memory
/// and snapshot cost stay constant for a server's lifetime.
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
    Sum += Micros;
    ++Count;
  }

  bool empty() const { return Count == 0; }
  size_t count() const { return Count; }
  double sum() const { return Sum; }
  /// Samples currently held for the quantiles (at most Window).
  size_t retained() const { return Recent.size(); }

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

  LatencyStats JobLatency; ///< Whole-job latency (hits and misses).
  /// Per-stage latency, misses only (hits run no stages).
  LatencyStats StageLatency[NumPipelineStages];

  /// Per-stage stage-cache hits and misses and the incremental solver
  /// totals. BatchServer::metricsSnapshot() assigns them; only requests
  /// that miss the result cache probe the stages.
  StageCacheStats Stages;
};

/// Monotonic counters and gauges for everything that happens below the
/// service layer: connections, frames, sheds, framing errors, queue
/// depth. All atomics — the event loop and the /metrics renderer touch
/// them concurrently without a lock. This struct covers only what the
/// stdio batch server never sees.
struct NetMetrics {
  using Counter = std::atomic<std::uint64_t>;

  Counter ConnectionsAccepted{0};
  Counter ConnectionsClosed{0};
  Counter ConnectionsActive{0}; ///< Gauge.

  Counter Frames{0};    ///< Complete request frames received.
  Counter Responses{0}; ///< Response lines queued for write.

  Counter Malformed{0}; ///< Frames that were not a valid request.
  Counter Oversized{0}; ///< Frames over the size limit (conn closed).
  Counter Truncated{0}; ///< EOF with an unterminated partial frame.

  Counter ShedQueueFull{0}; ///< Admission refused: pending queue full.
  Counter ShedQuota{0};     ///< Admission refused: tenant out of tokens.
  Counter ShedDraining{0};  ///< Admission refused: server draining.

  Counter HttpRequests{0}; ///< GET probes served (any path).

  Counter QueueDepth{0}; ///< Gauge: admitted jobs not yet completed.
  Counter QueuePeak{0};  ///< High-water mark of QueueDepth.

  /// Raises QueuePeak to at least \p Depth.
  void notePeak(std::uint64_t Depth) {
    std::uint64_t Peak = QueuePeak.load(std::memory_order_relaxed);
    while (Depth > Peak &&
           !QueuePeak.compare_exchange_weak(Peak, Depth,
                                            std::memory_order_relaxed)) {
    }
  }
};

/// One sample: the series (metric name plus labels, as the exposition
/// writes it) and its value.
struct MetricSample {
  std::string Series;
  double Value;
};

/// One Prometheus metric family. A summary family with no recorded
/// latency has a header and no samples.
struct MetricFamily {
  std::string Name;
  const char *Help;
  const char *Type; ///< "counter", "gauge" or "summary".
  std::vector<MetricSample> Samples;
};

using MetricTable = std::vector<MetricFamily>;

/// Every gntd series in exposition order: socket counters (when \p Net
/// is non-null), service job, cache, stage-cache and incremental
/// counters, the persistent cache's counters (when \p Disk is
/// non-null), then the whole-job and per-stage latency summaries
/// (p50/p99/p999 plus _sum and _count, microseconds).
MetricTable metricTable(const ServiceMetrics &Svc, const NetMetrics *Net,
                        const DiskCache *Disk);

/// Prometheus text exposition (version 0.0.4) of \p T.
std::string renderPrometheus(const MetricTable &T);

/// One flat JSON object, `{"<series>": value, ...}`, with the
/// exposition's series and values in the same order.
std::string renderJson(const MetricTable &T);

} // namespace gnt

#endif // GNT_SERVICE_METRICS_H
