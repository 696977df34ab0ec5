//===- service/Metrics.cpp - gntd counters and the metric table -------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Metrics.h"

#include "service/DiskCache.h"
#include "support/Json.h"

#include <cstdio>

using namespace gnt;

namespace {

/// Counters render as plain integers, anything else with six decimals;
/// both are valid JSON numbers.
std::string formatValue(double Value) {
  char Buf[64];
  if (Value == static_cast<double>(static_cast<long long>(Value)))
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(Value));
  else
    std::snprintf(Buf, sizeof(Buf), "%.6f", Value);
  return Buf;
}

std::string label(const char *Key, const char *Value) {
  return std::string("{") + Key + "=\"" + Value + "\"}";
}

struct TableBuilder {
  MetricTable T;

  /// Starts a family; sample() appends to the newest one.
  void family(const char *Name, const char *Help, const char *Type) {
    T.push_back({Name, Help, Type, {}});
  }

  /// The series is the family name followed by \p Suffix: labels, or
  /// `_sum`/`_count` and labels.
  void sample(const std::string &Suffix, double Value) {
    T.back().Samples.push_back({T.back().Name + Suffix, Value});
  }

  void counter(const char *Name, const char *Help, double Value) {
    family(Name, Help, "counter");
    sample("", Value);
  }

  void gauge(const char *Name, const char *Help, double Value) {
    family(Name, Help, "gauge");
    sample("", Value);
  }

  /// Quantile, _sum and _count samples of \p L for the newest (summary)
  /// family, labelled with \p Stage unless it is empty.
  void summary(const char *Stage, const LatencyStats &L) {
    if (L.empty())
      return;
    std::string Prefix =
        Stage[0] ? std::string("stage=\"") + Stage + "\"," : "";
    for (auto [Q, P] : {std::pair{"0.5", 50.0}, {"0.99", 99.0},
                        {"0.999", 99.9}})
      sample("{" + Prefix + "quantile=\"" + Q + "\"}", L.percentile(P));
    std::string Labels = Stage[0] ? label("stage", Stage) : "";
    sample("_sum" + Labels, L.sum());
    sample("_count" + Labels, L.count());
  }
};

} // namespace

MetricTable gnt::metricTable(const ServiceMetrics &Svc, const NetMetrics *Net,
                             const DiskCache *Disk) {
  TableBuilder B;

  if (Net) {
    // Connection and framing counters.
    B.counter("gntd_connections_accepted_total",
              "Connections accepted by the listener.",
              Net->ConnectionsAccepted.load());
    B.counter("gntd_connections_closed_total", "Connections closed.",
              Net->ConnectionsClosed.load());
    B.gauge("gntd_connections_active", "Currently open connections.",
            Net->ConnectionsActive.load());
    B.counter("gntd_frames_total", "Complete request frames received.",
              Net->Frames.load());
    B.counter("gntd_responses_total", "Response lines written.",
              Net->Responses.load());
    B.counter("gntd_http_requests_total", "HTTP GET probes served.",
              Net->HttpRequests.load());

    // Framing/protocol failures.
    B.counter("gntd_malformed_frames_total",
              "Frames rejected as malformed requests.", Net->Malformed.load());
    B.counter("gntd_oversized_frames_total",
              "Frames rejected for exceeding the size limit.",
              Net->Oversized.load());
    B.counter("gntd_truncated_frames_total",
              "Connections that ended mid-frame.", Net->Truncated.load());

    // Load discipline.
    B.family("gntd_shed_total",
             "Requests answered with a structured overloaded error.",
             "counter");
    B.sample(label("reason", "queue_full"), Net->ShedQueueFull.load());
    B.sample(label("reason", "quota"), Net->ShedQuota.load());
    B.sample(label("reason", "draining"), Net->ShedDraining.load());
    B.gauge("gntd_queue_depth", "Admitted jobs not yet completed.",
            Net->QueueDepth.load());
    B.gauge("gntd_queue_depth_peak", "High-water mark of the job queue.",
            Net->QueuePeak.load());
  }

  // Service-layer counters.
  B.counter("gntd_jobs_total", "Requests served by the pipeline service.",
            Svc.Jobs);
  B.counter("gntd_jobs_failed_total",
            "Requests whose result carries errors.", Svc.Failed);
  B.counter("gntd_jobs_cancelled_total",
            "Requests cancelled by shutdown before starting.",
            Svc.Cancelled);
  B.family("gntd_cache_hits_total", "Result cache hits by layer.",
           "counter");
  B.sample(label("layer", "memory"), Svc.CacheHits);
  B.sample(label("layer", "disk"), Svc.DiskHits);
  B.counter("gntd_cache_misses_total",
            "Requests that required a full compilation.", Svc.CacheMisses);

  // Stage cache: per-stage hit/miss counters for the content-addressed
  // pipeline stages (only result-cache misses probe them).
  auto StageSamples = [&B](const char *Name, const char *Help,
                           const std::uint64_t *Counters) {
    B.family(Name, Help, "counter");
    for (unsigned I = 0; I < NumCacheStages; ++I)
      B.sample(label("stage", cacheStageName(static_cast<CacheStage>(I))),
               Counters[I]);
  };
  StageSamples("gntd_stage_cache_hits_total",
               "Content-addressed stage cache hits by stage.",
               Svc.Stages.Hits);
  StageSamples("gntd_stage_cache_misses_total",
               "Content-addressed stage cache misses by stage.",
               Svc.Stages.Misses);

  // Incremental solver outcomes and re-solve granularity.
  const GntIncrementalStats &Inc = Svc.Stages.Inc;
  B.family("gntd_incremental_solves_total",
           "Incremental solver runs by outcome.", "counter");
  B.sample(label("outcome", "full"), Inc.FullSolves);
  B.sample(label("outcome", "partial"), Inc.PartialSolves);
  B.sample(label("outcome", "memo_hit"), Inc.MemoHits);
  B.counter("gntd_incremental_intervals_resolved_total",
            "Intervals re-solved by partial incremental solves.",
            Inc.IntervalsResolved);
  B.counter("gntd_incremental_intervals_seen_total",
            "Intervals examined by partial incremental solves.",
            Inc.IntervalsTotal);

  // Persistent cache internals.
  if (Disk) {
    const DiskCacheStats &S = Disk->stats();
    B.counter("gntd_disk_cache_writes_total",
              "Entries written to the persistent cache.", S.Writes.load());
    B.counter("gntd_disk_cache_corrupt_total",
              "Persistent entries discarded as corrupt or mismatched.",
              S.Corrupt.load());
    B.counter("gntd_disk_cache_evicted_total",
              "Persistent entries evicted for capacity.", S.Evicted.load());
    B.gauge("gntd_disk_cache_entries",
            "Entries currently in the persistent cache.", Disk->entries());
  }

  // Latency summaries (microseconds).
  B.family("gntd_job_latency_microseconds",
           "Whole-job service latency (hits and misses).", "summary");
  B.summary("", Svc.JobLatency);
  B.family("gntd_stage_latency_microseconds",
           "Per-pipeline-stage latency (cache misses only).", "summary");
  for (unsigned I = 0; I < NumPipelineStages; ++I)
    B.summary(pipelineStageName(static_cast<PipelineStage>(I)),
              Svc.StageLatency[I]);

  return B.T;
}

std::string gnt::renderPrometheus(const MetricTable &T) {
  std::string Out;
  for (const MetricFamily &F : T) {
    Out += "# HELP " + F.Name + ' ' + F.Help + "\n# TYPE " + F.Name + ' ' +
           F.Type + '\n';
    for (const MetricSample &S : F.Samples)
      Out += S.Series + ' ' + formatValue(S.Value) + '\n';
  }
  return Out;
}

std::string gnt::renderJson(const MetricTable &T) {
  JsonWriter W;
  W.beginObject();
  for (const MetricFamily &F : T)
    for (const MetricSample &S : F.Samples)
      W.key(S.Series).raw(formatValue(S.Value));
  W.endObject();
  return W.str();
}
