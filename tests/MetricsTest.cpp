//===- tests/MetricsTest.cpp - The gntd metric table -------------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// gntd describes every series once (metricTable) and renders the table
// twice: the Prometheus exposition that GET /metrics and the shutdown
// block print, and the flat JSON object of --metrics-json. The
// exposition of a fixed snapshot with every counter distinct is pinned
// byte for byte, and the JSON must carry exactly the exposition's
// series and values, in the same order.
//
//===----------------------------------------------------------------------===//

#include "service/DiskCache.h"
#include "service/Metrics.h"
#include "support/Json.h"
#include "support/JsonParse.h"

#include "TestUtil.h"

#include "gtest/gtest.h"

#include <sstream>
#include <string>

using namespace gnt;

namespace {

/// Distinct service, stage-cache, incremental and socket counters, a
/// disk cache with three writes and one eviction, and the job latency
/// plus two stage latency summaries.
struct Snapshot {
  test::TempDir Tmp;
  DiskCache Disk{Tmp.Path, /*MaxEntries=*/2};
  ServiceMetrics Svc;
  NetMetrics Net;

  Snapshot() {
    std::string Error;
    EXPECT_TRUE(Disk.open(Error)) << Error;
    for (std::uint64_t Key : {1, 2, 3})
      Disk.insert(Key, "payload");

    Svc.Jobs = 101;
    Svc.Failed = 102;
    Svc.Cancelled = 103;
    Svc.CacheHits = 104;
    Svc.DiskHits = 105;
    Svc.CacheMisses = 106;
    for (unsigned I = 0; I < NumCacheStages; ++I) {
      Svc.Stages.Hits[I] = 111 + I;
      Svc.Stages.Misses[I] = 121 + I;
    }
    Svc.Stages.Inc = {.FullSolves = 131, .MemoHits = 133,
                      .PartialSolves = 132, .NodesTotal = 137,
                      .NodesResolved = 136, .IntervalsTotal = 135,
                      .IntervalsResolved = 134};
    for (double V : {250.5, 100.25, 400.75, 300.0})
      Svc.JobLatency.record(V);
    for (double V : {20.5, 30.25})
      Svc.StageLatency[static_cast<unsigned>(PipelineStage::Frontend)]
          .record(V);
    for (double V : {500.125, 700.0})
      Svc.StageLatency[static_cast<unsigned>(PipelineStage::Solve)].record(V);

    NetMetrics::Counter *Counters[] = {
        &Net.ConnectionsAccepted, &Net.ConnectionsClosed,
        &Net.ConnectionsActive,   &Net.Frames,
        &Net.Responses,           &Net.HttpRequests,
        &Net.Malformed,           &Net.Oversized,
        &Net.Truncated,           &Net.ShedQueueFull,
        &Net.ShedQuota,           &Net.ShedDraining,
        &Net.QueueDepth,          &Net.QueuePeak};
    std::uint64_t Value = 1;
    for (NetMetrics::Counter *C : Counters)
      C->store(Value++);
  }

  MetricTable table() const { return metricTable(Svc, &Net, &Disk); }
};

/// The exposition the socket renderer produced for the snapshot above
/// before the metric table replaced it.
const char *const PinnedExposition = R"exp(# HELP gntd_connections_accepted_total Connections accepted by the listener.
# TYPE gntd_connections_accepted_total counter
gntd_connections_accepted_total 1
# HELP gntd_connections_closed_total Connections closed.
# TYPE gntd_connections_closed_total counter
gntd_connections_closed_total 2
# HELP gntd_connections_active Currently open connections.
# TYPE gntd_connections_active gauge
gntd_connections_active 3
# HELP gntd_frames_total Complete request frames received.
# TYPE gntd_frames_total counter
gntd_frames_total 4
# HELP gntd_responses_total Response lines written.
# TYPE gntd_responses_total counter
gntd_responses_total 5
# HELP gntd_http_requests_total HTTP GET probes served.
# TYPE gntd_http_requests_total counter
gntd_http_requests_total 6
# HELP gntd_malformed_frames_total Frames rejected as malformed requests.
# TYPE gntd_malformed_frames_total counter
gntd_malformed_frames_total 7
# HELP gntd_oversized_frames_total Frames rejected for exceeding the size limit.
# TYPE gntd_oversized_frames_total counter
gntd_oversized_frames_total 8
# HELP gntd_truncated_frames_total Connections that ended mid-frame.
# TYPE gntd_truncated_frames_total counter
gntd_truncated_frames_total 9
# HELP gntd_shed_total Requests answered with a structured overloaded error.
# TYPE gntd_shed_total counter
gntd_shed_total{reason="queue_full"} 10
gntd_shed_total{reason="quota"} 11
gntd_shed_total{reason="draining"} 12
# HELP gntd_queue_depth Admitted jobs not yet completed.
# TYPE gntd_queue_depth gauge
gntd_queue_depth 13
# HELP gntd_queue_depth_peak High-water mark of the job queue.
# TYPE gntd_queue_depth_peak gauge
gntd_queue_depth_peak 14
# HELP gntd_jobs_total Requests served by the pipeline service.
# TYPE gntd_jobs_total counter
gntd_jobs_total 101
# HELP gntd_jobs_failed_total Requests whose result carries errors.
# TYPE gntd_jobs_failed_total counter
gntd_jobs_failed_total 102
# HELP gntd_jobs_cancelled_total Requests cancelled by shutdown before starting.
# TYPE gntd_jobs_cancelled_total counter
gntd_jobs_cancelled_total 103
# HELP gntd_cache_hits_total Result cache hits by layer.
# TYPE gntd_cache_hits_total counter
gntd_cache_hits_total{layer="memory"} 104
gntd_cache_hits_total{layer="disk"} 105
# HELP gntd_cache_misses_total Requests that required a full compilation.
# TYPE gntd_cache_misses_total counter
gntd_cache_misses_total 106
# HELP gntd_stage_cache_hits_total Content-addressed stage cache hits by stage.
# TYPE gntd_stage_cache_hits_total counter
gntd_stage_cache_hits_total{stage="parse"} 111
gntd_stage_cache_hits_total{stage="cfg"} 112
gntd_stage_cache_hits_total{stage="interval"} 113
gntd_stage_cache_hits_total{stage="solve"} 114
gntd_stage_cache_hits_total{stage="annotate"} 115
# HELP gntd_stage_cache_misses_total Content-addressed stage cache misses by stage.
# TYPE gntd_stage_cache_misses_total counter
gntd_stage_cache_misses_total{stage="parse"} 121
gntd_stage_cache_misses_total{stage="cfg"} 122
gntd_stage_cache_misses_total{stage="interval"} 123
gntd_stage_cache_misses_total{stage="solve"} 124
gntd_stage_cache_misses_total{stage="annotate"} 125
# HELP gntd_incremental_solves_total Incremental solver runs by outcome.
# TYPE gntd_incremental_solves_total counter
gntd_incremental_solves_total{outcome="full"} 131
gntd_incremental_solves_total{outcome="partial"} 132
gntd_incremental_solves_total{outcome="memo_hit"} 133
# HELP gntd_incremental_intervals_resolved_total Intervals re-solved by partial incremental solves.
# TYPE gntd_incremental_intervals_resolved_total counter
gntd_incremental_intervals_resolved_total 134
# HELP gntd_incremental_intervals_seen_total Intervals examined by partial incremental solves.
# TYPE gntd_incremental_intervals_seen_total counter
gntd_incremental_intervals_seen_total 135
# HELP gntd_disk_cache_writes_total Entries written to the persistent cache.
# TYPE gntd_disk_cache_writes_total counter
gntd_disk_cache_writes_total 3
# HELP gntd_disk_cache_corrupt_total Persistent entries discarded as corrupt or mismatched.
# TYPE gntd_disk_cache_corrupt_total counter
gntd_disk_cache_corrupt_total 0
# HELP gntd_disk_cache_evicted_total Persistent entries evicted for capacity.
# TYPE gntd_disk_cache_evicted_total counter
gntd_disk_cache_evicted_total 1
# HELP gntd_disk_cache_entries Entries currently in the persistent cache.
# TYPE gntd_disk_cache_entries gauge
gntd_disk_cache_entries 2
# HELP gntd_job_latency_microseconds Whole-job service latency (hits and misses).
# TYPE gntd_job_latency_microseconds summary
gntd_job_latency_microseconds{quantile="0.5"} 300
gntd_job_latency_microseconds{quantile="0.99"} 400.750000
gntd_job_latency_microseconds{quantile="0.999"} 400.750000
gntd_job_latency_microseconds_sum 1051.500000
gntd_job_latency_microseconds_count 4
# HELP gntd_stage_latency_microseconds Per-pipeline-stage latency (cache misses only).
# TYPE gntd_stage_latency_microseconds summary
gntd_stage_latency_microseconds{stage="frontend",quantile="0.5"} 30.250000
gntd_stage_latency_microseconds{stage="frontend",quantile="0.99"} 30.250000
gntd_stage_latency_microseconds{stage="frontend",quantile="0.999"} 30.250000
gntd_stage_latency_microseconds_sum{stage="frontend"} 50.750000
gntd_stage_latency_microseconds_count{stage="frontend"} 2
gntd_stage_latency_microseconds{stage="solve",quantile="0.5"} 700
gntd_stage_latency_microseconds{stage="solve",quantile="0.99"} 700
gntd_stage_latency_microseconds{stage="solve",quantile="0.999"} 700
gntd_stage_latency_microseconds_sum{stage="solve"} 1200.125000
gntd_stage_latency_microseconds_count{stage="solve"} 2
)exp";

TEST(Metrics, ExpositionIsPinned) {
  EXPECT_EQ(renderPrometheus(Snapshot().table()), PinnedExposition);
}

TEST(Metrics, JsonCarriesTheExpositionSeries) {
  MetricTable T = Snapshot().table();
  // The exposition's sample lines, as `"series":value` members in order.
  std::istringstream Exposition(renderPrometheus(T));
  std::string Expected, Line;
  while (std::getline(Exposition, Line)) {
    if (Line[0] == '#')
      continue;
    size_t Space = Line.rfind(' ');
    Expected += Expected.empty() ? "{" : ",";
    Expected += "\"" + jsonEscape(Line.substr(0, Space)) +
                "\":" + Line.substr(Space + 1);
  }
  std::string Json = renderJson(T);
  EXPECT_EQ(Json, Expected + "}");
  JsonParseResult P = parseJson(Json);
  ASSERT_TRUE(P.success()) << P.Error;
  EXPECT_EQ(P.Value.Fields.size(), 54u); // Every series is its own key.
}

} // namespace
