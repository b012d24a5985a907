// End-to-end tracing and metrics through the engine: a traced request must
// produce a well-formed span tree (every span parented inside the trace),
// the legacy phase_observer must keep firing alongside the tracer, the
// engine sink wrapper must measure first_result_seconds for every
// algorithm, and a sharded cancelled request must still export a coherent
// tree — the hardest case, since its spans come from many worker threads
// that stopped at different phases.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/distributions.h"
#include "engine/engine.h"
#include "engine/sharded_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"

namespace touch {
namespace {

struct TraceView {
  std::vector<SpanRecord> records;
  std::set<uint64_t> span_ids;
  std::map<std::string, int> names;

  explicit TraceView(const Tracer& tracer) : records(tracer.Snapshot()) {
    for (const SpanRecord& record : records) {
      span_ids.insert(record.span_id);
      ++names[record.name];
    }
  }

  const SpanRecord* Find(const std::string& name) const {
    for (const SpanRecord& record : records) {
      if (record.name == name) return &record;
    }
    return nullptr;
  }
};

/// Every record belongs to `trace_id` and parents onto a present span (or
/// is a root). This is the "well-formed span tree" acceptance predicate.
void ExpectWellFormed(const TraceView& view, uint64_t trace_id) {
  ASSERT_FALSE(view.records.empty());
  for (const SpanRecord& record : view.records) {
    EXPECT_EQ(record.trace_id, trace_id) << record.name;
    if (record.parent_id != 0) {
      EXPECT_TRUE(view.span_ids.count(record.parent_id))
          << record.name << " parents onto an absent span";
    }
  }
}

class EngineTraceTest : public ::testing::Test {
 protected:
  EngineOptions TracedOptions() {
    EngineOptions options;
    options.tracer = tracer_;
    options.metrics = metrics_;
    return options;
  }

  std::shared_ptr<Tracer> tracer_ = std::make_shared<Tracer>();
  std::shared_ptr<MetricsRegistry> metrics_ =
      std::make_shared<MetricsRegistry>();
  Dataset small_ = GenerateSynthetic(Distribution::kClustered, 4000, 61);
  Dataset large_ = GenerateSynthetic(Distribution::kClustered, 8000, 62);
};

TEST_F(EngineTraceTest, TracedRequestProducesARootedPhaseSpanTree) {
  QueryEngine engine(TracedOptions());
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);
  CountingCollector out;
  const JoinResult result = engine.Execute({a, b, 2.0f}, out);
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_NE(result.trace_id, 0u);

  const TraceView view(*tracer_);
  ExpectWellFormed(view, result.trace_id);
  const SpanRecord* root = view.Find("request");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  // The root span carries the outcome.
  const auto has_attr = [&](const std::string& key, const std::string& val) {
    return std::find(root->attrs.begin(), root->attrs.end(),
                     SpanAttr{key, val}) != root->attrs.end();
  };
  EXPECT_TRUE(has_attr("status", "ok"));
  EXPECT_TRUE(has_attr("algorithm", result.plan.algorithm));

  // Lifecycle spans all hang off the root; phases appear as instants.
  for (const std::string name : {"queue-wait", "plan", "execute"}) {
    const SpanRecord* span = view.Find(name);
    ASSERT_NE(span, nullptr) << name;
    EXPECT_EQ(span->parent_id, root->span_id) << name;
  }
  EXPECT_GE(view.names.count("phase:planning") +
                view.names.count("phase:executing"),
            1u);
}

// The TOUCH build, assignment and local join report how many other pool
// workers ran their fork-join chunks: none on a 1-worker pool, at most the
// pool's other workers otherwise.
TEST_F(EngineTraceTest, TouchPhasesReportTheirHelpers) {
  const Dataset a_boxes =
      GenerateSynthetic(Distribution::kClustered, 30000, 63);
  const Dataset b_boxes =
      GenerateSynthetic(Distribution::kClustered, 50000, 64);
  for (const int threads : {1, 3}) {
    SCOPED_TRACE(threads);
    tracer_ = std::make_shared<Tracer>();
    EngineOptions options = TracedOptions();
    options.threads = threads;
    QueryEngine engine(options);
    const DatasetHandle a = engine.RegisterDataset("a", a_boxes);
    const DatasetHandle b = engine.RegisterDataset("b", b_boxes);
    CountingCollector out;
    const JoinResult result = engine.ExecuteFixed("touch", {a, b, 2.0f}, out);
    ASSERT_TRUE(result.ok()) << result.error;
    const TraceView view(*tracer_);
    for (const std::string name :
         {"build-index", "touch-assign", "touch-local-join"}) {
      const SpanRecord* span = view.Find(name);
      ASSERT_NE(span, nullptr) << name;
      const auto attr = std::find_if(
          span->attrs.begin(), span->attrs.end(),
          [](const SpanAttr& kv) { return kv.first == "helpers"; });
      ASSERT_NE(attr, span->attrs.end()) << name;
      const int helpers = std::stoi(attr->second);
      EXPECT_GE(helpers, 0) << name;
      EXPECT_LE(helpers, threads - 1) << name;
    }
    // The grid probe's (x, y) rows: every row visited, and those whose
    // cells held no probe object.
    const SpanRecord* local_join = view.Find("touch-local-join");
    std::map<std::string, std::string> attrs(local_join->attrs.begin(),
                                             local_join->attrs.end());
    ASSERT_TRUE(attrs.count("grid_rows"));
    ASSERT_TRUE(attrs.count("grid_rows_empty"));
    const uint64_t rows = std::stoull(attrs["grid_rows"]);
    EXPECT_GT(rows, 0u);
    EXPECT_LE(std::stoull(attrs["grid_rows_empty"]), rows);
  }
}

// The local-join span reports how much the grid replicated and probed: grid
// nodes, their cell placements and the rows probed, all independent of how
// many threads helped.
TEST_F(EngineTraceTest, TouchLocalJoinReportsGridReplication) {
  const Dataset a_boxes =
      GenerateSynthetic(Distribution::kClustered, 30000, 63);
  const Dataset b_boxes =
      GenerateSynthetic(Distribution::kClustered, 50000, 64);
  std::vector<std::map<std::string, std::string>> seen;
  for (const int threads : {1, 3}) {
    SCOPED_TRACE(threads);
    tracer_ = std::make_shared<Tracer>();
    EngineOptions options = TracedOptions();
    options.threads = threads;
    QueryEngine engine(options);
    const DatasetHandle a = engine.RegisterDataset("a", a_boxes);
    const DatasetHandle b = engine.RegisterDataset("b", b_boxes);
    CountingCollector out;
    const JoinResult result = engine.ExecuteFixed("touch", {a, b, 2.0f}, out);
    ASSERT_TRUE(result.ok()) << result.error;
    const TraceView view(*tracer_);
    const SpanRecord* span = view.Find("touch-local-join");
    ASSERT_NE(span, nullptr);
    std::map<std::string, std::string> attrs(span->attrs.begin(),
                                             span->attrs.end());
    ASSERT_TRUE(attrs.count("grid_nodes"));
    ASSERT_TRUE(attrs.count("grid_placements"));
    const uint64_t nodes = std::stoull(attrs["grid_nodes"]);
    const uint64_t placements = std::stoull(attrs["grid_placements"]);
    EXPECT_GT(nodes, 0u);
    EXPECT_GE(placements, nodes);
    attrs.erase("helpers");
    seen.push_back(attrs);
  }
  EXPECT_EQ(seen[0], seen[1]);
}

// A standing join's delta-probe span counts its partner-tree traversals:
// one for a short move (old and new windows overlap, their union is probed
// once), two for a far jump, one each for an insert and a delete. The
// subscription gauge and the probe-latency histogram follow along.
TEST_F(EngineTraceTest, DeltaProbeSpansCountTheirTreeTraversals) {
  QueryEngine engine(TracedOptions());
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);
  Gauge& subscriptions = metrics_->gauge("touch_subscriptions");
  EXPECT_EQ(subscriptions.Value(), 0.0);
  JoinRequest request{a, b, 2.0f};
  request.continuous = true;
  RequestHandle handle =
      engine.Submit(request, std::make_unique<ResultSink>());
  EXPECT_EQ(subscriptions.Value(), 1.0);

  const Box near = *engine.catalog().FindObject(a, 0);
  const Box far = *engine.catalog().FindObject(a, 1);
  const Vec3 nudge(0.5f, 0, 0);
  const Vec3 jump(500.0f, 0, 0);
  const std::vector<Mutation> batch = {
      {MutationKind::kUpdate, 0, Box(near.lo + nudge, near.hi + nudge)},
      {MutationKind::kUpdate, 1, Box(far.lo + jump, far.hi + jump)},
      {MutationKind::kInsert, kInvalidObjectId, MakeBox(1, 1, 1, 2, 2, 2)},
      {MutationKind::kDelete, 2, Box()},
  };
  engine.ApplyMutations(a, batch);

  const TraceView view(*tracer_);
  const SpanRecord* probe = view.Find("delta-probe");
  ASSERT_NE(probe, nullptr);
  const auto attr = [&](const std::string& key) -> std::string {
    for (const SpanAttr& kv : probe->attrs) {
      if (kv.first == key) return kv.second;
    }
    return "";
  };
  EXPECT_EQ(attr("probes"), "5");
  EXPECT_FALSE(attr("deltas").empty());
  EXPECT_EQ(metrics_->histogram("touch_delta_probe_seconds").Count(), 1u);

  handle.Cancel();
  EXPECT_EQ(subscriptions.Value(), 0.0);
  // A standing join cancelled before any batch leaves the gauge balanced
  // too, and a later batch (with no subscriber) observes no probe.
  RequestHandle second =
      engine.Submit(request, std::make_unique<ResultSink>());
  EXPECT_EQ(subscriptions.Value(), 1.0);
  second.Cancel();
  EXPECT_EQ(subscriptions.Value(), 0.0);
  engine.ApplyMutations(a, std::vector<Mutation>{batch[0]});
  EXPECT_EQ(metrics_->histogram("touch_delta_probe_seconds").Count(), 1u);
}

TEST_F(EngineTraceTest, PhaseObserverStillFiresAlongsideTheTracer) {
  // EngineOptions::phase_observer is now an adapter over the same phase
  // transitions the tracer records; both must see every transition.
  std::atomic<int> observed{0};
  EngineOptions options = TracedOptions();
  options.phase_observer = [&observed](RequestPhase) { ++observed; };
  QueryEngine engine(options);
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  CountingCollector out;
  ASSERT_TRUE(engine.Execute({a, a, 1.0f}, out).ok());
  const TraceView view(*tracer_);
  int phase_instants = 0;
  for (const auto& [name, count] : view.names) {
    if (name.rfind("phase:", 0) == 0) phase_instants += count;
  }
  EXPECT_GT(observed.load(), 0);
  EXPECT_EQ(phase_instants, observed.load());
}

TEST_F(EngineTraceTest, FirstResultSecondsIsMeasuredForEveryAlgorithm) {
  // The engine's sink wrapper measures time-to-first-result for every
  // algorithm; no algorithm reports it itself.
  QueryEngine engine(TracedOptions());
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);
  for (const std::string name : {"touch", "inl", "ps", "pbsm-100"}) {
    CountingCollector out;
    const JoinResult result = engine.ExecuteFixed(name, {a, b, 2.0f}, out);
    ASSERT_TRUE(result.ok()) << name << ": " << result.error;
    ASSERT_GT(result.stats.results, 0u) << name;
    EXPECT_GT(result.stats.first_result_seconds, 0.0) << name;
    EXPECT_LE(result.stats.first_result_seconds, result.stats.total_seconds)
        << name;
  }
  // Each run fed the time-to-first-result histogram.
  EXPECT_EQ(engine.metrics()
                .histogram("touch_engine_first_result_seconds")
                .Count(),
            4u);
}

TEST_F(EngineTraceTest, EngineRunPopulatesTheMetricCatalog) {
  QueryEngine engine(TracedOptions());
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  CountingCollector out;
  ASSERT_TRUE(engine.Execute({a, a, 1.0f}, out).ok());
  MetricsRegistry& metrics = engine.metrics();
  EXPECT_EQ(&metrics, metrics_.get());
  EXPECT_EQ(
      metrics.counter("touch_engine_requests_total{status=\"ok\"}").Value(),
      1u);
  EXPECT_EQ(metrics.histogram("touch_engine_queue_wait_seconds").Count(), 1u);
  EXPECT_EQ(metrics.histogram("touch_engine_plan_seconds").Count(), 1u);
  EXPECT_EQ(metrics.histogram("touch_engine_execute_seconds").Count(), 1u);
  // Engine + cache + pool providers: the scrape surface the acceptance
  // criteria count ("at least 12 distinct metrics").
  EXPECT_GE(metrics.FamilyCount(), 12u);
}

TEST_F(EngineTraceTest, ShardedCancelledRequestYieldsWellFormedSpanTree) {
  EngineOptions options = TracedOptions();
  options.shards = 4;
  options.threads = 2;
  // Park every claimed pair at its kPlanning transition so the cancel
  // deterministically lands while pairs are mid-flight on worker threads.
  std::atomic<int> entered{0};
  std::atomic<bool> released{false};
  options.phase_observer = [&](RequestPhase phase) {
    if (phase != RequestPhase::kPlanning) return;
    entered.fetch_add(1);
    while (!released.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  ShardedQueryEngine engine(options);
  const DatasetHandle ha = engine.RegisterDataset("A", small_);
  const DatasetHandle hb = engine.RegisterDataset("B", large_);

  ShardedRequestHandle handle = engine.Submit({ha, hb, 2.0f});
  ASSERT_GT(handle.pair_count(), 0u);
  while (entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(handle.Cancel());
  released.store(true);
  const ShardedJoinResult result = handle.Get();
  EXPECT_EQ(result.merged.status, RequestStatus::kCancelled);
  ASSERT_NE(result.merged.trace_id, 0u);

  // One trace spans the sharded root, the scatter/gather phases, and every
  // per-pair engine request — including the cancellation instants — with
  // no orphan parents even though the pairs died mid-phase.
  const TraceView view(*tracer_);
  ExpectWellFormed(view, result.merged.trace_id);
  const SpanRecord* root = view.Find("sharded-request");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  const SpanRecord* scatter = view.Find("scatter");
  ASSERT_NE(scatter, nullptr);
  EXPECT_EQ(scatter->parent_id, root->span_id);
  const SpanRecord* gather = view.Find("gather");
  ASSERT_NE(gather, nullptr);
  EXPECT_EQ(gather->parent_id, root->span_id);
  // Every shard-pair request span parents onto the sharded root.
  ASSERT_EQ(view.names.at("request"), static_cast<int>(handle.pair_count()));
  for (const SpanRecord& record : view.records) {
    if (record.name == "request") {
      EXPECT_EQ(record.parent_id, root->span_id);
    }
  }
  EXPECT_GE(view.names.count("cancel-requested") +
                view.names.count("cancelled"),
            1u);
  // The cancellation also landed in the metric catalog.
  EXPECT_GE(metrics_
                ->counter("touch_engine_requests_total{status=\"cancelled\"}")
                .Value(),
            1u);
  EXPECT_EQ(metrics_->counter("touch_sharded_requests_total").Value(), 1u);
}

TEST_F(EngineTraceTest, ShardedOkRequestCoversPlanBuildExecuteGather) {
  EngineOptions options = TracedOptions();
  options.shards = 2;
  ShardedQueryEngine engine(options);
  const DatasetHandle ha = engine.RegisterDataset("A", small_);
  const DatasetHandle hb = engine.RegisterDataset("B", large_);
  CountingCollector out;
  const ShardedJoinResult result = engine.Execute({ha, hb, 2.0f}, out);
  ASSERT_TRUE(result.merged.ok()) << result.merged.error;
  const TraceView view(*tracer_);
  ExpectWellFormed(view, result.merged.trace_id);
  for (const std::string name :
       {"sharded-request", "scatter", "plan", "execute", "gather"}) {
    EXPECT_TRUE(view.names.count(name)) << name << " missing from trace";
  }
  EXPECT_GE(metrics_->counter("touch_sharded_pairs_executed_total").Value(),
            1u);
}

TEST_F(EngineTraceTest, ShardedRequestExportsFlushAndPairSkewMetrics) {
  EngineOptions options = TracedOptions();
  options.shards = 2;
  ShardedQueryEngine engine(options);
  const DatasetHandle ha = engine.RegisterDataset("A", small_);
  const DatasetHandle hb = engine.RegisterDataset("B", large_);
  CountingCollector out;
  const ShardedJoinResult result = engine.Execute({ha, hb, 2.0f}, out);
  ASSERT_TRUE(result.merged.ok()) << result.merged.error;
  ASSERT_GT(result.merged.stats.results, 0u);

  std::ostringstream scrape;
  metrics_->ExportPrometheus(scrape);
  for (const std::string family :
       {"touch_sharded_sink_flush_seconds", "touch_sharded_pair_skew"}) {
    EXPECT_NE(scrape.str().find("# TYPE " + family + " histogram"),
              std::string::npos)
        << family << " missing from the scrape";
  }
  // One skew observation per sharded request: slowest pair over the mean.
  Histogram& skew = metrics_->histogram("touch_sharded_pair_skew");
  EXPECT_EQ(skew.Count(), 1u);
  EXPECT_GE(skew.Sum(), 1.0);

  // One flush observation per forwarded batch, never one per pair: at most
  // one full batch per 1024 results plus one completion flush per pair.
  const TraceView view(*tracer_);
  const SpanRecord* gather = view.Find("gather");
  ASSERT_NE(gather, nullptr);
  std::string flushes_attr;
  for (const SpanAttr& attr : gather->attrs) {
    if (attr.first == "flushes") flushes_attr = attr.second;
  }
  ASSERT_FALSE(flushes_attr.empty()) << "gather span lacks a flushes attr";
  const uint64_t flushes = std::stoull(flushes_attr);
  EXPECT_GE(flushes, 1u);
  EXPECT_LE(flushes,
            result.merged.stats.results / 1024 + result.pairs.size());
  EXPECT_EQ(
      metrics_->histogram("touch_sharded_sink_flush_seconds").Count(),
      flushes);
}

TEST_F(EngineTraceTest, UntracedEngineStillSetsFirstResultAndMetrics) {
  // tracer == nullptr must not disable the sink wrapper or the registry.
  EngineOptions options;
  options.metrics = metrics_;
  QueryEngine engine(options);
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  CountingCollector out;
  const JoinResult result = engine.Execute({a, a, 1.0f}, out);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.trace_id, 0u);  // no tracer, no trace
  EXPECT_GT(result.stats.first_result_seconds, 0.0);
  EXPECT_EQ(
      metrics_->counter("touch_engine_requests_total{status=\"ok\"}").Value(),
      1u);
}

}  // namespace
}  // namespace touch
