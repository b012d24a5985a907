#include "engine/sharded_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "datagen/distributions.h"
#include "engine/shard.h"
#include "obs/trace.h"
#include "test_util.h"
#include "util/timer.h"

namespace touch {
namespace {

// --- PartitionIntoShards (the STR-slab partitioner) -------------------------

TEST(ShardPartitionTest, CoversEveryBoxExactlyOnce) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 10000, 7);
  const DatasetStats stats = ComputeDatasetStats(boxes);
  const ShardPartition partition = PartitionIntoShards(boxes, stats, 8);

  EXPECT_EQ(partition.kx * partition.ky * partition.kz, 8);
  ASSERT_EQ(partition.shards.size(), 8u);
  ASSERT_EQ(partition.shard_of.size(), boxes.size());

  size_t total = 0;
  std::vector<bool> seen(boxes.size(), false);
  for (size_t s = 0; s < partition.shards.size(); ++s) {
    const DatasetShard& shard = partition.shards[s];
    ASSERT_EQ(shard.boxes.size(), shard.to_global.size());
    total += shard.boxes.size();
    for (size_t i = 0; i < shard.to_global.size(); ++i) {
      const uint32_t global = shard.to_global[i];
      ASSERT_LT(global, boxes.size());
      EXPECT_FALSE(seen[global]) << "box assigned to two shards";
      seen[global] = true;
      EXPECT_EQ(partition.shard_of[global], s);
      EXPECT_EQ(shard.boxes[i], boxes[global]);
      EXPECT_TRUE(Contains(shard.mbr, boxes[global]));
    }
  }
  EXPECT_EQ(total, boxes.size());
}

TEST(ShardPartitionTest, BalancesUniformData) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 16000, 9);
  const DatasetStats stats = ComputeDatasetStats(boxes);
  const ShardPartition partition = PartitionIntoShards(boxes, stats, 4);
  const size_t ideal = boxes.size() / 4;
  for (const DatasetShard& shard : partition.shards) {
    // Histogram-granular cuts cannot be exact, but uniform data must land
    // within a factor of two of the ideal share.
    EXPECT_GT(shard.boxes.size(), ideal / 2);
    EXPECT_LT(shard.boxes.size(), ideal * 2);
  }
}

TEST(ShardPartitionTest, SingleShardTakesEverything) {
  const Dataset boxes = GenerateSynthetic(Distribution::kClustered, 500, 3);
  const DatasetStats stats = ComputeDatasetStats(boxes);
  const ShardPartition partition = PartitionIntoShards(boxes, stats, 1);
  ASSERT_EQ(partition.shards.size(), 1u);
  EXPECT_EQ(partition.shards[0].boxes.size(), boxes.size());
}

TEST(ShardPartitionTest, EmptyDatasetYieldsEmptyShards) {
  const DatasetStats stats = ComputeDatasetStats(Dataset{});
  const ShardPartition partition = PartitionIntoShards(Dataset{}, stats, 4);
  ASSERT_EQ(partition.shards.size(), 4u);
  for (const DatasetShard& shard : partition.shards) {
    EXPECT_TRUE(shard.boxes.empty());
  }
}

TEST(ShardPartitionTest, SlabsComeFromHistogramNotGeometry) {
  // Two clusters along x: the x cut must fall between them, whatever the
  // box order was.
  Dataset boxes;
  for (int i = 0; i < 300; ++i) {
    boxes.push_back(CenteredBox(static_cast<float>(i % 10), i % 7, i % 5));
    boxes.push_back(
        CenteredBox(100.0f + static_cast<float>(i % 10), i % 7, i % 5));
  }
  const DatasetStats stats = ComputeDatasetStats(boxes);
  const ShardPartition partition = PartitionIntoShards(boxes, stats, 2);
  ASSERT_EQ(partition.shards.size(), 2u);
  EXPECT_EQ(partition.shards[0].boxes.size(), 300u);
  EXPECT_EQ(partition.shards[1].boxes.size(), 300u);
  // The slab boundary separates the clusters spatially.
  EXPECT_LT(partition.shards[0].mbr.hi.x, partition.shards[1].mbr.lo.x);
}

// --- ShardedCatalog stats round-trip ----------------------------------------

TEST(ShardedCatalogTest, ShardStatsRoundTripThroughSerialization) {
  EngineOptions options;
  options.shards = 4;
  ShardedQueryEngine engine(options);
  const DatasetHandle handle = engine.RegisterDataset(
      "data", GenerateSynthetic(Distribution::kGaussian, 8000, 21));

  const ShardedCatalog::Entry& entry = engine.catalog().entry(handle);
  ASSERT_EQ(entry.shards.size(), 4u);
  size_t total = 0;
  for (const ShardedCatalog::Shard& shard : entry.shards) {
    DatasetStats decoded;
    ASSERT_TRUE(DeserializeDatasetStats(shard.stats_bytes, &decoded));
    // The serialized bytes must describe exactly what the inner catalog
    // holds for this shard — the wire form loses nothing planning needs.
    const DatasetStats& reference =
        engine.engine().catalog().stats(shard.engine_handle);
    EXPECT_EQ(decoded.count, reference.count);
    EXPECT_EQ(decoded.count, shard.count);
    EXPECT_EQ(decoded.extent, reference.extent);
    EXPECT_EQ(decoded.histogram_resolution, reference.histogram_resolution);
    EXPECT_EQ(decoded.histogram, reference.histogram);
    EXPECT_DOUBLE_EQ(decoded.density, reference.density);
    total += shard.count;
  }
  EXPECT_EQ(total, entry.global_stats.count);
  EXPECT_EQ(engine.catalog().Find("data"), handle);
}

// --- Sharded vs unsharded result identity -----------------------------------

/// Runs the same request sharded (K shards) and unsharded, both through
/// engines configured with `options`, and expects the exact same sorted
/// result set. Returns the sharded outcome for extra assertions.
ShardedJoinResult ExpectShardedMatchesUnsharded(const EngineOptions& options,
                                                int shards, const Dataset& a,
                                                const Dataset& b,
                                                float epsilon) {
  EngineOptions sharded_options = options;
  sharded_options.shards = shards;
  ShardedQueryEngine sharded(sharded_options);
  const JoinRequest sharded_request{sharded.RegisterDataset("A", a),
                                    sharded.RegisterDataset("B", b), epsilon};
  VectorCollector sharded_pairs;
  const ShardedJoinResult result =
      sharded.Execute(sharded_request, sharded_pairs);
  EXPECT_TRUE(result.merged.ok()) << result.merged.error;

  QueryEngine reference(options);
  const JoinRequest reference_request{reference.RegisterDataset("A", a),
                                      reference.RegisterDataset("B", b),
                                      epsilon};
  VectorCollector reference_pairs;
  const JoinResult reference_result =
      reference.Execute(reference_request, reference_pairs);
  EXPECT_TRUE(reference_result.ok()) << reference_result.error;

  std::vector<IdPair> lhs = sharded_pairs.pairs();
  std::vector<IdPair> rhs = reference_pairs.pairs();
  std::sort(lhs.begin(), lhs.end());
  std::sort(rhs.begin(), rhs.end());
  EXPECT_TRUE(HasNoDuplicates(lhs));
  EXPECT_EQ(lhs, rhs);
  EXPECT_EQ(result.merged.stats.results, reference_result.stats.results);
  EXPECT_EQ(result.deduplicated, 0u)
      << "center-disjoint partitioning cannot produce boundary duplicates";
  return result;
}

/// True when some executed pair planned an algorithm of `family`.
bool AnyPairPlanned(const ShardedJoinResult& result,
                    const std::string& family) {
  return std::any_of(result.pairs.begin(), result.pairs.end(),
                     [&](const ShardPairReport& pair) {
                       return pair.plan.algorithm.rfind(family, 0) == 0;
                     });
}

TEST(ShardedEngineTest, MatchesUnshardedOnTouchPlans) {
  // Disable the tiny-input shortcuts and PBSM so every shard pair plans
  // TOUCH — the identity must hold under the heavyweight executor.
  EngineOptions options;
  options.planner.nested_loop_max = 0;
  options.planner.plane_sweep_max = 0;
  options.planner.pbsm_skew_max = -1.0;
  const Dataset a = GenerateSynthetic(Distribution::kClustered, 6000, 31);
  const Dataset b = GenerateSynthetic(Distribution::kClustered, 9000, 32);
  const ShardedJoinResult result =
      ExpectShardedMatchesUnsharded(options, 4, a, b, 2.0f);
  EXPECT_TRUE(AnyPairPlanned(result, "touch"));
}

TEST(ShardedEngineTest, MatchesUnshardedOnPbsmPlans) {
  EngineOptions options;
  options.planner.nested_loop_max = 0;
  options.planner.plane_sweep_max = 0;
  options.planner.pbsm_skew_max = 1e9;  // PBSM whenever it fits
  const Dataset a = GenerateSynthetic(Distribution::kUniform, 6000, 33);
  const Dataset b = GenerateSynthetic(Distribution::kUniform, 8000, 34);
  const ShardedJoinResult result =
      ExpectShardedMatchesUnsharded(options, 4, a, b, 3.0f);
  EXPECT_TRUE(AnyPairPlanned(result, "pbsm"));
}

TEST(ShardedEngineTest, MatchesUnshardedOnInlPlans) {
  // A violated memory budget with no asymmetry requirement forces the
  // indexed nested loop everywhere.
  EngineOptions options;
  options.planner.nested_loop_max = 0;
  options.planner.plane_sweep_max = 0;
  options.planner.memory_budget_bytes = 1;
  options.planner.inl_asymmetry = 1.0;
  const Dataset a = GenerateSynthetic(Distribution::kGaussian, 3000, 35);
  const Dataset b = GenerateSynthetic(Distribution::kGaussian, 12000, 36);
  const ShardedJoinResult result =
      ExpectShardedMatchesUnsharded(options, 4, a, b, 1.5f);
  EXPECT_TRUE(AnyPairPlanned(result, "inl"));
}

TEST(ShardedEngineTest, MatchesUnshardedWithDefaultPlannerAndManyShards) {
  const Dataset a = GenerateSynthetic(Distribution::kClustered, 5000, 37);
  const Dataset b = GenerateSynthetic(Distribution::kUniform, 7000, 38);
  ExpectShardedMatchesUnsharded(EngineOptions{}, 8, a, b, 2.5f);
}

// --- Shard-pair pruning goldens ---------------------------------------------

/// Two clusters per dataset, 90 units of empty space along x between them.
/// K=2 splits exactly at the gap, so the cross pairs prune iff epsilon
/// cannot bridge the gap.
Dataset TwoClusters(float offset, int count, int jitter_seed) {
  Dataset boxes;
  for (int i = 0; i < count; ++i) {
    const float dx = static_cast<float>((i * 13 + jitter_seed) % 10);
    const float dy = static_cast<float>(i % 8);
    const float dz = static_cast<float>(i % 6);
    boxes.push_back(CenteredBox(dx, dy, dz));
    boxes.push_back(CenteredBox(offset + dx, dy, dz));
  }
  return boxes;
}

TEST(ShardedEngineTest, PrunesShardPairsWhoseMbrsCannotMeet) {
  const Dataset a = TwoClusters(100.0f, 400, 1);
  const Dataset b = TwoClusters(100.0f, 400, 2);
  EngineOptions options;
  options.shards = 2;
  ShardedQueryEngine engine(options);
  const DatasetHandle ha = engine.RegisterDataset("A", a);
  const DatasetHandle hb = engine.RegisterDataset("B", b);

  // Epsilon far below the ~90-unit gap: the two cross pairs prune.
  CountingCollector out_small;
  const ShardedJoinResult small =
      engine.Execute({ha, hb, 1.0f}, out_small);
  EXPECT_TRUE(small.merged.ok());
  EXPECT_EQ(small.shard_pairs_total, 4u);
  EXPECT_EQ(small.pairs.size(), 2u);
  ASSERT_EQ(small.pruned.size(), 2u);
  const std::vector<std::pair<int, int>> expected_pruned = {{0, 1}, {1, 0}};
  std::vector<std::pair<int, int>> pruned = small.pruned;
  std::sort(pruned.begin(), pruned.end());
  EXPECT_EQ(pruned, expected_pruned);

  // Epsilon wider than the gap: nothing prunes.
  CountingCollector out_large;
  const ShardedJoinResult large =
      engine.Execute({ha, hb, 150.0f}, out_large);
  EXPECT_TRUE(large.merged.ok());
  EXPECT_EQ(large.pruned.size(), 0u);
  EXPECT_EQ(large.pairs.size(), 4u);

  // Pruning must not change the result: compare against the oracle.
  Dataset enlarged = a;
  for (Box& box : enlarged) box = box.Enlarged(1.0f);
  const std::vector<IdPair> oracle = OracleJoin(enlarged, b);
  EXPECT_EQ(out_small.count(), oracle.size());
}

TEST(ShardedEngineTest, EmptyShardPairsArePruned) {
  // All of A's mass sits in a single histogram cell: only one of its 8
  // shards is populated, and pairs against the empty shards must prune
  // rather than execute.
  Dataset a(500, CenteredBox(0, 0, 0));
  EngineOptions options;
  options.shards = 8;
  ShardedQueryEngine engine(options);
  const DatasetHandle ha = engine.RegisterDataset("A", std::move(a));
  const DatasetHandle hb = engine.RegisterDataset(
      "B", GenerateSynthetic(Distribution::kUniform, 1000, 5));

  size_t populated = 0;
  for (const ShardedCatalog::Shard& shard :
       engine.catalog().entry(ha).shards) {
    if (shard.count > 0) ++populated;
  }
  EXPECT_EQ(populated, 1u);

  CountingCollector out;
  const ShardedJoinResult result = engine.Execute({ha, hb, 1.0f}, out);
  EXPECT_TRUE(result.merged.ok());
  EXPECT_GE(result.pruned.size(), 7u * 8u);
  for (const ShardPairReport& pair : result.pairs) {
    EXPECT_GT(engine.catalog().entry(ha).shards[pair.shard_a].count, 0u);
    EXPECT_GT(engine.catalog().entry(hb).shards[pair.shard_b].count, 0u);
  }
}

// --- Cancellation fan-out ---------------------------------------------------

TEST(ShardedEngineTest, CancelFansOutToAllShardPairs) {
  EngineOptions options;
  options.shards = 2;  // 4 shard pairs
  options.threads = 2;
  std::atomic<int> entered{0};
  std::atomic<bool> released{false};
  // Park every claimed pair at its kPlanning transition so the cancel
  // deterministically lands before any pair finishes.
  options.phase_observer = [&](RequestPhase phase) {
    if (phase != RequestPhase::kPlanning) return;
    entered.fetch_add(1);
    while (!released.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  ShardedQueryEngine engine(options);
  const DatasetHandle ha = engine.RegisterDataset(
      "A", GenerateSynthetic(Distribution::kUniform, 4000, 41));
  const DatasetHandle hb = engine.RegisterDataset(
      "B", GenerateSynthetic(Distribution::kUniform, 4000, 42));

  ShardedRequestHandle handle = engine.Submit({ha, hb, 2.0f});
  ASSERT_EQ(handle.pair_count(), 4u);
  while (entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(handle.Cancel());
  released.store(true);

  const Timer gather;
  const ShardedJoinResult result = handle.Get();
  EXPECT_EQ(result.merged.status, RequestStatus::kCancelled);
  ASSERT_EQ(result.pairs.size(), 4u);
  for (const ShardPairReport& pair : result.pairs) {
    EXPECT_EQ(pair.status, RequestStatus::kCancelled)
        << "cancel must fan out to shard pair (" << pair.shard_a << ", "
        << pair.shard_b << ")";
  }
  // Promptness: the gather returns in interactive time, not join time.
  EXPECT_LT(gather.Seconds(), 5.0);
}

// --- Error paths and handle semantics ---------------------------------------

TEST(ShardedEngineTest, InvalidHandleReportsError) {
  ShardedQueryEngine engine;
  CountingCollector out;
  const ShardedJoinResult result = engine.Execute({5, 6, 1.0f}, out);
  EXPECT_EQ(result.merged.status, RequestStatus::kError);
  EXPECT_NE(result.merged.error.find("invalid dataset handle"),
            std::string::npos);
}

TEST(ShardedEngineTest, ContinuousRequestIsRejectedNotRunOneShot) {
  EngineOptions options;
  options.shards = 2;
  ShardedQueryEngine engine(options);
  const DatasetHandle ha = engine.RegisterDataset(
      "A", GenerateSynthetic(Distribution::kUniform, 500, 45));
  const DatasetHandle hb = engine.RegisterDataset(
      "B", GenerateSynthetic(Distribution::kUniform, 500, 46));
  JoinRequest request{ha, hb, 5.0f};
  request.continuous = true;
  CountingCollector out;
  const ShardedJoinResult result = engine.Execute(request, out);
  EXPECT_EQ(result.merged.status, RequestStatus::kError);
  EXPECT_NE(result.merged.error.find("continuous"), std::string::npos);
  EXPECT_TRUE(result.pairs.empty());
  EXPECT_EQ(out.count(), 0u);
}

TEST(ShardedEngineTest, RejectsNanAndInvertedBoxesBeforePartitioning) {
  EngineOptions options;
  options.shards = 4;
  ShardedQueryEngine engine(options);
  Dataset nan_box = GenerateSynthetic(Distribution::kUniform, 200, 47);
  nan_box[5].hi.x = std::numeric_limits<float>::quiet_NaN();
  Dataset inverted = GenerateSynthetic(Distribution::kUniform, 200, 48);
  inverted[7].lo.y = inverted[7].hi.y + 1.0f;
  EXPECT_THROW(engine.RegisterDataset("nan", nan_box), std::invalid_argument);
  EXPECT_THROW(engine.RegisterDataset("inverted", inverted),
               std::invalid_argument);
  // No shard reached the inner engine.
  EXPECT_EQ(engine.engine().catalog().size(), 0u);
}

TEST(ShardedEngineTest, SecondGatherReportsError) {
  ShardedQueryEngine engine;
  const DatasetHandle ha = engine.RegisterDataset(
      "A", GenerateSynthetic(Distribution::kUniform, 300, 44));
  ShardedRequestHandle handle = engine.Submit({ha, ha, 1.0f});
  EXPECT_TRUE(handle.Get().merged.ok());
  EXPECT_EQ(handle.Get().merged.status, RequestStatus::kError);
}

TEST(ShardedEngineTest, SinkReceivesGlobalIdsAndOneCompletion) {
  // The engine owns the sink and drops it after OnComplete, so everything
  // the test wants to inspect is copied into this shared record there.
  struct Record {
    std::vector<IdPair> pairs;
    int completions = 0;
    uint64_t final_results = 0;
  };
  class RecordingSink : public ResultSink {
   public:
    explicit RecordingSink(std::shared_ptr<Record> record)
        : record_(std::move(record)) {}
    void Emit(uint32_t a_id, uint32_t b_id) override {
      record_->pairs.emplace_back(a_id, b_id);
    }
    void OnComplete(const JoinResult& result) override {
      ++record_->completions;
      record_->final_results = result.stats.results;
    }

   private:
    std::shared_ptr<Record> record_;
  };
  EngineOptions options;
  options.shards = 4;
  ShardedQueryEngine engine(options);
  const Dataset a = GenerateSynthetic(Distribution::kUniform, 2000, 51);
  const Dataset b = GenerateSynthetic(Distribution::kUniform, 2000, 52);
  const DatasetHandle ha = engine.RegisterDataset("A", a);
  const DatasetHandle hb = engine.RegisterDataset("B", b);
  auto record = std::make_shared<Record>();
  ShardedRequestHandle handle =
      engine.Submit({ha, hb, 5.0f}, std::make_unique<RecordingSink>(record));
  const ShardedJoinResult result = handle.Get();
  EXPECT_TRUE(result.merged.ok());
  EXPECT_EQ(record->completions, 1);
  EXPECT_EQ(record->final_results, result.merged.stats.results);
  EXPECT_EQ(record->pairs.size(), result.merged.stats.results);
  EXPECT_GT(record->pairs.size(), 0u);

  // Global id space: every emitted id addresses the *original* datasets.
  Dataset enlarged = a;
  for (Box& box : enlarged) box = box.Enlarged(5.0f);
  std::vector<IdPair> expected = OracleJoin(enlarged, b);
  std::vector<IdPair> emitted = record->pairs;
  std::sort(emitted.begin(), emitted.end());
  EXPECT_EQ(emitted, expected);
}

// --- The gather's batched forward into the user sink ------------------------

TEST(ShardedEngineTest, UserSinkSeesPairsBeforeTheLastPairExecutes) {
  // One worker runs the pairs one after another, so a gather that held
  // pairs back until Get() would emit its first pair only after the last
  // pair's execute span had started.
  struct Record {
    int64_t first_emit_ns = 0;
    uint64_t emitted = 0;
  };
  class StampingSink : public ResultSink {
   public:
    explicit StampingSink(std::shared_ptr<Record> record)
        : record_(std::move(record)) {}
    void Emit(uint32_t, uint32_t) override {
      if (record_->emitted++ == 0) record_->first_emit_ns = TraceClockNs();
    }

   private:
    std::shared_ptr<Record> record_;
  };
  auto tracer = std::make_shared<Tracer>();
  EngineOptions options;
  options.shards = 2;
  options.threads = 1;
  options.tracer = tracer;
  ShardedQueryEngine engine(options);
  // A 100-unit cube: dense enough that every shard pair has results.
  SyntheticOptions dense;
  dense.space = 100.0f;
  const DatasetHandle ha = engine.RegisterDataset(
      "A", GenerateSynthetic(Distribution::kUniform, 3000, 71, dense));
  const DatasetHandle hb = engine.RegisterDataset(
      "B", GenerateSynthetic(Distribution::kUniform, 3000, 72, dense));
  auto record = std::make_shared<Record>();
  ShardedRequestHandle handle =
      engine.Submit({ha, hb, 1.0f}, std::make_unique<StampingSink>(record));
  const ShardedJoinResult result = handle.Get();
  ASSERT_TRUE(result.merged.ok()) << result.merged.error;
  ASSERT_GE(result.pairs.size(), 3u);
  EXPECT_EQ(record->emitted, result.merged.stats.results);

  int64_t last_execute_start_ns = 0;
  size_t executes = 0;
  for (const SpanRecord& span : tracer->Snapshot()) {
    if (span.name != "execute") continue;
    ++executes;
    last_execute_start_ns = std::max(last_execute_start_ns, span.start_ns);
  }
  ASSERT_EQ(executes, result.pairs.size());
  EXPECT_LT(record->first_emit_ns, last_execute_start_ns)
      << "the user sink saw nothing until the last shard pair was running";
}

TEST(ShardedEngineTest, UserSinkErrorInCompletionFlushFailsTheRequest) {
  // The pair emits fewer pairs than one flush batch holds, so the user
  // sink's throw happens when the pair's buffer is flushed at completion.
  struct Record {
    int completions = 0;
    RequestStatus final_status = RequestStatus::kOk;
  };
  class ThrowingSink : public ResultSink {
   public:
    explicit ThrowingSink(std::shared_ptr<Record> record)
        : record_(std::move(record)) {}
    void Emit(uint32_t, uint32_t) override {
      throw std::runtime_error("sink refused the pair");
    }
    void OnComplete(const JoinResult& result) override {
      ++record_->completions;
      record_->final_status = result.status;
    }

   private:
    std::shared_ptr<Record> record_;
  };
  EngineOptions options;
  options.shards = 1;
  ShardedQueryEngine engine(options);
  const DatasetHandle ha = engine.RegisterDataset(
      "A", GenerateSynthetic(Distribution::kUniform, 2000, 73));
  const DatasetHandle hb = engine.RegisterDataset(
      "B", GenerateSynthetic(Distribution::kUniform, 2000, 74));
  CountingCollector counted;
  ASSERT_TRUE(engine.Execute({ha, hb, 10.0f}, counted).merged.ok());
  ASSERT_GT(counted.count(), 0u);
  ASSERT_LT(counted.count(), 1024u);

  auto record = std::make_shared<Record>();
  ShardedRequestHandle handle =
      engine.Submit({ha, hb, 10.0f}, std::make_unique<ThrowingSink>(record));
  const ShardedJoinResult result = handle.Get();
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.merged.status, RequestStatus::kError);
  EXPECT_NE(result.merged.error.find("shard pair (0, 0)"), std::string::npos)
      << result.merged.error;
  EXPECT_NE(result.merged.error.find("sink refused the pair"),
            std::string::npos)
      << result.merged.error;
  EXPECT_EQ(record->completions, 1);
  EXPECT_EQ(record->final_status, RequestStatus::kError);
}

TEST(ShardedEngineTest, ConcurrentFlushesReachANonThreadSafeSinkSerially) {
  // A plain counting sink: its members race unless every Emit is
  // serialized (SerialEmitCheck asserts it in debug builds, TSan in the
  // sanitizer builds). The checksum is order-independent.
  struct Tally {
    uint64_t count = 0;
    uint64_t checksum = 0;
  };
  class TallySink : public ResultSink {
   public:
    explicit TallySink(std::shared_ptr<Tally> tally)
        : tally_(std::move(tally)) {}
    void Emit(uint32_t a_id, uint32_t b_id) override {
      check_.Enter();
      ++tally_->count;
      tally_->checksum +=
          (uint64_t{a_id} * 0x9E3779B97F4A7C15ull) ^ (uint64_t{b_id} + 1);
      check_.Exit();
    }

   private:
    std::shared_ptr<Tally> tally_;
    SerialEmitCheck check_;
  };
  // A 100-unit cube: each slab-aligned shard pair has thousands of
  // results, each pair across a slab boundary about a hundred.
  SyntheticOptions dense;
  dense.space = 100.0f;
  const Dataset a = GenerateSynthetic(Distribution::kUniform, 12000, 75, dense);
  const Dataset b = GenerateSynthetic(Distribution::kUniform, 12000, 76, dense);
  const float epsilon = 3.0f;

  EngineOptions options;
  options.shards = 4;
  options.threads = 3;
  ShardedQueryEngine sharded(options);
  auto sharded_tally = std::make_shared<Tally>();
  const ShardedJoinResult result =
      sharded
          .Submit({sharded.RegisterDataset("A", a),
                   sharded.RegisterDataset("B", b), epsilon},
                  std::make_unique<TallySink>(sharded_tally))
          .Get();
  ASSERT_TRUE(result.merged.ok()) << result.merged.error;
  EXPECT_EQ(result.deduplicated, 0u);
  // Several full-buffer flushes on some pairs, a completion flush alone on
  // others.
  bool several_full_flushes = false;
  bool completion_flush_only = false;
  for (const ShardPairReport& pair : result.pairs) {
    several_full_flushes = several_full_flushes || pair.stats.results > 2048;
    completion_flush_only = completion_flush_only ||
                            (pair.stats.results > 0 && pair.stats.results < 1024);
  }
  EXPECT_TRUE(several_full_flushes);
  EXPECT_TRUE(completion_flush_only);

  QueryEngine reference;
  auto reference_tally = std::make_shared<Tally>();
  const JoinResult reference_result =
      reference
          .Submit({reference.RegisterDataset("A", a),
                   reference.RegisterDataset("B", b), epsilon},
                  std::make_unique<TallySink>(reference_tally))
          .Get();
  ASSERT_TRUE(reference_result.ok()) << reference_result.error;
  EXPECT_EQ(sharded_tally->count, reference_tally->count);
  EXPECT_EQ(sharded_tally->checksum, reference_tally->checksum);
  EXPECT_EQ(result.merged.stats.results, reference_result.stats.results);
}

TEST(ShardedEngineTest, MergedTelemetryAggregatesPairs) {
  EngineOptions options;
  options.shards = 2;
  ShardedQueryEngine engine(options);
  // Large enough that shard pairs plan a cacheable algorithm (PBSM/TOUCH),
  // so the warm re-run below can hit end to end.
  const DatasetHandle ha = engine.RegisterDataset(
      "A", GenerateSynthetic(Distribution::kUniform, 12000, 61));
  const DatasetHandle hb = engine.RegisterDataset(
      "B", GenerateSynthetic(Distribution::kUniform, 12000, 62));
  CountingCollector out;
  const ShardedJoinResult result = engine.Execute({ha, hb, 2.0f}, out);
  EXPECT_TRUE(result.merged.ok());

  uint64_t pair_results = 0;
  double pair_join_seconds = 0;
  for (const ShardPairReport& pair : result.pairs) {
    pair_results += pair.stats.results;
    pair_join_seconds += pair.stats.join_seconds;
  }
  EXPECT_EQ(result.merged.stats.results + result.deduplicated, pair_results);
  EXPECT_DOUBLE_EQ(result.merged.stats.join_seconds, pair_join_seconds);
  EXPECT_EQ(out.count(), result.merged.stats.results);
  EXPECT_EQ(result.cache.misses, engine.engine().cache_stats().misses);
  EXPECT_EQ(result.merged.plan.algorithm, "sharded");

  // A warm re-run hits the per-shard artifact cache end to end.
  CountingCollector warm_out;
  const ShardedJoinResult warm = engine.Execute({ha, hb, 2.0f}, warm_out);
  EXPECT_TRUE(warm.merged.index_cache_hit);
  EXPECT_EQ(warm.merged.stats.results, result.merged.stats.results);
}

}  // namespace
}  // namespace touch
