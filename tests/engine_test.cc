#include "engine/engine.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <string>

#include "core/overlap_kernel.h"
#include "datagen/distributions.h"
#include "index/rtree.h"
#include "join/nested_loop.h"
#include "join/rtree_join.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace touch {
namespace {

/// Ground truth for the engine's distance join: enlarge A, nested loop.
std::vector<IdPair> DistanceOracle(const Dataset& a, const Dataset& b,
                                   float epsilon) {
  Dataset enlarged = a;
  for (Box& box : enlarged) box = box.Enlarged(epsilon);
  return OracleJoin(enlarged, b);
}

std::vector<IdPair> SortedPairs(VectorCollector& collector) {
  std::vector<IdPair> pairs = collector.pairs();
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

class QueryEngineTest : public ::testing::Test {
 protected:
  // Clustered and big enough that the planner reaches the TOUCH branch.
  Dataset small_ = GenerateSynthetic(Distribution::kClustered, 4000, 51);
  Dataset large_ = GenerateSynthetic(Distribution::kClustered, 8000, 52);
};

TEST_F(QueryEngineTest, ColdAndCachedRunsProduceIdenticalPairs) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);
  const JoinRequest request{a, b, 2.0f};
  ASSERT_EQ(engine.Plan(request).algorithm, "touch");

  VectorCollector cold;
  const JoinResult cold_result = engine.Execute(request, cold);
  ASSERT_TRUE(cold_result.error.empty());
  EXPECT_FALSE(cold_result.index_cache_hit);
  IndexCache::Stats stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);

  VectorCollector cached;
  const JoinResult cached_result = engine.Execute(request, cached);
  ASSERT_TRUE(cached_result.error.empty());
  EXPECT_TRUE(cached_result.index_cache_hit);
  EXPECT_EQ(cached_result.stats.build_seconds, 0.0);
  stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);

  const std::vector<IdPair> oracle = DistanceOracle(small_, large_, 2.0f);
  ASSERT_FALSE(oracle.empty());
  EXPECT_EQ(SortedPairs(cold), oracle);
  EXPECT_EQ(SortedPairs(cached), oracle);
}

// A lone TOUCH request borrows the idle workers of a bigger pool for its
// STR build and local join, yet emits on one thread in the sequential
// order: the pair sequence and the work counters equal a 1-worker pool's,
// cold (build + probe) and warm (probe only).
TEST(QueryEngineParallelTest, LoneTouchRequestMatchesSingleWorkerPool) {
  const Dataset small = GenerateSynthetic(Distribution::kClustered, 30000, 53);
  const Dataset large = GenerateSynthetic(Distribution::kClustered, 50000, 54);
  struct Run {
    std::vector<IdPair> pairs;
    JoinStats stats;
  };
  const auto run_twice = [&](int threads) {
    EngineOptions options;
    options.threads = threads;
    QueryEngine engine(options);
    const DatasetHandle a = engine.RegisterDataset("small", small);
    const DatasetHandle b = engine.RegisterDataset("large", large);
    std::vector<Run> runs;
    for (int i = 0; i < 2; ++i) {
      VectorCollector out;
      const JoinResult result = engine.ExecuteFixed("touch", {a, b, 2.0f}, out);
      EXPECT_TRUE(result.ok()) << result.error;
      EXPECT_EQ(result.index_cache_hit, i == 1);
      runs.push_back({out.pairs(), result.stats});
    }
    return runs;
  };
  const std::vector<Run> expected = run_twice(1);
  const std::vector<Run> parallel = run_twice(3);
  ASSERT_GT(expected[0].pairs.size(), 10000u);
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(i == 0 ? "cold" : "warm");
    EXPECT_EQ(parallel[i].pairs, expected[i].pairs);
    EXPECT_EQ(parallel[i].stats.results, expected[i].stats.results);
    EXPECT_EQ(parallel[i].stats.comparisons, expected[i].stats.comparisons);
    EXPECT_EQ(parallel[i].stats.node_comparisons,
              expected[i].stats.node_comparisons);
    EXPECT_EQ(parallel[i].stats.filtered, expected[i].stats.filtered);
    EXPECT_EQ(parallel[i].stats.memory_bytes, expected[i].stats.memory_bytes);
  }
}

// When A is the larger dataset the plan builds the tree on B and the engine
// must still emit pairs in (a, b) order.
TEST_F(QueryEngineTest, BuildOnBKeepsPairOrder) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("large", large_);
  const DatasetHandle b = engine.RegisterDataset("small", small_);
  const JoinRequest request{a, b, 2.0f};
  const JoinPlan plan = engine.Plan(request);
  ASSERT_EQ(plan.algorithm, "touch");
  ASSERT_FALSE(plan.build_on_a);

  VectorCollector out;
  ASSERT_TRUE(engine.Execute(request, out).error.empty());
  EXPECT_EQ(SortedPairs(out), DistanceOracle(large_, small_, 2.0f));

  // The cached tree (built over raw B) is epsilon-independent: a second
  // query with a different epsilon reuses it.
  VectorCollector other;
  const JoinResult second = engine.Execute({a, b, 4.0f}, other);
  EXPECT_TRUE(second.index_cache_hit);
  EXPECT_EQ(SortedPairs(other), DistanceOracle(large_, small_, 4.0f));
}

// Regression for the TOUCH cached path: a build-on-B distance join used to
// materialize an O(|A|) enlarged probe copy on every query, cache hit or
// not. The probe side is now enlarged on the fly (like the cached INL
// path), so warm hits run allocation-free: TouchJoin's analytic footprint —
// which counts any probe copy it owns — must be byte-identical between the
// cold run and the hit, and the pairs must still match the oracle at every
// epsilon sharing the raw cached tree.
TEST_F(QueryEngineTest, CachedBuildOnBDistanceJoinIsAllocationFree) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("large", large_);
  const DatasetHandle b = engine.RegisterDataset("small", small_);
  const JoinRequest request{a, b, 2.0f};
  const JoinPlan plan = engine.Plan(request);
  ASSERT_EQ(plan.algorithm, "touch");
  ASSERT_FALSE(plan.build_on_a);

  VectorCollector cold;
  const JoinResult cold_result = engine.Execute(request, cold);
  ASSERT_TRUE(cold_result.error.empty());
  ASSERT_FALSE(cold_result.index_cache_hit);
  VectorCollector warm;
  const JoinResult warm_result = engine.Execute(request, warm);
  ASSERT_TRUE(warm_result.error.empty());
  ASSERT_TRUE(warm_result.index_cache_hit);

  EXPECT_EQ(SortedPairs(warm), SortedPairs(cold));
  EXPECT_EQ(SortedPairs(warm), DistanceOracle(large_, small_, 2.0f));
  EXPECT_EQ(warm_result.stats.memory_bytes, cold_result.stats.memory_bytes);

  // A different epsilon still hits the same raw tree and still needs no
  // probe copy.
  VectorCollector wider;
  const JoinResult wider_result = engine.Execute({a, b, 5.0f}, wider);
  EXPECT_TRUE(wider_result.index_cache_hit);
  EXPECT_EQ(SortedPairs(wider), DistanceOracle(large_, small_, 5.0f));
}

TEST_F(QueryEngineTest, BuildOnACacheDistinguishesEpsilon) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);

  CountingCollector out;
  EXPECT_FALSE(engine.Execute({a, b, 2.0f}, out).index_cache_hit);
  // The enlargement is baked into the tree over A, so a new epsilon is a
  // new index...
  EXPECT_FALSE(engine.Execute({a, b, 4.0f}, out).index_cache_hit);
  // ...while repeating either epsilon hits its entry.
  EXPECT_TRUE(engine.Execute({a, b, 2.0f}, out).index_cache_hit);
  EXPECT_EQ(engine.cache_stats().entries, 2u);
}

TEST_F(QueryEngineTest, BatchMatchesIndividualExecution) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);
  const std::vector<JoinRequest> requests = {
      {a, b, 2.0f}, {b, a, 1.0f}, {a, a, 0.5f}, {a, b, 2.0f}};

  QueryEngine reference;
  const DatasetHandle ra = reference.RegisterDataset("small", small_);
  const DatasetHandle rb = reference.RegisterDataset("large", large_);
  const std::vector<JoinRequest> reference_requests = {
      {ra, rb, 2.0f}, {rb, ra, 1.0f}, {ra, ra, 0.5f}, {ra, rb, 2.0f}};

  const std::vector<JoinResult> batch = engine.ExecuteBatch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(batch[i].error.empty()) << i;
    CountingCollector expected;
    reference.Execute(reference_requests[i], expected);
    EXPECT_EQ(batch[i].stats.results, expected.count()) << i;
  }
  // The duplicated request shares one index with its twin.
  EXPECT_GE(engine.cache_stats().hits, 1u);
}

TEST_F(QueryEngineTest, ExecuteFixedRunsTheNamedAlgorithm) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);

  VectorCollector out;
  const JoinResult result = engine.ExecuteFixed("ps", {a, b, 2.0f}, out);
  ASSERT_TRUE(result.error.empty());
  EXPECT_EQ(result.plan.algorithm, "ps");
  EXPECT_EQ(SortedPairs(out), DistanceOracle(small_, large_, 2.0f));
}

TEST_F(QueryEngineTest, ExecuteFixedReportsUnknownNames) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);

  VectorCollector out;
  const JoinResult result = engine.ExecuteFixed("bogus", {a, b, 1.0f}, out);
  EXPECT_NE(result.error.find("unknown algorithm 'bogus'"), std::string::npos);
  EXPECT_NE(result.error.find("accepted:"), std::string::npos);
  EXPECT_TRUE(out.pairs().empty());
}

// Fixed runs go through the submit path, so they honour the request's
// deadline and, like every synchronous wrapper, refuse standing joins
// (which never produce a final result to wait for).
TEST_F(QueryEngineTest, ExecuteFixedFollowsSubmitRequestRules) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);

  JoinRequest expired{a, b, 2.0f};
  expired.deadline = std::chrono::steady_clock::now();
  VectorCollector out;
  const JoinResult late = engine.ExecuteFixed("touch", expired, out);
  EXPECT_EQ(late.status, RequestStatus::kCancelled);
  EXPECT_TRUE(out.pairs().empty());

  JoinRequest standing{a, b, 2.0f};
  standing.continuous = true;
  for (const std::string name : {"touch", "ps", "auto"}) {
    const JoinResult result = engine.ExecuteFixed(name, standing, out);
    EXPECT_EQ(result.status, RequestStatus::kError) << name;
    EXPECT_NE(result.error.find("continuous"), std::string::npos) << name;
  }
  EXPECT_TRUE(out.pairs().empty());
}

// The INL R-tree is a cacheable artifact: build-on-A bakes the enlargement
// into the cached tree (per-epsilon entries), build-on-B keeps the tree raw
// and epsilon-independent.
TEST_F(QueryEngineTest, InlIndexIsCachedAndMatchesOracle) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("large", large_);
  const DatasetHandle b = engine.RegisterDataset("small", small_);

  // |A| > |B| -> tree on B, built raw: different epsilons share the entry.
  VectorCollector first;
  const JoinResult cold = engine.ExecuteFixed("inl", {a, b, 2.0f}, first);
  ASSERT_TRUE(cold.error.empty());
  EXPECT_FALSE(cold.index_cache_hit);
  ASSERT_FALSE(cold.plan.build_on_a);
  EXPECT_EQ(SortedPairs(first), DistanceOracle(large_, small_, 2.0f));

  VectorCollector second;
  const JoinResult warm = engine.ExecuteFixed("inl", {a, b, 4.0f}, second);
  EXPECT_TRUE(warm.index_cache_hit);
  EXPECT_EQ(warm.stats.build_seconds, 0.0);
  EXPECT_EQ(SortedPairs(second), DistanceOracle(large_, small_, 4.0f));
  EXPECT_EQ(engine.cache_stats().entries, 1u);

  // Reversed handles -> tree on A with the enlargement baked in: a new
  // epsilon is a new entry.
  VectorCollector reversed;
  const JoinResult on_a = engine.ExecuteFixed("inl", {b, a, 2.0f}, reversed);
  ASSERT_TRUE(on_a.plan.build_on_a);
  EXPECT_FALSE(on_a.index_cache_hit);
  EXPECT_EQ(SortedPairs(reversed), DistanceOracle(small_, large_, 2.0f));
  EXPECT_FALSE(
      engine.ExecuteFixed("inl", {b, a, 4.0f}, reversed).index_cache_hit);
  EXPECT_TRUE(
      engine.ExecuteFixed("inl", {b, a, 2.0f}, reversed).index_cache_hit);
}

// With the tree on A and epsilon > 0, the INL artifact keeps no enlarged box
// copy: its probe reads only the tree and its item slab, so those are all
// the cache holds for it.
TEST_F(QueryEngineTest, InlIndexOnEnlargedSideHoldsOnlyTreeAndItemSlab) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);
  VectorCollector out;
  const JoinResult result = engine.ExecuteFixed("inl", {a, b, 2.0f}, out);
  ASSERT_TRUE(result.error.empty());
  ASSERT_TRUE(result.plan.build_on_a);
  EXPECT_EQ(SortedPairs(out), DistanceOracle(small_, large_, 2.0f));

  Dataset enlarged = small_;
  for (Box& box : enlarged) box = box.Enlarged(2.0f);
  const RTreeJoinOptions options;
  const RTree tree(enlarged, options.leaf_capacity, options.fanout,
                   options.bulkload);
  BoxSlab items;
  items.AssignGather(enlarged, tree.item_ids());
  EXPECT_EQ(engine.cache_stats().entries, 1u);
  EXPECT_EQ(engine.cache_stats().bytes,
            tree.MemoryUsageBytes() + items.MemoryUsageBytes());

  VectorCollector warm;
  EXPECT_TRUE(engine.ExecuteFixed("inl", {a, b, 2.0f}, warm).index_cache_hit);
  EXPECT_EQ(warm.pairs(), out.pairs());
}

// PBSM caches one cell directory per dataset; a repeat query reuses both.
TEST_F(QueryEngineTest, PbsmDirectoriesAreCachedPerDataset) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);

  VectorCollector cold;
  const JoinResult cold_result =
      engine.ExecuteFixed("pbsm-100", {a, b, 2.0f}, cold);
  ASSERT_TRUE(cold_result.error.empty());
  EXPECT_FALSE(cold_result.index_cache_hit);
  EXPECT_EQ(engine.cache_stats().entries, 2u);  // one directory per side
  EXPECT_EQ(SortedPairs(cold), DistanceOracle(small_, large_, 2.0f));

  VectorCollector warm;
  const JoinResult warm_result =
      engine.ExecuteFixed("pbsm-100", {a, b, 2.0f}, warm);
  EXPECT_TRUE(warm_result.index_cache_hit);
  EXPECT_EQ(warm_result.stats.build_seconds, 0.0);
  EXPECT_EQ(engine.cache_stats().entries, 2u);
  EXPECT_EQ(SortedPairs(warm), SortedPairs(cold));

  // A new epsilon moves the joint grid domain, so both directories rebuild
  // (the domain signature in the key keeps stale grids from aliasing).
  VectorCollector other;
  const JoinResult other_eps =
      engine.ExecuteFixed("pbsm-100", {a, b, 4.0f}, other);
  EXPECT_FALSE(other_eps.index_cache_hit);
  EXPECT_EQ(SortedPairs(other), DistanceOracle(small_, large_, 4.0f));
}

// TOUCH trees, INL R-trees and PBSM directories for the *same* dataset and
// epsilon live side by side: kinds never collide.
TEST_F(QueryEngineTest, MixedArtifactKindsNeverCollide) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);
  const JoinRequest request{a, b, 2.0f};

  VectorCollector touch_out;
  VectorCollector inl_out;
  VectorCollector pbsm_out;
  ASSERT_TRUE(engine.ExecuteFixed("touch", request, touch_out).error.empty());
  ASSERT_TRUE(engine.ExecuteFixed("inl", request, inl_out).error.empty());
  ASSERT_TRUE(engine.ExecuteFixed("pbsm-100", request, pbsm_out).error.empty());
  // 1 TOUCH tree + 1 INL tree + 2 PBSM directories.
  EXPECT_EQ(engine.cache_stats().entries, 4u);
  EXPECT_EQ(engine.cache_stats().hits, 0u);

  // Re-running each hits its own artifact and returns identical pairs.
  VectorCollector again;
  EXPECT_TRUE(engine.ExecuteFixed("touch", request, again).index_cache_hit);
  EXPECT_TRUE(engine.ExecuteFixed("inl", request, again).index_cache_hit);
  EXPECT_TRUE(engine.ExecuteFixed("pbsm-100", request, again).index_cache_hit);
  const std::vector<IdPair> oracle = DistanceOracle(small_, large_, 2.0f);
  EXPECT_EQ(SortedPairs(touch_out), oracle);
  EXPECT_EQ(SortedPairs(inl_out), oracle);
  EXPECT_EQ(SortedPairs(pbsm_out), oracle);
}

// max_cache_bytes caps the engine's cache: artifacts too big to retain are
// evicted LRU-style, queries still answer correctly, telemetry records it.
TEST_F(QueryEngineTest, MaxCacheBytesEvictsButNeverBreaksQueries) {
  EngineOptions options;
  options.max_cache_bytes = 1;  // nothing fits: every build evicts itself
  QueryEngine engine(options);
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);
  const JoinRequest request{a, b, 2.0f};

  VectorCollector first;
  VectorCollector second;
  ASSERT_TRUE(engine.Execute(request, first).error.empty());
  const JoinResult repeat = engine.Execute(request, second);
  ASSERT_TRUE(repeat.error.empty());
  EXPECT_FALSE(repeat.index_cache_hit);  // nothing was retained

  const IndexCache::Stats stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_LE(stats.bytes, options.max_cache_bytes);
  EXPECT_EQ(stats.capacity_bytes, 1u);
  EXPECT_EQ(SortedPairs(first), SortedPairs(second));
}

TEST_F(QueryEngineTest, InvalidHandlesAreRejected) {
  QueryEngine engine;
  CountingCollector out;
  const JoinResult result = engine.Execute({0, 1, 1.0f}, out);
  EXPECT_FALSE(result.error.empty());
  EXPECT_EQ(out.count(), 0u);
}

// Inserts a batch into dataset `target` on the first pair it sees, so the
// catalog moves to a new version while the request that emitted still
// runs on the one it pinned.
class MutatingCollector : public ResultCollector {
 public:
  MutatingCollector(QueryEngine& engine, DatasetHandle target)
      : engine_(engine), target_(target) {}
  void Emit(uint32_t, uint32_t) override {
    if (mutated_) return;
    mutated_ = true;
    const std::vector<Mutation> inserts(
        500, Mutation{MutationKind::kInsert, kInvalidObjectId,
                      MakeBox(1, 1, 1, 2, 2, 2)});
    engine_.ApplyMutations(target_, inserts);
  }

 private:
  QueryEngine& engine_;
  DatasetHandle target_;
  bool mutated_ = false;
};

// Calibration evidence describes the dataset version that ran: an auto
// cold run records its plan's own estimate and the pinned counts, even when
// a mutation lands mid-request; a fixed run, whose plan skips estimation,
// records the estimate computed from the same stats.
TEST_F(QueryEngineTest, OutcomesRecordThePinnedVersionAndPlanEstimate) {
  QueryEngine engine;
  const DatasetHandle a = engine.RegisterDataset("small", small_);
  const DatasetHandle b = engine.RegisterDataset("large", large_);
  const JoinRequest request{a, b, 2.0f};
  const DatasetSnapshotPtr pinned_a = engine.catalog().snapshot(a);
  const DatasetSnapshotPtr pinned_b = engine.catalog().snapshot(b);

  MutatingCollector mutating(engine, a);
  const JoinResult cold = engine.Execute(request, mutating);
  ASSERT_TRUE(cold.ok()) << cold.error;
  ASSERT_EQ(cold.plan.algorithm, "touch");
  ASSERT_GT(cold.plan.expected_results, 0);
  ASSERT_EQ(engine.catalog().snapshot(a)->stats.count,
            small_.size() + 500);
  std::vector<PlanOutcome> outcomes = engine.feedback().RecentOutcomes();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].objects, small_.size() + large_.size());
  EXPECT_EQ(outcomes[0].estimated_results, cold.plan.expected_results);

  CountingCollector out;
  const JoinResult fixed = engine.ExecuteFixed("ps", request, out);
  ASSERT_TRUE(fixed.ok()) << fixed.error;
  EXPECT_EQ(fixed.plan.expected_results, 0);
  outcomes = engine.feedback().RecentOutcomes();
  ASSERT_EQ(outcomes.size(), 2u);
  const DatasetSnapshotPtr now_a = engine.catalog().snapshot(a);
  EXPECT_EQ(outcomes[1].objects, now_a->stats.count + large_.size());
  EXPECT_EQ(outcomes[1].estimated_results,
            CombineHistograms(now_a->stats, pinned_b->stats, request.epsilon)
                .expected_results);
  EXPECT_GT(outcomes[1].estimated_results, 0);
  // The first outcome's estimate was not recomputed on the mutated stats.
  EXPECT_EQ(outcomes[0].estimated_results,
            CombineHistograms(pinned_a->stats, pinned_b->stats,
                              request.epsilon)
                .expected_results);
}

TEST(QueryEngineMetricsTest, ExportsTheActiveSimdLevel) {
  EngineOptions options;
  options.metrics = std::make_shared<MetricsRegistry>();
  QueryEngine engine(options);
  std::ostringstream scrape;
  options.metrics->ExportPrometheus(scrape);
  const std::string text = scrape.str();
  EXPECT_NE(text.find("# TYPE touch_simd_level gauge\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find(std::string("touch_simd_level{level=\"") +
                      SimdLevelName() + "\"} 1\n"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace touch
