// Tests of the paper's section-4.3 shortcut: an existing data-oriented
// index on dataset A serves as the TOUCH tree, and the join skips the
// tree-building phase without changing the result.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/touch.h"
#include "datagen/distributions.h"
#include "index/dynamic_rtree.h"
#include "index/rtree.h"
#include "test_util.h"

namespace touch {
namespace {

class PrebuiltTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = GenerateSynthetic(Distribution::kClustered, 1500, 151);
    for (Box& box : a_) box = box.Enlarged(7.0f);
    b_ = GenerateSynthetic(Distribution::kClustered, 2500, 152);
  }
  Dataset a_;
  Dataset b_;
};

TEST_F(PrebuiltTreeTest, JoinWithPrebuiltTreeMatchesOracle) {
  const RTree index(a_, 32, 4);
  TouchJoin join;
  VectorCollector out;
  const JoinStats stats = join.JoinWithPrebuiltTree(index, a_, b_, out);
  auto pairs = out.pairs();
  std::sort(pairs.begin(), pairs.end());
  EXPECT_EQ(pairs, OracleJoin(a_, b_));
  EXPECT_EQ(stats.build_seconds, 0.0);
  EXPECT_GT(stats.comparisons, 0u);
}

TEST_F(PrebuiltTreeTest, WorksWithEveryBulkLoader) {
  const auto oracle = OracleJoin(a_, b_);
  for (const BulkLoadMethod method :
       {BulkLoadMethod::kStr, BulkLoadMethod::kHilbert,
        BulkLoadMethod::kTgs}) {
    const RTree index(a_, 16, 2, method);
    TouchJoin join;
    VectorCollector out;
    join.JoinWithPrebuiltTree(index, a_, b_, out);
    auto pairs = out.pairs();
    std::sort(pairs.begin(), pairs.end());
    EXPECT_EQ(pairs, oracle);
  }
}

TEST_F(PrebuiltTreeTest, WorksWithInsertionBuiltTrees) {
  const auto oracle = OracleJoin(a_, b_);
  for (const RTreeVariant variant :
       {RTreeVariant::kGuttman, RTreeVariant::kRStar}) {
    DynamicRTree::Options options;
    options.max_entries = 16;
    options.min_entries = 6;
    options.variant = variant;
    DynamicRTree dynamic(options);
    for (uint32_t i = 0; i < a_.size(); ++i) dynamic.Insert(i, a_[i]);
    const RTree index = RTree::FromDynamic(dynamic);
    TouchJoin join;
    VectorCollector out;
    const JoinStats stats = join.JoinWithPrebuiltTree(index, a_, b_, out);
    auto pairs = out.pairs();
    std::sort(pairs.begin(), pairs.end());
    EXPECT_EQ(pairs, oracle) << static_cast<int>(variant);
    EXPECT_EQ(stats.results, oracle.size());
  }
}

TEST_F(PrebuiltTreeTest, MatchesSelfBuiltTreeWhenShapesAgree) {
  // A fanout-2, 32-capacity STR R-tree is exactly the tree TOUCH builds for
  // itself with the same parameters, so the prebuilt run emits the same
  // pair sequence with the same work counters.
  const RTree index(a_, 32, 2);

  TouchOptions opt;
  opt.leaf_capacity = 32;
  opt.fanout = 2;
  opt.join_order = TouchOptions::JoinOrder::kBuildOnA;
  TouchJoin join(opt);

  VectorCollector out_prebuilt;
  const JoinStats stats_prebuilt =
      join.JoinWithPrebuiltTree(index, a_, b_, out_prebuilt);
  VectorCollector out_direct;
  const JoinStats stats_direct = join.Join(a_, b_, out_direct);
  EXPECT_EQ(out_prebuilt.pairs(), out_direct.pairs());
  EXPECT_EQ(stats_prebuilt.comparisons, stats_direct.comparisons);
  EXPECT_EQ(stats_prebuilt.node_comparisons, stats_direct.node_comparisons);
  EXPECT_EQ(stats_prebuilt.filtered, stats_direct.filtered);
  EXPECT_EQ(stats_prebuilt.memory_bytes, stats_direct.memory_bytes);
}

// The engine's cached build-on-B distance joins hinge on this: probing a
// prebuilt tree with raw boxes plus probe_epsilon must equal probing with a
// pre-enlarged copy — and with the default grid local join it must do so
// without materializing that copy. TouchJoin's analytic memory accounting
// includes any probe copy it owns (the non-grid ablations materialize one),
// so byte-identical memory_bytes between the two runs is the regression
// signal that the grid path stayed allocation-free.
TEST_F(PrebuiltTreeTest, ProbeEpsilonMatchesEnlargedCopyWithoutAllocating) {
  // The build side gets clearly smaller objects so that it dictates the
  // local-join cell size in both runs (the raw-vs-enlarged probe average
  // must not flip the min), keeping the two runs' grids — and therefore
  // their comparison counts and analytic footprints — bit-identical.
  SyntheticOptions small_objects;
  small_objects.max_side = 0.5f;
  SyntheticOptions large_objects;
  large_objects.max_side = 2.0f;
  const Dataset build =
      GenerateSynthetic(Distribution::kClustered, 1500, 153, small_objects);
  const Dataset probe =
      GenerateSynthetic(Distribution::kClustered, 2500, 154, large_objects);
  const float epsilon = 6.0f;
  Dataset enlarged = probe;
  for (Box& box : enlarged) box = box.Enlarged(epsilon);

  const RTree tree(build, 32, 2);
  TouchOptions options;
  options.leaf_capacity = 32;
  options.fanout = 2;
  TouchJoin join(options);

  VectorCollector copied;
  const JoinStats copied_stats =
      join.JoinWithPrebuiltTree(tree, build, enlarged, copied);
  VectorCollector on_the_fly;
  const JoinStats fly_stats =
      join.JoinWithPrebuiltTree(tree, build, probe, on_the_fly, epsilon);

  auto sorted = [](VectorCollector& collector) {
    auto pairs = collector.pairs();
    std::sort(pairs.begin(), pairs.end());
    return pairs;
  };
  ASSERT_FALSE(on_the_fly.pairs().empty());
  EXPECT_EQ(sorted(on_the_fly), sorted(copied));
  EXPECT_EQ(fly_stats.results, copied_stats.results);
  EXPECT_EQ(fly_stats.comparisons, copied_stats.comparisons);
  EXPECT_EQ(fly_stats.memory_bytes, copied_stats.memory_bytes)
      << "the grid path must not own a probe copy";
}

// The materializing ablations (nested loop / plane sweep local joins) stay
// correct with probe_epsilon; their one-off copy is visible in the analytic
// footprint.
TEST_F(PrebuiltTreeTest, ProbeEpsilonWorksWithEveryLocalJoinStrategy) {
  const Dataset build = GenerateSynthetic(Distribution::kClustered, 1500, 155);
  const Dataset probe = GenerateSynthetic(Distribution::kClustered, 2500, 156);
  const float epsilon = 6.0f;
  Dataset enlarged = probe;
  for (Box& box : enlarged) box = box.Enlarged(epsilon);
  const auto oracle = OracleJoin(build, enlarged);
  ASSERT_FALSE(oracle.empty());

  const RTree tree(build, 32, 2);
  for (const LocalJoinStrategy strategy :
       {LocalJoinStrategy::kGrid, LocalJoinStrategy::kNestedLoop,
        LocalJoinStrategy::kPlaneSweep}) {
    TouchOptions options;
    options.leaf_capacity = 32;
    options.fanout = 2;
    options.local_join = strategy;
    TouchJoin join(options);
    VectorCollector out;
    join.JoinWithPrebuiltTree(tree, build, probe, out, epsilon);
    auto pairs = out.pairs();
    std::sort(pairs.begin(), pairs.end());
    EXPECT_EQ(pairs, oracle) << static_cast<int>(strategy);
  }
}

TEST_F(PrebuiltTreeTest, EmptyIndexIsSafe) {
  const RTree index(Dataset{}, 32, 4);
  EXPECT_TRUE(index.empty());
  TouchJoin join;
  VectorCollector out;
  const JoinStats stats = join.JoinWithPrebuiltTree(index, {}, b_, out);
  EXPECT_EQ(stats.results, 0u);
}

}  // namespace
}  // namespace touch
