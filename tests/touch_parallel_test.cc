// Tests of the multi-threaded TOUCH join: the STR build and the local joins
// run on a pool's helpers, but emission stays on the calling thread in the
// sequential order, so the pair *sequence* and every JoinStats counter must
// equal the single-threaded run's.

#include <gtest/gtest.h>

#include "core/touch.h"
#include "datagen/distributions.h"
#include "test_util.h"
#include "util/worker_pool.h"

namespace touch {
namespace {

struct JoinRun {
  std::vector<IdPair> pairs;  // in emission order
  JoinStats stats;
};

JoinRun RunJoin(const TouchOptions& options, const Dataset& a, const Dataset& b,
                float epsilon = 0.0f) {
  TouchJoin join(options);
  VectorCollector out;
  JoinRun run;
  run.stats = epsilon > 0 ? DistanceJoin(join, a, b, epsilon, out)
                          : join.Join(a, b, out);
  run.pairs = out.pairs();
  return run;
}

void ExpectSameRun(const JoinRun& got, const JoinRun& expected) {
  EXPECT_EQ(got.pairs, expected.pairs);
  EXPECT_EQ(got.stats.results, expected.stats.results);
  EXPECT_EQ(got.stats.comparisons, expected.stats.comparisons);
  EXPECT_EQ(got.stats.node_comparisons, expected.stats.node_comparisons);
  EXPECT_EQ(got.stats.filtered, expected.stats.filtered);
  EXPECT_EQ(got.stats.memory_bytes, expected.stats.memory_bytes);
}

class TouchParallelTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    a_ = GenerateSynthetic(Distribution::kClustered, 3000, 111);
    for (Box& box : a_) box = box.Enlarged(6.0f);
    b_ = GenerateSynthetic(Distribution::kClustered, 6000, 112);
    // Large enough for STR slabs to fork and for grid nodes to be split
    // into item chunks.
    big_a_ = GenerateSynthetic(Distribution::kClustered, 40000, 117);
    big_b_ = GenerateSynthetic(Distribution::kClustered, 60000, 118);
  }
  Dataset a_;
  Dataset b_;
  Dataset big_a_;
  Dataset big_b_;
};

TEST_P(TouchParallelTest, PairSequenceAndCountersMatchSequentialRun) {
  TouchOptions parallel;
  parallel.threads = GetParam();
  const JoinRun expected = RunJoin(TouchOptions{}, a_, b_);
  ASSERT_FALSE(expected.pairs.empty());
  ExpectSameRun(RunJoin(parallel, a_, b_), expected);
}

TEST_P(TouchParallelTest, LargeJoinMatchesSequentialRun) {
  TouchOptions parallel;
  parallel.threads = GetParam();
  const JoinRun expected = RunJoin(TouchOptions{}, big_a_, big_b_, 2.0f);
  ASSERT_GT(expected.pairs.size(), 10000u);
  ExpectSameRun(RunJoin(parallel, big_a_, big_b_, 2.0f), expected);
}

TEST_P(TouchParallelTest, BuildOnBMatchesSequentialRun) {
  TouchOptions sequential;
  sequential.join_order = TouchOptions::JoinOrder::kBuildOnB;
  TouchOptions parallel = sequential;
  parallel.threads = GetParam();
  ExpectSameRun(RunJoin(parallel, big_a_, big_b_, 1.0f),
                RunJoin(sequential, big_a_, big_b_, 1.0f));
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, TouchParallelTest,
                         ::testing::Values(2, 4, 8));

// Assignment classifies the probe side in chunks of 8192 ids, so 40000 and
// 60000 probe objects split into several chunks. Whichever side builds the
// tree, the chunked assignment at 3 threads must give every node the same
// entities in the same order, the same counters, and the same pairs.
TEST(TouchParallelEdgeTest, ChunkedAssignmentMatchesSequentialRun) {
  const Dataset a = GenerateSynthetic(Distribution::kClustered, 40000, 119);
  const Dataset b = GenerateSynthetic(Distribution::kClustered, 60000, 120);
  constexpr float kEpsilon = 1.5f;
  WorkerPool pool(2);
  for (const auto order : {TouchOptions::JoinOrder::kBuildOnA,
                           TouchOptions::JoinOrder::kBuildOnB}) {
    const bool on_a = order == TouchOptions::JoinOrder::kBuildOnA;
    SCOPED_TRACE(on_a ? "build on A" : "build on B");
    const Dataset& build = on_a ? a : b;
    const Dataset& probe = on_a ? b : a;
    const RTree tree(build, (build.size() + 1023) / 1024, /*fanout=*/2);
    const TouchAssignment expected =
        AssignToTree(tree, probe, kEpsilon, {}, nullptr);
    HelperSet helpers;
    const TouchAssignment chunked =
        AssignToTree(tree, probe, kEpsilon, {}, &pool, &helpers);
    EXPECT_LE(helpers.count(), pool.thread_count());
    EXPECT_EQ(chunked.entity_offsets, expected.entity_offsets);
    EXPECT_EQ(chunked.entity_ids, expected.entity_ids);
    EXPECT_EQ(chunked.node_comparisons, expected.node_comparisons);
    EXPECT_EQ(chunked.filtered, expected.filtered);
    ASSERT_GT(expected.entity_ids.size(), 8192u);
    for (uint32_t node = 0; node < tree.nodes().size(); ++node) {
      const std::span<const uint32_t> ids = expected.Entities(node);
      EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    }

    TouchOptions sequential;
    sequential.join_order = order;
    TouchOptions parallel = sequential;
    parallel.threads = 3;
    const JoinRun want = RunJoin(sequential, a, b, kEpsilon);
    ASSERT_FALSE(want.pairs.empty());
    ExpectSameRun(RunJoin(parallel, a, b, kEpsilon), want);
  }
}

TEST(TouchParallelEdgeTest, ParallelDistanceJoinMatches) {
  const Dataset a = GenerateSynthetic(Distribution::kGaussian, 2000, 113);
  const Dataset b = GenerateSynthetic(Distribution::kGaussian, 4000, 114);
  TouchOptions parallel;
  parallel.threads = 4;
  ExpectSameRun(RunJoin(parallel, a, b, 7.5f),
                RunJoin(TouchOptions{}, a, b, 7.5f));
}

TEST(TouchParallelEdgeTest, TinyInputsWithManyThreads) {
  Dataset a = {CenteredBox(5, 5, 5), CenteredBox(6, 5, 5)};
  Dataset b = {CenteredBox(5, 5, 5)};
  TouchOptions opt;
  opt.threads = 16;
  TouchJoin join(opt);
  EXPECT_EQ(RunJoinSorted(join, a, b), OracleJoin(a, b));
}

TEST(TouchParallelEdgeTest, AllLocalJoinStrategiesParallelize) {
  const Dataset a = GenerateSynthetic(Distribution::kUniform, 1500, 115);
  const Dataset b = GenerateSynthetic(Distribution::kUniform, 2500, 116);
  Dataset enlarged = a;
  for (Box& box : enlarged) box = box.Enlarged(9.0f);
  const auto oracle = OracleJoin(enlarged, b);

  for (const LocalJoinStrategy strategy :
       {LocalJoinStrategy::kGrid, LocalJoinStrategy::kPlaneSweep,
        LocalJoinStrategy::kNestedLoop}) {
    TouchOptions sequential;
    sequential.local_join = strategy;
    TouchOptions parallel = sequential;
    parallel.threads = 4;
    const JoinRun expected = RunJoin(sequential, enlarged, b);
    ExpectSameRun(RunJoin(parallel, enlarged, b), expected);
    std::vector<IdPair> sorted = expected.pairs;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, oracle) << LocalJoinStrategyName(strategy);
  }
}

}  // namespace
}  // namespace touch
