#include "engine/planner.h"

#include <gtest/gtest.h>

#include "datagen/distributions.h"
#include "test_util.h"

namespace touch {
namespace {

/// Catalog with one dataset per cardinality/distribution the tests need.
class PlannerTest : public ::testing::Test {
 protected:
  DatasetHandle Add(Distribution distribution, size_t count, uint64_t seed) {
    return catalog_.Register("d" + std::to_string(seed),
                             GenerateSynthetic(distribution, count, seed));
  }

  DatasetCatalog catalog_;
  Planner planner_;
};

TEST_F(PlannerTest, TinyInputsPlanNestedLoop) {
  const DatasetHandle a = Add(Distribution::kUniform, 40, 1);
  const DatasetHandle b = Add(Distribution::kUniform, 60, 2);
  const JoinPlan plan = planner_.Plan(catalog_, {a, b, 1.0f});
  EXPECT_EQ(plan.algorithm, "nl");
}

TEST_F(PlannerTest, SmallInputsPlanPlaneSweep) {
  const DatasetHandle a = Add(Distribution::kUniform, 1200, 3);
  const DatasetHandle b = Add(Distribution::kUniform, 1800, 4);
  const JoinPlan plan = planner_.Plan(catalog_, {a, b, 1.0f});
  EXPECT_EQ(plan.algorithm, "ps");
}

TEST_F(PlannerTest, EmptyInputPlansNestedLoop) {
  const DatasetHandle a = catalog_.Register("empty", Dataset{});
  const DatasetHandle b = Add(Distribution::kUniform, 5000, 5);
  const JoinPlan plan = planner_.Plan(catalog_, {a, b, 0.0f});
  EXPECT_EQ(plan.algorithm, "nl");
}

// INL is the memory-budget fallback for extreme cardinality asymmetry: its
// footprint is just the small tree. Without a budget the same pair plans
// TOUCH (skewed data), since partitioning is measured faster when memory is
// free.
TEST_F(PlannerTest, TightBudgetAndAsymmetryPlanIndexedNestedLoop) {
  const DatasetHandle small = Add(Distribution::kClustered, 1200, 6);
  const DatasetHandle large = Add(Distribution::kClustered, 120000, 7);
  EXPECT_EQ(planner_.Plan(catalog_, {small, large, 1.0f}).algorithm, "touch");

  PlannerOptions options;
  options.memory_budget_bytes = 2 << 20;
  const Planner constrained(options);
  const JoinPlan forward = constrained.Plan(catalog_, {small, large, 1.0f});
  EXPECT_EQ(forward.algorithm, "inl");
  EXPECT_TRUE(forward.build_on_a);  // the tree goes on the smaller side

  const JoinPlan reversed = constrained.Plan(catalog_, {large, small, 1.0f});
  EXPECT_EQ(reversed.algorithm, "inl");
  EXPECT_FALSE(reversed.build_on_a);
}

TEST_F(PlannerTest, TightBudgetWithoutAsymmetryPlansPlaneSweep) {
  const DatasetHandle a = Add(Distribution::kClustered, 30000, 18);
  const DatasetHandle b = Add(Distribution::kClustered, 60000, 19);
  PlannerOptions options;
  options.memory_budget_bytes = 1 << 20;
  const Planner constrained(options);
  const JoinPlan plan = constrained.Plan(catalog_, {a, b, 1.0f});
  EXPECT_EQ(plan.algorithm, "ps");
  EXPECT_NE(plan.rationale.find("memory budget"), std::string::npos);
}

TEST_F(PlannerTest, UniformMidSizeInputsPlanPbsm) {
  const DatasetHandle a = Add(Distribution::kUniform, 30000, 8);
  const DatasetHandle b = Add(Distribution::kUniform, 40000, 9);
  const JoinPlan plan = planner_.Plan(catalog_, {a, b, 1.0f});
  EXPECT_EQ(plan.algorithm.rfind("pbsm-", 0), 0u) << plan.algorithm;
}

// Two individually-uniform datasets whose extents barely overlap form a
// joint hotspot; PBSM's uniformity assumption does not hold there.
TEST_F(PlannerTest, MismatchedExtentsAvoidPbsm) {
  SyntheticOptions tiny;
  tiny.space = 40.0f;
  const DatasetHandle small_extent = catalog_.Register(
      "small_extent",
      GenerateSynthetic(Distribution::kUniform, 30000, 20, tiny));
  const DatasetHandle large_extent = Add(Distribution::kUniform, 40000, 21);
  const JoinPlan plan =
      planner_.Plan(catalog_, {small_extent, large_extent, 1.0f});
  EXPECT_EQ(plan.algorithm, "touch") << plan.rationale;
}

TEST_F(PlannerTest, ClusteredInputsPlanTouch) {
  const DatasetHandle a = Add(Distribution::kClustered, 30000, 10);
  const DatasetHandle b = Add(Distribution::kClustered, 60000, 11);
  const JoinPlan plan = planner_.Plan(catalog_, {a, b, 1.0f});
  EXPECT_EQ(plan.algorithm, "touch");
  EXPECT_GT(plan.touch.partitions, 0u);
  EXPECT_GT(plan.expected_results, 0);
}

// 2-D data (every z extent zero) must not collapse TOUCH's grid to one cell:
// the grid cap is taken over the axes that have an extent.
TEST_F(PlannerTest, FlatInputsKeepAFineTouchGrid) {
  const auto add_flat = [&](size_t count, uint64_t seed) {
    Dataset boxes = GenerateSynthetic(Distribution::kClustered, count, seed);
    for (Box& box : boxes) box.lo.z = box.hi.z = 0.0f;
    return catalog_.Register("flat" + std::to_string(seed), std::move(boxes));
  };
  const DatasetHandle a = add_flat(30000, 40);
  const DatasetHandle b = add_flat(60000, 41);
  const JoinPlan plan = planner_.Plan(catalog_, {a, b, 1.0f});
  ASSERT_EQ(plan.algorithm, "touch") << plan.rationale;
  EXPECT_GT(plan.touch.grid_resolution, 1) << plan.ToString();
}

// Paper section 5.2.3: the smaller (sparser) dataset builds the tree,
// whichever side of the request it is on.
TEST_F(PlannerTest, TouchBuildsOnTheSmallerDataset) {
  const DatasetHandle small = Add(Distribution::kClustered, 30000, 12);
  const DatasetHandle large = Add(Distribution::kClustered, 60000, 13);

  const JoinPlan forward = planner_.Plan(catalog_, {small, large, 1.0f});
  ASSERT_EQ(forward.algorithm, "touch");
  EXPECT_TRUE(forward.build_on_a);
  EXPECT_EQ(forward.touch.join_order, TouchOptions::JoinOrder::kBuildOnA);

  const JoinPlan reversed = planner_.Plan(catalog_, {large, small, 1.0f});
  ASSERT_EQ(reversed.algorithm, "touch");
  EXPECT_FALSE(reversed.build_on_a);
  EXPECT_EQ(reversed.touch.join_order, TouchOptions::JoinOrder::kBuildOnB);
}

TEST_F(PlannerTest, EveryPlanExplainsItself) {
  const DatasetHandle a = Add(Distribution::kClustered, 30000, 14);
  const DatasetHandle b = Add(Distribution::kUniform, 50, 15);
  for (const JoinRequest& request :
       {JoinRequest{a, b, 1.0f}, JoinRequest{b, a, 1.0f},
        JoinRequest{a, a, 0.0f}, JoinRequest{b, b, 0.0f}}) {
    const JoinPlan plan = planner_.Plan(catalog_, request);
    EXPECT_FALSE(plan.rationale.empty());
    const std::string text = plan.ToString();
    EXPECT_NE(text.find("algorithm="), std::string::npos);
    EXPECT_NE(text.find("reason:"), std::string::npos);
    EXPECT_NE(text.find(plan.algorithm), std::string::npos);
  }
}

// Planning consumes only registration-time stats: the stats-only overload —
// which cannot reach any geometry by construction — must produce the very
// same plans as planning through the catalog.
TEST_F(PlannerTest, StatsOnlyOverloadMatchesCatalogPlanning) {
  const DatasetHandle clustered = Add(Distribution::kClustered, 30000, 22);
  const DatasetHandle uniform = Add(Distribution::kUniform, 40000, 23);
  const DatasetHandle tiny = Add(Distribution::kUniform, 50, 24);
  for (const JoinRequest& request :
       {JoinRequest{clustered, uniform, 1.0f},
        JoinRequest{uniform, uniform, 2.0f}, JoinRequest{tiny, clustered, 0.5f},
        JoinRequest{clustered, clustered, 0.0f}}) {
    const JoinPlan via_catalog = planner_.Plan(catalog_, request);
    const JoinPlan via_stats =
        planner_.Plan(catalog_.stats(request.a), catalog_.stats(request.b),
                      request.epsilon);
    EXPECT_EQ(via_catalog.algorithm, via_stats.algorithm);
    EXPECT_EQ(via_catalog.build_on_a, via_stats.build_on_a);
    EXPECT_EQ(via_catalog.touch.partitions, via_stats.touch.partitions);
    EXPECT_EQ(via_catalog.rationale, via_stats.rationale);
    EXPECT_DOUBLE_EQ(via_catalog.expected_results, via_stats.expected_results);
  }
}

TEST_F(PlannerTest, LargerEpsilonRaisesTheEstimate) {
  const DatasetHandle a = Add(Distribution::kClustered, 30000, 16);
  const DatasetHandle b = Add(Distribution::kClustered, 60000, 17);
  const JoinPlan narrow = planner_.Plan(catalog_, {a, b, 0.5f});
  const JoinPlan wide = planner_.Plan(catalog_, {a, b, 5.0f});
  EXPECT_GT(wide.expected_results, narrow.expected_results);
}

}  // namespace
}  // namespace touch
