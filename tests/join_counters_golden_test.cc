// Exact work counters of the tree-based joins on one fixed input. The
// counters are deterministic functions of the tree shapes and traversal
// orders, so a change to how a tree is stored must leave every one of them
// where it was, at every dispatch level.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "core/factory.h"
#include "core/overlap_kernel.h"
#include "datagen/distributions.h"
#include "join/algorithm.h"
#include "util/simd.h"

namespace touch {
namespace {

struct Expected {
  std::string algorithm;
  LocalJoinStrategy local_join;  // TOUCH's local join; ignored by the others
  uint64_t comparisons;
  uint64_t node_comparisons;
  uint64_t results;
  uint64_t filtered;
};

JoinStats RunCounted(const Expected& e, std::span<const Box> a,
                     std::span<const Box> b) {
  AlgorithmConfig config;
  config.touch.local_join = e.local_join;
  std::unique_ptr<SpatialJoinAlgorithm> algorithm =
      MakeAlgorithm(e.algorithm, config);
  EXPECT_NE(algorithm, nullptr) << e.algorithm;
  if (algorithm == nullptr) return {};
  CountingCollector out;
  return algorithm->Join(a, b, out);
}

// Clustered data, A enlarged by a distance threshold (the distance join),
// tested at the scalar reference level and at the widest level this CPU
// runs.
TEST(JoinCountersGoldenTest, TreeJoinCountersAreUnchanged) {
  constexpr float kEpsilon = 3.0f;
  SyntheticOptions options;
  options.max_side = 4.0f;
  options.clusters = 20;
  options.cluster_sigma = 15.0f;
  // One draw split in two, so both sides share the same clusters.
  const Dataset all =
      GenerateSynthetic(Distribution::kClustered, 5000, /*seed=*/29, options);
  Dataset a(all.begin(), all.begin() + 2000);
  const Dataset b(all.begin() + 2000, all.end());
  for (Box& box : a) box = box.Enlarged(kEpsilon);

  const Expected expected[] = {
      {"touch", LocalJoinStrategy::kGrid, 32934, 11558, 2144, 15},
      {"touch", LocalJoinStrategy::kNestedLoop, 5363204, 11340, 2144, 15},
      {"touch", LocalJoinStrategy::kPlaneSweep, 98354, 11340, 2144, 15},
      {"inl", LocalJoinStrategy::kGrid, 247968, 42168, 2144, 0},
      {"rtree", LocalJoinStrategy::kGrid, 51878, 805, 2144, 0},
      {"rtree-hilbert", LocalJoinStrategy::kGrid, 65481, 884, 2144, 0},
      {"rtree-tgs", LocalJoinStrategy::kGrid, 57223, 600, 2144, 0},
      {"rtree-guttman", LocalJoinStrategy::kGrid, 41242, 4395, 2144, 0},
      {"rtree-rstar", LocalJoinStrategy::kGrid, 36642, 4176, 2144, 0},
  };
  const simd::Level entry = ActiveSimdLevel();
  const simd::Level levels[] = {simd::Level::kScalar,
                                simd::RuntimeAvailableLevels().back()};
  for (const simd::Level level : levels) {
    ASSERT_TRUE(ForceSimdLevel(level));
    for (const Expected& e : expected) {
      const JoinStats stats = RunCounted(e, a, b);
      const std::string label = e.algorithm + " local_join=" +
                                std::to_string(static_cast<int>(e.local_join)) +
                                " simd=" + simd::LevelName(level);
      EXPECT_EQ(stats.comparisons, e.comparisons) << label;
      EXPECT_EQ(stats.node_comparisons, e.node_comparisons) << label;
      EXPECT_EQ(stats.results, e.results) << label;
      EXPECT_EQ(stats.filtered, e.filtered) << label;
    }
  }
  ForceSimdLevel(entry);
}

}  // namespace
}  // namespace touch
