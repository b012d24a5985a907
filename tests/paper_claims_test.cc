// The paper's headline claims (section 6, figures 8-16), asserted on the
// deterministic work counters of one density-matched run: result counts,
// object comparisons and the analytic memory footprint. No wall-clock time
// is asserted, so the checks do not move with the host's load.

#include <cmath>
#include <map>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "datagen/distributions.h"

namespace touch {
namespace {

// The bench harness's density-matched shape: 20k x 20k uniform objects in a
// cube shrunk by cbrt(20k / 1.6M) (side ~232), so the object density, and
// with it the selectivity, is the paper's.
constexpr size_t kObjects = 20'000;
constexpr size_t kPaperObjects = 1'600'000;
constexpr float kEpsilon = 5.0f;

class PaperClaimsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticOptions options;
    options.space = static_cast<float>(
        1000.0 * std::cbrt(static_cast<double>(kObjects) / kPaperObjects));
    const Dataset a =
        GenerateSynthetic(Distribution::kUniform, kObjects, 51, options);
    const Dataset b =
        GenerateSynthetic(Distribution::kUniform, kObjects, 52, options);
    stats_ = new std::map<std::string, JoinStats>();
    for (const std::string name :
         {"touch", "pbsm-100", "s3", "inl", "rtree", "ps"}) {
      const std::unique_ptr<SpatialJoinAlgorithm> algorithm =
          MakeAlgorithm(name);
      ASSERT_NE(algorithm, nullptr) << name;
      CountingCollector out;
      (*stats_)[name] = DistanceJoin(*algorithm, a, b, kEpsilon, out);
    }
  }

  static void TearDownTestSuite() {
    delete stats_;
    stats_ = nullptr;
  }

  static const JoinStats& Stats(const std::string& name) {
    return stats_->at(name);
  }

  static std::map<std::string, JoinStats>* stats_;
};

std::map<std::string, JoinStats>* PaperClaimsTest::stats_ = nullptr;

TEST_F(PaperClaimsTest, EveryJoinFindsTheSameResults) {
  const uint64_t expected = Stats("touch").results;
  ASSERT_GT(expected, 0u);
  for (const auto& [name, stats] : *stats_) {
    EXPECT_EQ(stats.results, expected) << name;
  }
}

// Figures 8-11: TOUCH assigns every object once, while PBSM replicates
// objects into every grid cell they overlap.
TEST_F(PaperClaimsTest, TouchUsesFarLessMemoryThanPbsm) {
  EXPECT_GE(Stats("pbsm-100").memory_bytes, 50 * Stats("touch").memory_bytes);
}

// Figures 8-11: TOUCH's data-oriented partitioning filters with far fewer
// object comparisons than the tree-based joins and S3's level grids.
TEST_F(PaperClaimsTest, TouchMakesFarFewerComparisonsThanTreesAndS3) {
  const uint64_t touch = Stats("touch").comparisons;
  ASSERT_GT(touch, 0u);
  EXPECT_GE(Stats("rtree").comparisons, 8 * touch);
  EXPECT_GE(Stats("inl").comparisons, 8 * touch);
  EXPECT_GE(Stats("s3").comparisons, 20 * touch);
}

}  // namespace
}  // namespace touch
