// The paper's headline claims (section 6, figures 8-16), asserted on the
// deterministic work counters of density-matched runs: result counts,
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

// The bench harness's density-matched shapes: 20k x 20k objects in a cube
// shrunk by cbrt(20k / 1.6M) (side ~232), so the object density, and with it
// the selectivity, is the paper's. The clustered shape shrinks its hotspots'
// spread by the same factor.
constexpr size_t kObjects = 20'000;
constexpr size_t kPaperObjects = 1'600'000;
constexpr float kEpsilon = 5.0f;

using Lineup = std::map<std::string, JoinStats>;

void RunLineup(Distribution distribution, const SyntheticOptions& options,
               Lineup* lineup) {
  const Dataset a = GenerateSynthetic(distribution, kObjects, 51, options);
  const Dataset b = GenerateSynthetic(distribution, kObjects, 52, options);
  for (const std::string name :
       {"touch", "pbsm-100", "s3", "inl", "rtree", "ps"}) {
    const std::unique_ptr<SpatialJoinAlgorithm> algorithm =
        MakeAlgorithm(name);
    ASSERT_NE(algorithm, nullptr) << name;
    CountingCollector out;
    (*lineup)[name] = DistanceJoin(*algorithm, a, b, kEpsilon, out);
  }
}

class PaperClaimsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const double shrink =
        std::cbrt(static_cast<double>(kObjects) / kPaperObjects);
    SyntheticOptions options;
    options.space = static_cast<float>(1000.0 * shrink);
    uniform_ = new Lineup();
    RunLineup(Distribution::kUniform, options, uniform_);
    options.cluster_sigma = static_cast<float>(220.0 * shrink);
    clustered_ = new Lineup();
    RunLineup(Distribution::kClustered, options, clustered_);
  }

  static void TearDownTestSuite() {
    delete uniform_;
    uniform_ = nullptr;
    delete clustered_;
    clustered_ = nullptr;
  }

  static const JoinStats& Stats(const std::string& name) {
    return uniform_->at(name);
  }
  static const JoinStats& Clustered(const std::string& name) {
    return clustered_->at(name);
  }

  static Lineup* uniform_;
  static Lineup* clustered_;
};

Lineup* PaperClaimsTest::uniform_ = nullptr;
Lineup* PaperClaimsTest::clustered_ = nullptr;

TEST_F(PaperClaimsTest, EveryJoinFindsTheSameResults) {
  for (const Lineup* lineup : {uniform_, clustered_}) {
    const uint64_t expected = lineup->at("touch").results;
    ASSERT_GT(expected, 0u);
    for (const auto& [name, stats] : *lineup) {
      EXPECT_EQ(stats.results, expected) << name;
    }
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

// Figure 11: on clustered data TOUCH keeps both margins. Each bound is at
// most half the measured ratio (pbsm-100 memory 96x, rtree 14x, inl 16x and
// s3 37x TOUCH's comparisons). pbsm-100 makes fewer comparisons than TOUCH
// at this scale, so that ratio is not asserted.
TEST_F(PaperClaimsTest, ClusteredTouchUsesFarLessMemoryThanPbsm) {
  EXPECT_GE(Clustered("pbsm-100").memory_bytes,
            45 * Clustered("touch").memory_bytes);
}

TEST_F(PaperClaimsTest, ClusteredTouchMakesFarFewerComparisonsThanTreesAndS3) {
  const uint64_t touch = Clustered("touch").comparisons;
  ASSERT_GT(touch, 0u);
  EXPECT_GE(Clustered("rtree").comparisons, 7 * touch);
  EXPECT_GE(Clustered("inl").comparisons, 7 * touch);
  EXPECT_GE(Clustered("s3").comparisons, 18 * touch);
}

}  // namespace
}  // namespace touch
