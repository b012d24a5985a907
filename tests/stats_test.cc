#include "util/stats.h"

#include <gtest/gtest.h>

#include "core/factory.h"
#include "util/memory.h"

namespace touch {
namespace {

TEST(JoinStatsTest, DefaultsAreZero) {
  const JoinStats s;
  EXPECT_EQ(s.comparisons, 0u);
  EXPECT_EQ(s.results, 0u);
  EXPECT_EQ(s.filtered, 0u);
  EXPECT_EQ(s.memory_bytes, 0u);
  EXPECT_DOUBLE_EQ(s.total_seconds, 0.0);
}

TEST(JoinStatsTest, SelectivityDefinition) {
  JoinStats s;
  s.results = 50;
  EXPECT_DOUBLE_EQ(s.Selectivity(100, 100), 50.0 / 10000.0);
}

TEST(JoinStatsTest, SelectivityOfEmptyInputsIsZero) {
  JoinStats s;
  s.results = 10;
  EXPECT_DOUBLE_EQ(s.Selectivity(0, 100), 0.0);
  EXPECT_DOUBLE_EQ(s.Selectivity(100, 0), 0.0);
}

TEST(JoinStatsTest, MergeCountersSumsAndKeepsPeakMemory) {
  JoinStats a;
  a.comparisons = 10;
  a.results = 2;
  a.filtered = 1;
  a.memory_bytes = 100;
  JoinStats b;
  b.comparisons = 5;
  b.results = 3;
  b.node_comparisons = 7;
  b.memory_bytes = 50;
  a.MergeCounters(b);
  EXPECT_EQ(a.comparisons, 15u);
  EXPECT_EQ(a.results, 5u);
  EXPECT_EQ(a.filtered, 1u);
  EXPECT_EQ(a.node_comparisons, 7u);
  EXPECT_EQ(a.memory_bytes, 100u);  // max, not sum
}

TEST(JoinStatsTest, ToStringMentionsKeyCounters) {
  JoinStats s;
  s.comparisons = 1234;
  s.results = 56;
  const std::string text = s.ToString();
  EXPECT_NE(text.find("1234"), std::string::npos);
  EXPECT_NE(text.find("56"), std::string::npos);
}

TEST(MemoryHelpersTest, VectorBytesUsesCapacity) {
  std::vector<uint64_t> v;
  v.reserve(100);
  EXPECT_EQ(VectorBytes(v), 100 * sizeof(uint64_t));
}

TEST(FactoryTest, BuildsEveryAdvertisedAlgorithm) {
  for (const std::string& name : AllAlgorithmNames()) {
    const auto algorithm = MakeAlgorithm(name);
    ASSERT_NE(algorithm, nullptr) << name;
    // pbsm-500/pbsm-100 share the family name "pbsm".
    EXPECT_TRUE(name.rfind(std::string(algorithm->name()), 0) == 0) << name;
  }
}

TEST(FactoryTest, RejectsUnknownNames) {
  EXPECT_EQ(MakeAlgorithm("quadtree"), nullptr);
  EXPECT_EQ(MakeAlgorithm(""), nullptr);
  EXPECT_EQ(MakeAlgorithm("pbsm-"), nullptr);
  EXPECT_EQ(MakeAlgorithm("pbsm-0"), nullptr);
}

TEST(FactoryTest, PbsmResolutionSuffixIsParsed) {
  const auto algorithm = MakeAlgorithm("pbsm-123");
  ASSERT_NE(algorithm, nullptr);
  const auto* pbsm = dynamic_cast<PbsmJoin*>(algorithm.get());
  ASSERT_NE(pbsm, nullptr);
  EXPECT_EQ(pbsm->options().resolution, 123);
}

TEST(FactoryTest, ConfigIsForwarded) {
  AlgorithmConfig config;
  config.touch.fanout = 9;
  config.s3.levels = 3;
  const auto touch_join = MakeAlgorithm("touch", config);
  EXPECT_EQ(dynamic_cast<TouchJoin*>(touch_join.get())->options().fanout, 9u);
  const auto s3_join = MakeAlgorithm("s3", config);
  EXPECT_EQ(dynamic_cast<S3Join*>(s3_join.get())->options().levels, 3);
}

}  // namespace
}  // namespace touch
