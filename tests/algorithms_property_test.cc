// The cross-algorithm oracle suite: every join algorithm must produce
// exactly the nested-loop join's result set (sorted pair-vector equality, not
// just counts) on every combination of distribution, cardinality ratio and
// distance threshold. This is the library's equivalent of the paper's
// correctness theorem (section 4.6) checked empirically for all algorithms.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/factory.h"
#include "datagen/distributions.h"
#include "join/algorithm.h"
#include "test_util.h"

namespace touch {
namespace {

struct PropertyCase {
  std::string algorithm;
  Distribution distribution;
  size_t size_a;
  size_t size_b;
  float epsilon;
};

std::string CaseName(const ::testing::TestParamInfo<PropertyCase>& info) {
  const PropertyCase& c = info.param;
  std::string name = c.algorithm + "_";
  name += DistributionName(c.distribution);
  name += "_a" + std::to_string(c.size_a) + "_b" + std::to_string(c.size_b);
  name += "_eps" + std::to_string(static_cast<int>(c.epsilon));
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

class JoinPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(JoinPropertyTest, MatchesNestedLoopOracle) {
  const PropertyCase& c = GetParam();
  // A compact space and generous object sizes so that even the smallest
  // configuration produces a non-empty result set to compare.
  SyntheticOptions opt;
  opt.space = 200.0f;
  opt.max_side = 4.0f;
  Dataset a = GenerateSynthetic(c.distribution, c.size_a, /*seed=*/1001, opt);
  const Dataset b =
      GenerateSynthetic(c.distribution, c.size_b, /*seed=*/2002, opt);
  for (Box& box : a) box = box.Enlarged(c.epsilon);

  const auto oracle = OracleJoin(a, b);
  ASSERT_FALSE(oracle.empty()) << "degenerate case: no results";

  std::unique_ptr<SpatialJoinAlgorithm> algorithm =
      MakeAlgorithm(c.algorithm);
  ASSERT_NE(algorithm, nullptr);
  JoinStats stats;
  const auto pairs = RunJoinSorted(*algorithm, a, b, &stats);
  EXPECT_EQ(pairs, oracle);
  EXPECT_EQ(stats.results, oracle.size());
}

std::vector<PropertyCase> AllCases() {
  std::vector<PropertyCase> cases;
  // Every factory name but the nl oracle itself, so a new name is checked
  // against it without being listed here. PBSM resolutions are chosen for
  // the 200-unit test space: pbsm-500 would replicate each enlarged box into
  // ~10^5 cells and thrash memory for no extra coverage, so it runs as
  // pbsm-40 and pbsm-7 (cell edges of 5 and ~28 units) beside pbsm-100's 2.
  std::vector<std::string> algorithms;
  for (const std::string& name : AllAlgorithmNames()) {
    if (name == "nl") continue;
    if (name == "pbsm-500") {
      algorithms.insert(algorithms.end(), {"pbsm-40", "pbsm-7"});
      continue;
    }
    algorithms.push_back(name);
  }
  const Distribution distributions[] = {
      Distribution::kUniform, Distribution::kGaussian,
      Distribution::kClustered};
  const std::pair<size_t, size_t> sizes[] = {{200, 200}, {100, 700}, {700, 100}};
  const float epsilons[] = {5.0f, 25.0f};
  for (const auto& algorithm : algorithms) {
    for (const Distribution distribution : distributions) {
      for (const auto& [size_a, size_b] : sizes) {
        for (const float epsilon : epsilons) {
          cases.push_back(
              PropertyCase{algorithm, distribution, size_a, size_b, epsilon});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, JoinPropertyTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

// TOUCH parameter grid: the oracle equality must hold for every combination
// of its tuning knobs, not just the defaults.
struct TouchParamCase {
  size_t fanout;
  size_t partitions;
  LocalJoinStrategy local_join;
  TouchOptions::JoinOrder join_order;
};

std::string TouchCaseName(
    const ::testing::TestParamInfo<TouchParamCase>& info) {
  const TouchParamCase& c = info.param;
  std::string name = "f" + std::to_string(c.fanout) + "_p" +
                     std::to_string(c.partitions) + "_";
  name += LocalJoinStrategyName(c.local_join);
  name += c.join_order == TouchOptions::JoinOrder::kAuto        ? "_auto"
          : c.join_order == TouchOptions::JoinOrder::kBuildOnA ? "_onA"
                                                               : "_onB";
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

class TouchParamTest : public ::testing::TestWithParam<TouchParamCase> {};

TEST_P(TouchParamTest, MatchesNestedLoopOracle) {
  const TouchParamCase& c = GetParam();
  SyntheticOptions gen;
  gen.max_side = 3.0f;
  Dataset a = GenerateSynthetic(Distribution::kClustered, 400, 42, gen);
  const Dataset b = GenerateSynthetic(Distribution::kClustered, 600, 43, gen);
  for (Box& box : a) box = box.Enlarged(10.0f);

  TouchOptions opt;
  opt.fanout = c.fanout;
  opt.partitions = c.partitions;
  opt.local_join = c.local_join;
  opt.join_order = c.join_order;
  TouchJoin join(opt);
  EXPECT_EQ(RunJoinSorted(join, a, b), OracleJoin(a, b));
}

std::vector<TouchParamCase> TouchParameterGrid() {
  std::vector<TouchParamCase> cases;
  for (const size_t fanout : {2u, 5u, 16u}) {
    for (const size_t partitions : {1u, 32u, 4096u}) {
      for (const LocalJoinStrategy local_join :
           {LocalJoinStrategy::kGrid, LocalJoinStrategy::kPlaneSweep}) {
        for (const TouchOptions::JoinOrder join_order :
             {TouchOptions::JoinOrder::kAuto,
              TouchOptions::JoinOrder::kBuildOnA,
              TouchOptions::JoinOrder::kBuildOnB}) {
          cases.push_back(
              TouchParamCase{fanout, partitions, local_join, join_order});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(ParameterGrid, TouchParamTest,
                         ::testing::ValuesIn(TouchParameterGrid()),
                         TouchCaseName);

}  // namespace
}  // namespace touch
