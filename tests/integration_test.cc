// Cross-module integration tests: the full pipelines a downstream user runs,
// wired end to end — generate → persist → reload → filter → refine,
// parallel TOUCH feeding streaming refinement, prebuilt-index joins feeding
// refinement, and the estimator planning a real join. Each test crosses at
// least three modules; unit behaviour is covered elsewhere.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>
#include <string>

#include "core/factory.h"
#include "datagen/distributions.h"
#include "datagen/neuro.h"
#include "engine/catalog.h"
#include "io/dataset_io.h"
#include "refine/refine.h"
#include "test_util.h"
#include "util/rng.h"

namespace touch {
namespace {

using PairSet = std::set<IdPair>;

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/touch_integration_" + name;
}

TEST(IntegrationTest, GeneratePersistReloadJoinRefine) {
  // The full neuroscience workflow: grow tissue, write it to disk, read it
  // back, run the filter+refine distance join, and cross-check the synapse
  // set against an in-memory run on the original model.
  NeuroOptions opt;
  opt.neurons = 6;
  opt.segments_per_branch = 12;
  const NeuroModel model = GenerateNeuroscience(opt, 211);
  const std::string path = TempPath("model.bin");
  ASSERT_TRUE(WriteNeuroModelBinary(path, model).ok);

  NeuroModel reloaded;
  ASSERT_TRUE(ReadNeuroModelBinary(path, &reloaded).ok);
  std::remove(path.c_str());
  ASSERT_EQ(reloaded.axons.size(), model.axons.size());

  constexpr double kEpsilon = 6.0;
  TouchJoin join;
  VectorCollector original_out;
  CylinderDistanceJoin(join, model.axons, model.dendrites, kEpsilon,
                       original_out);
  VectorCollector reloaded_out;
  const RefineStats stats = CylinderDistanceJoin(
      join, reloaded.axons, reloaded.dendrites, kEpsilon, reloaded_out);

  EXPECT_EQ(PairSet(original_out.pairs().begin(), original_out.pairs().end()),
            PairSet(reloaded_out.pairs().begin(), reloaded_out.pairs().end()));
  EXPECT_GT(stats.confirmed, 0u);
}

TEST(IntegrationTest, CsvInterchangeFeedsEveryAlgorithm) {
  // Boxes written as CSV (the spreadsheet-facing format) and read back must
  // give every algorithm the identical problem.
  const Dataset a = GenerateSynthetic(Distribution::kClustered, 400, 212);
  const Dataset b = GenerateSynthetic(Distribution::kClustered, 700, 213);
  const std::string path_a = TempPath("a.csv");
  const std::string path_b = TempPath("b.csv");
  ASSERT_TRUE(WriteBoxesCsv(path_a, a).ok);
  ASSERT_TRUE(WriteBoxesCsv(path_b, b).ok);
  Dataset a2;
  Dataset b2;
  ASSERT_TRUE(ReadBoxesCsv(path_a, &a2).ok);
  ASSERT_TRUE(ReadBoxesCsv(path_b, &b2).ok);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());

  Dataset enlarged = a2;
  for (Box& box : enlarged) box = box.Enlarged(10.0f);
  const auto oracle = OracleJoin(enlarged, b2);
  ASSERT_FALSE(oracle.empty());
  for (const std::string& name : AllAlgorithmNames()) {
    if (name == "nl") continue;  // the oracle itself
    std::unique_ptr<SpatialJoinAlgorithm> algorithm = MakeAlgorithm(name);
    ASSERT_NE(algorithm, nullptr) << name;
    EXPECT_EQ(RunJoinSorted(*algorithm, enlarged, b2), oracle) << name;
  }
}

TEST(IntegrationTest, ParallelTouchWithRefinement) {
  // Multi-threaded TOUCH feeding streaming refinement on the collector
  // side. The refining collector is not thread-safe, so this also shows
  // that parallel TOUCH emits from one thread only.
  Rng rng(214);
  std::vector<Sphere> spheres_a;
  std::vector<Sphere> spheres_b;
  for (int i = 0; i < 600; ++i) {
    spheres_a.emplace_back(Vec3(rng.NextFloat() * 300, rng.NextFloat() * 300,
                                rng.NextFloat() * 300),
                           1.0f + rng.NextFloat());
    spheres_b.emplace_back(Vec3(rng.NextFloat() * 300, rng.NextFloat() * 300,
                                rng.NextFloat() * 300),
                           1.0f + rng.NextFloat());
  }
  constexpr double kEpsilon = 15.0;

  PairSet expected;
  for (uint32_t i = 0; i < spheres_a.size(); ++i) {
    for (uint32_t j = 0; j < spheres_b.size(); ++j) {
      if (SpheresWithinDistance(spheres_a[i], spheres_b[j], kEpsilon)) {
        expected.insert({i, j});
      }
    }
  }
  ASSERT_FALSE(expected.empty());

  Dataset boxes_a;
  Dataset boxes_b;
  for (const Sphere& s : spheres_a) boxes_a.push_back(s.Mbr());
  for (const Sphere& s : spheres_b) boxes_b.push_back(s.Mbr());

  VectorCollector confirmed;
  RefiningCollector refine(
      [&](uint32_t i, uint32_t j) {
        return SpheresWithinDistance(spheres_a[i], spheres_b[j], kEpsilon);
      },
      confirmed);

  AlgorithmConfig config;
  config.touch.threads = 3;
  const std::unique_ptr<SpatialJoinAlgorithm> touch =
      MakeAlgorithm("touch", config);
  DistanceJoin(*touch, boxes_a, boxes_b, static_cast<float>(kEpsilon),
               refine);

  EXPECT_EQ(PairSet(confirmed.pairs().begin(), confirmed.pairs().end()),
            expected);
  EXPECT_EQ(refine.stats().confirmed, expected.size());
}

TEST(IntegrationTest, PrebuiltIndexSharedAcrossJoins) {
  // One R-tree on A reused as the TOUCH tree for several probe datasets (the
  // section-4.3 shortcut): the amortized-build pattern of a long-lived
  // service.
  const Dataset a = GenerateSynthetic(Distribution::kGaussian, 1200, 215);
  Dataset enlarged = a;
  for (Box& box : enlarged) box = box.Enlarged(8.0f);
  const RTree tree(enlarged, 32, 4);

  TouchJoin join;
  for (uint64_t seed = 300; seed < 304; ++seed) {
    const Dataset b = GenerateSynthetic(Distribution::kGaussian, 900, seed);
    VectorCollector out;
    const JoinStats stats = join.JoinWithPrebuiltTree(tree, enlarged, b, out);
    auto pairs = out.pairs();
    std::sort(pairs.begin(), pairs.end());
    EXPECT_EQ(pairs, OracleJoin(enlarged, b)) << "seed " << seed;
    EXPECT_EQ(stats.build_seconds, 0.0);
  }
}

TEST(IntegrationTest, EstimatorGuidesRealJoin) {
  // The planner loop: estimate from registration-time stats, build on the
  // smaller side, run, verify the estimate was in a 3x band of reality.
  const Dataset a = GenerateSynthetic(Distribution::kGaussian, 3000, 216);
  const Dataset b = GenerateSynthetic(Distribution::kGaussian, 6000, 217);
  constexpr float kEpsilon = 5.0f;

  const double predicted =
      CombineHistograms(ComputeDatasetStats(a), ComputeDatasetStats(b),
                        kEpsilon)
          .expected_results;

  TouchOptions opt;
  opt.join_order = a.size() <= b.size() ? TouchOptions::JoinOrder::kBuildOnA
                                        : TouchOptions::JoinOrder::kBuildOnB;
  TouchJoin join(opt);
  CountingCollector out;
  const JoinStats stats = DistanceJoin(join, a, b, kEpsilon, out);
  ASSERT_GT(stats.results, 0u);
  EXPECT_GT(predicted, static_cast<double>(stats.results) / 3.0);
  EXPECT_LT(predicted, static_cast<double>(stats.results) * 3.0);
}

TEST(IntegrationTest, BinaryDatasetsSurviveAlgorithmRoundRobin) {
  // Write with one epsilon-enlarged dataset, then confirm a chain of
  // different algorithms (one per family) all agree on the reloaded data.
  const Dataset a = GenerateSynthetic(Distribution::kUniform, 800, 218);
  const Dataset b = GenerateSynthetic(Distribution::kUniform, 1200, 219);
  const std::string path = TempPath("roundrobin.bin");
  ASSERT_TRUE(WriteBoxesBinary(path, b).ok);
  Dataset reloaded;
  ASSERT_TRUE(ReadBoxesBinary(path, &reloaded).ok);
  std::remove(path.c_str());

  std::vector<IdPair> reference;
  bool first = true;
  for (const std::string name : {"touch", "pbsm-50", "rtree"}) {
    std::unique_ptr<SpatialJoinAlgorithm> algorithm = MakeAlgorithm(name);
    VectorCollector out;
    DistanceJoin(*algorithm, a, reloaded, 12.0f, out);
    auto pairs = out.pairs();
    std::sort(pairs.begin(), pairs.end());
    if (first) {
      reference = pairs;
      ASSERT_FALSE(reference.empty());
      first = false;
    } else {
      EXPECT_EQ(pairs, reference) << name;
    }
  }
}

}  // namespace
}  // namespace touch
