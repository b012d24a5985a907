#include "core/touch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <random>
#include <stdexcept>
#include <string>

#include "datagen/distributions.h"
#include "test_util.h"

namespace touch {
namespace {

Dataset DenseA() {
  Dataset a = GenerateSynthetic(Distribution::kClustered, 500, 20);
  for (Box& box : a) box = box.Enlarged(10.0f);
  return a;
}
Dataset DenseB() { return GenerateSynthetic(Distribution::kClustered, 800, 21); }

TEST(TouchJoinTest, MatchesOracle) {
  TouchJoin join;
  const Dataset a = DenseA();
  const Dataset b = DenseB();
  EXPECT_EQ(RunJoinSorted(join, a, b), OracleJoin(a, b));
}

TEST(TouchJoinTest, MatchesOracleAcrossFanouts) {
  const Dataset a = DenseA();
  const Dataset b = DenseB();
  const auto oracle = OracleJoin(a, b);
  for (const size_t fanout : {2u, 3u, 8u, 20u}) {
    TouchOptions opt;
    opt.fanout = fanout;
    TouchJoin join(opt);
    EXPECT_EQ(RunJoinSorted(join, a, b), oracle) << "fanout=" << fanout;
  }
}

TEST(TouchJoinTest, MatchesOracleAcrossPartitionCounts) {
  const Dataset a = DenseA();
  const Dataset b = DenseB();
  const auto oracle = OracleJoin(a, b);
  for (const size_t partitions : {1u, 4u, 64u, 1024u, 100000u}) {
    TouchOptions opt;
    opt.partitions = partitions;
    TouchJoin join(opt);
    EXPECT_EQ(RunJoinSorted(join, a, b), oracle)
        << "partitions=" << partitions;
  }
}

TEST(TouchJoinTest, MatchesOracleForEveryLocalJoinStrategy) {
  const Dataset a = DenseA();
  const Dataset b = DenseB();
  const auto oracle = OracleJoin(a, b);
  for (const LocalJoinStrategy strategy :
       {LocalJoinStrategy::kGrid, LocalJoinStrategy::kPlaneSweep,
        LocalJoinStrategy::kNestedLoop}) {
    TouchOptions opt;
    opt.local_join = strategy;
    TouchJoin join(opt);
    EXPECT_EQ(RunJoinSorted(join, a, b), oracle)
        << LocalJoinStrategyName(strategy);
  }
}

TEST(TouchJoinTest, MatchesOracleForEveryJoinOrder) {
  const Dataset a = DenseA();   // 500 objects
  const Dataset b = DenseB();   // 800 objects
  const auto oracle = OracleJoin(a, b);
  for (const TouchOptions::JoinOrder order :
       {TouchOptions::JoinOrder::kAuto, TouchOptions::JoinOrder::kBuildOnA,
        TouchOptions::JoinOrder::kBuildOnB}) {
    TouchOptions opt;
    opt.join_order = order;
    TouchJoin join(opt);
    // Pair orientation must stay (a, b) even when the tree is built on B.
    EXPECT_EQ(RunJoinSorted(join, a, b), oracle);
  }
}

TEST(TouchJoinTest, NoDuplicateResults) {
  TouchJoin join;
  Dataset a = DenseA();
  for (Box& box : a) box = box.Enlarged(30.0f);  // force heavy cell overlap
  const Dataset b = DenseB();
  VectorCollector out;
  join.Join(a, b, out);
  EXPECT_TRUE(HasNoDuplicates(out.pairs()));
}

TEST(TouchJoinTest, FiltersObjectsOutsideTheTree) {
  // B objects far from every A object must be filtered, not compared.
  Dataset a;
  for (int i = 0; i < 100; ++i) {
    a.push_back(CenteredBox(static_cast<float>(i), 0, 0));
  }
  Dataset b;
  for (int i = 0; i < 50; ++i) {
    b.push_back(CenteredBox(static_cast<float>(i), 0, 0));       // near
    b.push_back(CenteredBox(static_cast<float>(i), 500, 500));   // far
  }
  TouchOptions opt;
  opt.join_order = TouchOptions::JoinOrder::kBuildOnA;
  TouchJoin join(opt);
  JoinStats stats;
  const auto pairs = RunJoinSorted(join, a, b, &stats);
  EXPECT_EQ(pairs, OracleJoin(a, b));
  EXPECT_GE(stats.filtered, 50u);  // all far objects filtered
}

TEST(TouchJoinTest, UniformDataFiltersAlmostNothing) {
  // Paper Figure 13: on uniform data of equal extent (almost) nothing is
  // filtered. At test scale the leaf MBRs keep a little dead space, so allow
  // a few percent.
  const Dataset a = GenerateSynthetic(Distribution::kUniform, 2000, 22);
  const Dataset b = GenerateSynthetic(Distribution::kUniform, 2000, 23);
  TouchOptions opt;
  opt.join_order = TouchOptions::JoinOrder::kBuildOnA;
  TouchJoin join(opt);
  JoinStats stats;
  RunJoinSorted(join, a, b, &stats);
  EXPECT_LT(stats.filtered, b.size() / 10);
}

TEST(TouchJoinTest, ClusteredDataFiltersMoreThanUniform) {
  // Paper Figure 13: the less uniform the data, the more gets filtered.
  SyntheticOptions copt;
  copt.clusters = 10;
  copt.cluster_sigma = 50.0f;
  const Dataset ca =
      GenerateSynthetic(Distribution::kClustered, 2000, 24, copt);
  const Dataset cb =
      GenerateSynthetic(Distribution::kClustered, 2000, 25, copt);
  TouchOptions opt;
  opt.join_order = TouchOptions::JoinOrder::kBuildOnA;
  TouchJoin join(opt);
  JoinStats clustered_stats;
  RunJoinSorted(join, ca, cb, &clustered_stats);

  const Dataset ua = GenerateSynthetic(Distribution::kUniform, 2000, 24);
  const Dataset ub = GenerateSynthetic(Distribution::kUniform, 2000, 25);
  JoinStats uniform_stats;
  RunJoinSorted(join, ua, ub, &uniform_stats);
  EXPECT_GT(clustered_stats.filtered, uniform_stats.filtered);
}

TEST(TouchJoinTest, SmallerFanoutNeedsFewerComparisons) {
  // Paper Figure 14(b): fanout 2 does ~1.5x fewer comparisons than 20.
  const Dataset a = GenerateSynthetic(Distribution::kUniform, 4000, 26);
  Dataset a_big = a;
  for (Box& box : a_big) box = box.Enlarged(5.0f);
  const Dataset b = GenerateSynthetic(Distribution::kUniform, 8000, 27);
  JoinStats fanout2;
  JoinStats fanout20;
  {
    TouchOptions opt;
    opt.fanout = 2;
    opt.join_order = TouchOptions::JoinOrder::kBuildOnA;
    TouchJoin join(opt);
    RunJoinSorted(join, a_big, b, &fanout2);
  }
  {
    TouchOptions opt;
    opt.fanout = 20;
    opt.join_order = TouchOptions::JoinOrder::kBuildOnA;
    TouchJoin join(opt);
    RunJoinSorted(join, a_big, b, &fanout20);
  }
  EXPECT_LT(fanout2.comparisons, fanout20.comparisons);
}

TEST(TouchJoinTest, AutoOrderBuildsOnSmallerSide) {
  // With kAuto and |A| >> |B| the tree goes on B; the cheap way to observe
  // it is that results stay correctly oriented and memory stays low.
  const Dataset big = GenerateSynthetic(Distribution::kUniform, 5000, 28);
  const Dataset tiny = GenerateSynthetic(Distribution::kUniform, 100, 29);
  TouchJoin join;
  EXPECT_EQ(RunJoinSorted(join, big, tiny), OracleJoin(big, tiny));
}

TEST(TouchJoinTest, EmptyInputs) {
  TouchJoin join;
  const Dataset a = DenseA();
  JoinStats stats;
  EXPECT_TRUE(RunJoinSorted(join, {}, a, &stats).empty());
  EXPECT_TRUE(RunJoinSorted(join, a, {}, &stats).empty());
  EXPECT_TRUE(RunJoinSorted(join, {}, {}, &stats).empty());
}

TEST(TouchJoinTest, IdenticalDatasetsSelfJoin) {
  const Dataset a = GenerateSynthetic(Distribution::kUniform, 500, 30);
  TouchJoin join;
  const auto pairs = RunJoinSorted(join, a, a);
  EXPECT_EQ(pairs, OracleJoin(a, a));
  // Self-join must at least contain the diagonal.
  EXPECT_GE(pairs.size(), a.size());
}

TEST(TouchJoinTest, AllOverlappingAdversarialCase) {
  // Every box overlaps every other box: result is the full cross product.
  Dataset a;
  Dataset b;
  for (int i = 0; i < 50; ++i) {
    a.push_back(CenteredBox(500, 500, 500, 100 + static_cast<float>(i)));
    b.push_back(CenteredBox(510, 510, 510, 100 + static_cast<float>(i)));
  }
  TouchJoin join;
  JoinStats stats;
  const auto pairs = RunJoinSorted(join, a, b, &stats);
  EXPECT_EQ(pairs.size(), a.size() * b.size());
}

TEST(TouchJoinTest, StatsTimingsArePopulated) {
  TouchJoin join;
  const Dataset a = DenseA();
  const Dataset b = DenseB();
  JoinStats stats;
  RunJoinSorted(join, a, b, &stats);
  EXPECT_GE(stats.total_seconds,
            stats.build_seconds);  // total covers all phases
  EXPECT_GT(stats.total_seconds, 0.0);
  EXPECT_GT(stats.memory_bytes, 0u);
  EXPECT_GT(stats.node_comparisons, 0u);
}

TEST(TouchJoinTest, ResultsCounterMatchesCollector) {
  TouchJoin join;
  const Dataset a = DenseA();
  const Dataset b = DenseB();
  CountingCollector out;
  const JoinStats stats = join.Join(a, b, out);
  EXPECT_EQ(stats.results, out.count());
}

TEST(TouchJoinTest, GridPlacementsPast32BitsThrow) {
  // Every A box covers the whole root grid (B is two points, so the cell
  // edge falls back to the finest resolution, 62^3 cells), so 20000 of them
  // need ~4.8e9 placements: more than 32-bit offsets can address. The join
  // must refuse the node rather than wrap an index.
  const Dataset a(20000, CenteredBox(50, 50, 50, 1000));
  const Dataset b = {CenteredBox(0, 0, 0, 0), CenteredBox(100, 100, 100, 0)};
  TouchOptions options;
  options.join_order = TouchOptions::JoinOrder::kBuildOnB;
  TouchJoin join(options);
  CountingCollector out;
  try {
    join.Join(a, b, out);
    ADD_FAILURE() << "expected std::length_error";
  } catch (const std::length_error& error) {
    EXPECT_NE(std::string(error.what()).find("placements"), std::string::npos)
        << error.what();
  }
}

// Boxes tall in z span many cells of one (x, y) row, so the local join's row
// probe meets the same probe object several times in one gather; lattice
// corners put reference points exactly on cell boundaries. The tree is one
// leaf over [0, 64]^3 and the grid is 16^3 cells of edge 4, so the per-cell
// comparison count (every item against every occupant of every cell it
// overlaps) can be summed independently of the join.
TEST(TouchJoinTest, RowProbeOfTallBoxesMatchesOracle) {
  std::mt19937 rng(41);
  const auto lattice = [&rng](int max_step) {
    return 4.0f * static_cast<float>(rng() % (max_step + 1));
  };
  const auto make = [&](size_t count) {
    Dataset boxes = {MakeBox(0, 0, 0, 1, 1, 1), MakeBox(63, 63, 63, 64, 64, 64)};
    while (boxes.size() < count) {
      const float x = lattice(15);
      const float y = lattice(15);
      const float z = lattice(12);
      // Edges end on a boundary (4), inside a cell (1), or nowhere (0).
      const float edge = std::array{0.0f, 1.0f, 4.0f}[rng() % 3];
      const float height =
          rng() % 2 == 0 ? lattice(16) : std::array{0.0f, 1.0f}[rng() % 2];
      boxes.push_back(MakeBox(x, y, z, x + edge, y + edge,
                              std::min(64.0f, z + height)));
    }
    return boxes;
  };
  const Dataset a = make(700);
  const Dataset b = make(900);

  TouchOptions options;
  options.partitions = 1;
  options.join_order = TouchOptions::JoinOrder::kBuildOnA;
  options.grid_resolution = 16;
  options.cell_size_multiplier = 0.01f;
  TouchJoin join(options);
  VectorCollector out;
  const JoinStats stats = join.Join(a, b, out);

  std::vector<IdPair> pairs = out.pairs();
  EXPECT_TRUE(HasNoDuplicates(pairs));
  std::sort(pairs.begin(), pairs.end());
  EXPECT_EQ(pairs, OracleJoin(a, b));
  EXPECT_EQ(stats.results, pairs.size());

  const auto cells = [](float lo, float hi) {
    const auto cell = [](float v) {
      return std::clamp(static_cast<int>(std::floor(v / 4.0f)), 0, 15);
    };
    return std::pair(cell(lo), cell(hi));
  };
  uint64_t per_cell_comparisons = 0;
  for (const Box& item : a) {
    for (const Box& entity : b) {
      uint64_t shared = 1;
      for (int axis = 0; axis < 3; ++axis) {
        const auto [a_lo, a_hi] = cells(item.lo[axis], item.hi[axis]);
        const auto [b_lo, b_hi] = cells(entity.lo[axis], entity.hi[axis]);
        const int overlap = std::min(a_hi, b_hi) - std::max(a_lo, b_lo) + 1;
        shared *= static_cast<uint64_t>(std::max(0, overlap));
      }
      per_cell_comparisons += shared;
    }
  }
  EXPECT_EQ(stats.comparisons, per_cell_comparisons);
}

TEST(DistanceJoinTest, EquivalentToEnlargedSpatialJoin) {
  const Dataset a = GenerateSynthetic(Distribution::kUniform, 300, 31);
  const Dataset b = GenerateSynthetic(Distribution::kUniform, 300, 32);
  TouchJoin join;
  VectorCollector distance_out;
  DistanceJoin(join, a, b, 15.0f, distance_out);
  auto distance_pairs = distance_out.pairs();
  std::sort(distance_pairs.begin(), distance_pairs.end());

  Dataset enlarged = a;
  for (Box& box : enlarged) box = box.Enlarged(15.0f);
  EXPECT_EQ(distance_pairs, OracleJoin(enlarged, b));
}

TEST(DistanceJoinTest, LargerEpsilonYieldsSupersetOfResults) {
  // Compact space so both epsilon values yield non-empty result sets.
  SyntheticOptions gen;
  gen.space = 120.0f;
  const Dataset a = GenerateSynthetic(Distribution::kUniform, 400, 33, gen);
  const Dataset b = GenerateSynthetic(Distribution::kUniform, 400, 34, gen);
  TouchJoin join;
  VectorCollector out5;
  VectorCollector out10;
  DistanceJoin(join, a, b, 5.0f, out5);
  DistanceJoin(join, a, b, 10.0f, out10);
  auto p5 = out5.pairs();
  auto p10 = out10.pairs();
  std::sort(p5.begin(), p5.end());
  std::sort(p10.begin(), p10.end());
  EXPECT_TRUE(std::includes(p10.begin(), p10.end(), p5.begin(), p5.end()));
  EXPECT_GT(p10.size(), p5.size());
}

TEST(DistanceJoinTest, ZeroEpsilonIsPlainSpatialJoin) {
  const Dataset a = GenerateSynthetic(Distribution::kUniform, 300, 35);
  Dataset b = a;  // guarantee overlaps
  TouchJoin join;
  VectorCollector out;
  DistanceJoin(join, a, b, 0.0f, out);
  auto pairs = out.pairs();
  std::sort(pairs.begin(), pairs.end());
  EXPECT_EQ(pairs, OracleJoin(a, b));
}

// Pins TOUCH's emission order across versions: touch_parallel_test only
// compares thread counts within one binary, so a change to the order inside
// a grid cell would pass it unnoticed. Each case hashes the ordered pair
// sequence and checks the counters against values recorded before the local
// join's grid moved to a flat (CSR) layout; neither may change.
struct PinnedRun {
  uint64_t sequence_hash;
  uint64_t results;
  uint64_t comparisons;
  uint64_t node_comparisons;
  uint64_t filtered;
};

// FNV-1a over the pairs in emission order.
uint64_t SequenceHash(const std::vector<IdPair>& pairs) {
  uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](uint32_t value) {
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  for (const auto& [a_id, b_id] : pairs) {
    mix(a_id);
    mix(b_id);
  }
  return hash;
}

void ExpectPinned(const VectorCollector& out, const JoinStats& stats,
                  const PinnedRun& expected) {
  EXPECT_EQ(out.pairs().size(), expected.results);
  EXPECT_EQ(SequenceHash(out.pairs()), expected.sequence_hash);
  EXPECT_EQ(stats.results, expected.results);
  EXPECT_EQ(stats.comparisons, expected.comparisons);
  EXPECT_EQ(stats.node_comparisons, expected.node_comparisons);
  EXPECT_EQ(stats.filtered, expected.filtered);
}

TEST(TouchJoinTest, GridEmissionOrderIsPinned) {
  Dataset a = GenerateSynthetic(Distribution::kClustered, 3000, 111);
  for (Box& box : a) box = box.Enlarged(6.0f);
  const Dataset b = GenerateSynthetic(Distribution::kClustered, 6000, 112);
  // Large enough that the root is a grid node of >= 8192 items, probed in
  // item chunks (a split grid node).
  const Dataset big_a = GenerateSynthetic(Distribution::kClustered, 40000, 117);
  const Dataset big_b = GenerateSynthetic(Distribution::kClustered, 60000, 118);
  const auto run = [](TouchOptions::JoinOrder order, const Dataset& lhs,
                      const Dataset& rhs, float epsilon,
                      const PinnedRun& expected) {
    TouchOptions options;
    options.join_order = order;
    TouchJoin join(options);
    VectorCollector out;
    const JoinStats stats = epsilon > 0
                                ? DistanceJoin(join, lhs, rhs, epsilon, out)
                                : join.Join(lhs, rhs, out);
    ExpectPinned(out, stats, expected);
  };
  using Order = TouchOptions::JoinOrder;
  {
    SCOPED_TRACE("epsilon 0, build on A");
    run(Order::kBuildOnA, a, b, 0.0f,
        {3130462881592006908ull, 349, 1067, 18000, 0});
  }
  {
    SCOPED_TRACE("epsilon 0, build on B");
    run(Order::kBuildOnB, a, b, 0.0f,
        {10342849091244433332ull, 349, 1211, 9000, 0});
  }
  {
    SCOPED_TRACE("epsilon 2, build on A, split grid node");
    run(Order::kBuildOnA, big_a, big_b, 2.0f,
        {12537933131781275187ull, 20225, 91960, 180000, 0});
  }
  {
    SCOPED_TRACE("epsilon 1, build on B, split grid node");
    run(Order::kBuildOnB, big_a, big_b, 1.0f,
        {15950127813494055116ull, 16044, 83388, 120000, 0});
  }
  {
    // The engine's build-on-B path: a prebuilt tree over B, with A's
    // enlargement applied to each probe box on the fly.
    SCOPED_TRACE("probe epsilon 2, prebuilt tree, split grid node");
    const RTree tree(big_b, /*leaf_capacity=*/59, /*fanout=*/2);
    TouchJoin join;
    VectorCollector out;
    const JoinStats stats =
        join.JoinWithPrebuiltTree(tree, big_b, big_a, out, 2.0f);
    ExpectPinned(out, stats,
                 {11666236199886772731ull, 20225, 95507, 120000, 0});
  }
}

}  // namespace
}  // namespace touch
