// Differential harness for the batched epsilon-overlap kernels
// (core/overlap_kernel.h): every dispatched kernel is held to *sequence*
// identity — same hits, same order, same examined counts — against its
// scalar reference twin, on the paper's synthetic distributions and on
// adversarial inputs (epsilon = 0, boxes touching exactly at a boundary,
// negative coordinates, denormals, infinities, NaN, and slab tails of every
// length shorter than a vector). Dispatch is at runtime, so one binary
// carries every level: the cross-level pass below iterates
// simd::RuntimeAvailableLevels(), forces each via ForceSimdLevel, and
// re-runs the whole differential surface — upgrading the old "dispatched
// build vs scalar build" CI matrix to "every available level vs scalar
// within one process". CI additionally runs the full suite once per forced
// TOUCH_SIMD_LEVEL, which pins the suite at that level end to end.

#include "core/overlap_kernel.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/distributions.h"
#include "index/rtree.h"
#include "join/algorithm.h"
#include "join/indexed_nested_loop.h"
#include "test_util.h"

namespace touch {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

// --- sequence-identity helpers ----------------------------------------------

void ExpectCollectIdentity(const BoxSlab& slab, size_t begin, size_t end,
                           const Box& query) {
  std::vector<uint32_t> batched;
  std::vector<uint32_t> scalar;
  const size_t batched_examined =
      CollectOverlaps(slab, begin, end, query, batched);
  const size_t scalar_examined =
      CollectOverlapsScalar(slab, begin, end, query, scalar);
  EXPECT_EQ(batched_examined, scalar_examined);
  EXPECT_EQ(batched, scalar);
}

void ExpectSweepIdentity(const BoxSlab& slab, size_t begin, size_t end,
                         const Box& query) {
  std::vector<uint32_t> batched;
  std::vector<uint32_t> scalar;
  const size_t batched_examined =
      CollectOverlapsUntilBeyondX(slab, begin, end, query, batched);
  const size_t scalar_examined =
      CollectOverlapsUntilBeyondXScalar(slab, begin, end, query, scalar);
  EXPECT_EQ(batched_examined, scalar_examined);
  EXPECT_EQ(batched, scalar);
}

void ExpectClassifyIdentity(const BoxSlab& slab, size_t begin, size_t end,
                            const Box& query) {
  size_t batched_first = SIZE_MAX;
  size_t scalar_first = SIZE_MAX;
  uint64_t batched_examined = 0;
  uint64_t scalar_examined = 0;
  const int batched = ClassifyOverlaps(slab, begin, end, query,
                                       &batched_first, &batched_examined);
  const int scalar = ClassifyOverlapsScalar(slab, begin, end, query,
                                            &scalar_first, &scalar_examined);
  EXPECT_EQ(batched, scalar);
  EXPECT_EQ(batched_examined, scalar_examined);
  if (scalar > 0) EXPECT_EQ(batched_first, scalar_first);
}

void ExpectGatherIdentity(const BoxSlab& slab,
                          std::span<const uint32_t> positions,
                          const Box& query) {
  std::vector<uint32_t> batched;
  std::vector<uint32_t> scalar;
  const size_t batched_examined =
      CollectOverlapsGather(slab, positions, query, batched);
  const size_t scalar_examined =
      CollectOverlapsGatherScalar(slab, positions, query, scalar);
  EXPECT_EQ(batched_examined, scalar_examined);
  EXPECT_EQ(batched, scalar);
  // Hits are ascending indices into `positions`, one per listed position
  // whose box overlaps (so a position listed twice can hit twice).
  std::vector<uint32_t> expected;
  for (uint32_t i = 0; i < positions.size(); ++i) {
    if (SlabOverlapScalar(slab, positions[i], query)) expected.push_back(i);
  }
  EXPECT_EQ(batched, expected);
}

// Runs every kernel against its twin over the full range plus offset
// subranges (so chunk alignment relative to `begin` varies).
void ExpectAllKernelsIdentical(const BoxSlab& slab,
                               std::span<const Box> queries) {
  std::mt19937 rng(7);
  // Positions as a row of grid cells lists them: runs of ascending slab
  // positions, some listed again in a later run (objects spanning cells).
  std::vector<uint32_t> positions;
  for (uint32_t i = 0; i < slab.size(); ++i) {
    if (rng() % 3 != 0) positions.push_back(i);
  }
  for (uint32_t i = 0; i < slab.size(); ++i) {
    if (rng() % 5 == 0) positions.push_back(i);
  }
  for (const Box& query : queries) {
    ExpectCollectIdentity(slab, 0, slab.size(), query);
    ExpectClassifyIdentity(slab, 0, slab.size(), query);
    ExpectGatherIdentity(slab, positions, query);
    if (slab.size() > 5) {
      const size_t begin = slab.size() / 3;
      const size_t end = slab.size() - 1;
      ExpectCollectIdentity(slab, begin, end, query);
      ExpectClassifyIdentity(slab, begin, end, query);
    }
  }
}

Dataset SortedByXLow(Dataset boxes) {
  std::sort(boxes.begin(), boxes.end(), [](const Box& a, const Box& b) {
    return a.lo.x < b.lo.x;
  });
  return boxes;
}

// --- paper distributions -----------------------------------------------------

class OverlapKernelDistributionTest
    : public ::testing::TestWithParam<Distribution> {};

TEST_P(OverlapKernelDistributionTest, CollectClassifyGatherMatchScalar) {
  for (const float epsilon : {0.0f, 2.5f}) {
    const Dataset boxes = GenerateSynthetic(GetParam(), 700, /*seed=*/11);
    const Dataset queries = GenerateSynthetic(GetParam(), 120, /*seed=*/22);
    BoxSlab slab;
    slab.Assign(boxes, epsilon);
    ExpectAllKernelsIdentical(slab, queries);
  }
}

TEST_P(OverlapKernelDistributionTest, SweepMatchesScalar) {
  for (const float epsilon : {0.0f, 2.5f}) {
    const Dataset sorted =
        SortedByXLow(GenerateSynthetic(GetParam(), 700, /*seed=*/33));
    const Dataset queries = GenerateSynthetic(GetParam(), 120, /*seed=*/44);
    BoxSlab slab;
    slab.Assign(sorted, epsilon);
    for (const Box& query : queries) {
      ExpectSweepIdentity(slab, 0, slab.size(), query);
      ExpectSweepIdentity(slab, slab.size() / 2, slab.size(), query);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, OverlapKernelDistributionTest,
                         ::testing::Values(Distribution::kUniform,
                                           Distribution::kGaussian,
                                           Distribution::kClustered),
                         [](const auto& info) {
                           return DistributionName(info.param);
                         });

// --- adversarial inputs ------------------------------------------------------

Dataset AdversarialBoxes() {
  const float denormal = 1e-42f;  // subnormal: exercises flush-to-zero bugs
  return Dataset{
      MakeBox(0, 0, 0, 1, 1, 1),
      MakeBox(1, 0, 0, 2, 1, 1),        // shares the x=1 face with the first
      MakeBox(1, 1, 1, 2, 2, 2),        // shares only the corner (1,1,1)
      MakeBox(-5, -5, -5, -4, -4, -4),  // fully negative coordinates
      MakeBox(-1, -1, -1, 1, 1, 1),     // spans the origin
      MakeBox(denormal, denormal, denormal, denormal, denormal, denormal),
      MakeBox(-denormal, -denormal, -denormal, denormal, denormal, denormal),
      MakeBox(-kInf, -kInf, -kInf, kInf, kInf, kInf),  // everything
      MakeBox(0, 0, 0, kInf, kInf, kInf),              // half-infinite
      Box::Empty(),  // inverted sentinel shape: intersects nothing
      MakeBox(1e30f, 1e30f, 1e30f, 2e30f, 2e30f, 2e30f),  // huge magnitude
      MakeBox(0.5f, 0.5f, 0.5f, 0.5f, 0.5f, 0.5f),        // degenerate point
  };
}

TEST(OverlapKernelAdversarialTest, BoundaryNegativeDenormalInfinite) {
  const Dataset boxes = AdversarialBoxes();
  // Queries: the adversarial shapes themselves, plus an exact-boundary
  // toucher and an all-covering infinite box.
  Dataset queries = boxes;
  queries.push_back(MakeBox(2, 2, 2, 3, 3, 3));  // touches corner of box 2
  for (const float epsilon : {0.0f, 0.25f}) {
    BoxSlab slab;
    slab.Assign(boxes, epsilon);
    ExpectAllKernelsIdentical(slab, queries);
  }
}

TEST(OverlapKernelAdversarialTest, NaNBoundsNeverMatchEitherPath) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Dataset boxes = AdversarialBoxes();
  boxes.push_back(MakeBox(nan, 0, 0, nan, 1, 1));
  boxes.push_back(MakeBox(nan, nan, nan, nan, nan, nan));
  BoxSlab slab;
  slab.Assign(boxes);
  const Box everything = MakeBox(-kInf, -kInf, -kInf, kInf, kInf, kInf);
  std::vector<uint32_t> hits;
  CollectOverlaps(slab, 0, slab.size(), everything, hits);
  // The NaN boxes are the last two; neither path may report them.
  for (const uint32_t hit : hits) EXPECT_LT(hit, boxes.size() - 2);
  ExpectCollectIdentity(slab, 0, slab.size(), everything);
  ExpectClassifyIdentity(slab, 0, slab.size(), everything);
  const Box nan_query = MakeBox(nan, nan, nan, nan, nan, nan);
  ExpectCollectIdentity(slab, 0, slab.size(), nan_query);
}

// Slab tails of every length shorter than a full pad block: the partially
// valid final chunk must neither drop real candidates nor leak padding.
TEST(OverlapKernelAdversarialTest, TailLengthsOneToPadMinusOne) {
  const Box everything = MakeBox(-kInf, -kInf, -kInf, kInf, kInf, kInf);
  const Box nothing = MakeBox(3e5f, 3e5f, 3e5f, 4e5f, 4e5f, 4e5f);
  for (size_t n = 1; n < BoxSlab::kPad; ++n) {
    Dataset boxes;
    for (size_t i = 0; i < n; ++i) {
      boxes.push_back(CenteredBox(static_cast<float>(i), 0.0f, 0.0f));
    }
    BoxSlab slab;
    slab.Assign(boxes);
    std::vector<uint32_t> hits;
    EXPECT_EQ(CollectOverlaps(slab, 0, n, everything, hits), n);
    // Every real box hit exactly once, nothing from the padded tail.
    ASSERT_EQ(hits.size(), n) << "tail length " << n;
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], i);
    hits.clear();
    CollectOverlaps(slab, 0, n, nothing, hits);
    EXPECT_TRUE(hits.empty());
    ExpectAllKernelsIdentical(slab, {&everything, 1});
    ExpectSweepIdentity(slab, 0, n, everything);
    ExpectClassifyIdentity(slab, 0, n, everything);
  }
}

// --- tree probe --------------------------------------------------------------

// The batched INL probe must reproduce the scalar RTree::Query loop
// *exactly*: pair sequence (emit order), comparison counts, and results.
TEST(BatchedTreeProbeTest, MatchesScalarQuerySequenceAndStats) {
  const Dataset a = GenerateSynthetic(Distribution::kClustered, 900, 5);
  const Dataset b = GenerateSynthetic(Distribution::kUniform, 500, 6);
  const RTree tree(a, /*leaf_capacity=*/16, /*fanout=*/8);
  for (const float probe_epsilon : {0.0f, 3.0f}) {
    JoinStats scalar_stats;
    VectorCollector scalar_out;
    for (uint32_t b_id = 0; b_id < b.size(); ++b_id) {
      const Box query = probe_epsilon > 0 ? b[b_id].Enlarged(probe_epsilon)
                                          : b[b_id];
      tree.Query(
          a, query,
          [&](uint32_t a_id) {
            ++scalar_stats.results;
            scalar_out.Emit(a_id, b_id);
          },
          &scalar_stats);
    }

    BoxSlab items;
    items.AssignGather(a, tree.item_ids());
    JoinStats batched_stats;
    VectorCollector batched_out;
    BatchedTreeProbe(tree, items, b, probe_epsilon, /*swap_emit=*/false,
                     &batched_stats, batched_out);

    EXPECT_EQ(batched_out.pairs(), scalar_out.pairs());  // order included
    EXPECT_EQ(batched_stats.comparisons, scalar_stats.comparisons);
    EXPECT_EQ(batched_stats.node_comparisons, scalar_stats.node_comparisons);
    EXPECT_EQ(batched_stats.results, scalar_stats.results);
  }
}

TEST(BatchedTreeProbeTest, SwapEmitFlipsPairOrientation) {
  const Dataset a = GenerateSynthetic(Distribution::kUniform, 300, 9);
  const Dataset b = GenerateSynthetic(Distribution::kUniform, 200, 10);
  const RTree tree(a, 16, 8);
  BoxSlab items;
  items.AssignGather(a, tree.item_ids());
  JoinStats stats;
  VectorCollector straight;
  VectorCollector swapped;
  BatchedTreeProbe(tree, items, b, 0.0f, /*swap_emit=*/false, &stats,
                   straight);
  BatchedTreeProbe(tree, items, b, 0.0f, /*swap_emit=*/true, &stats, swapped);
  ASSERT_EQ(straight.pairs().size(), swapped.pairs().size());
  for (size_t i = 0; i < straight.pairs().size(); ++i) {
    EXPECT_EQ(straight.pairs()[i].first, swapped.pairs()[i].second);
    EXPECT_EQ(straight.pairs()[i].second, swapped.pairs()[i].first);
  }
}

TEST(BatchedTreeProbeTest, CancellationStopsEarly) {
  const Dataset a = GenerateSynthetic(Distribution::kUniform, 2000, 12);
  const Dataset b = GenerateSynthetic(Distribution::kUniform, 5000, 13);
  const RTree tree(a, 16, 8);
  BoxSlab items;
  items.AssignGather(a, tree.item_ids());
  CancellationSource source;
  source.RequestStop();
  JoinStats stats;
  VectorCollector out;
  const uint64_t probed = BatchedTreeProbe(tree, items, b, 0.0f, false,
                                           &stats, out, source.token());
  EXPECT_EQ(probed, 0u);
  EXPECT_TRUE(out.pairs().empty());
}

// --- end-to-end join identity ------------------------------------------------

// The batched INL must still agree with the brute-force oracle (its own
// differential check routes through every kernel consumer at once).
TEST(OverlapKernelEndToEndTest, IndexedNestedLoopMatchesOracle) {
  const Dataset a = GenerateSynthetic(Distribution::kClustered, 800, 21);
  const Dataset b = GenerateSynthetic(Distribution::kGaussian, 600, 22);
  IndexedNestedLoopJoin inl;
  EXPECT_EQ(RunJoinSorted(inl, a, b), OracleJoin(a, b));
}

// --- runtime dispatch --------------------------------------------------------

/// Forces a dispatch level for one scope, restoring the entry level after —
/// so cross-level tests never leak a narrowed level into later tests (the
/// suite may be running under a forced TOUCH_SIMD_LEVEL it must preserve).
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(simd::Level level) : entry_(ActiveSimdLevel()) {
    std::string error;
    forced_ = ForceSimdLevel(level, &error);
    EXPECT_TRUE(forced_) << error;
  }
  ~ScopedSimdLevel() {
    if (forced_) ForceSimdLevel(entry_);
  }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  simd::Level entry_;
  bool forced_ = false;
};

TEST(SimdDispatchTest, ReportsConsistentLevel) {
  const std::string name = SimdLevelName();
  const int width = SimdWidth();
  EXPECT_EQ(name, simd::LevelName(ActiveSimdLevel()));
  EXPECT_EQ(width, simd::LevelWidth(ActiveSimdLevel()));
  EXPECT_EQ(width, ActiveKernels().width);
  if (SimdEnabled()) {
    EXPECT_TRUE(name == "avx2" || name == "sse2" || name == "neon") << name;
    EXPECT_TRUE(width == 4 || width == 8) << width;
    EXPECT_EQ(width == 8, name == "avx2");
  } else {
    EXPECT_EQ(name, "scalar");
    EXPECT_EQ(width, 1);
  }
}

TEST(SimdDispatchTest, AvailableLevelsStartWithScalarAndMatchCpu) {
  const std::vector<simd::Level> levels = simd::RuntimeAvailableLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), simd::Level::kScalar);
  for (const simd::Level level : levels) {
    EXPECT_TRUE(simd::LevelCompiledIn(level));
    EXPECT_TRUE(simd::LevelSupported(level));
  }
  // Auto-detection picks the widest available level, and that level is in
  // the available set.
  EXPECT_EQ(simd::DetectBestLevel(), levels.back());
}

TEST(SimdDispatchTest, ForceSucceedsOnEveryAvailableLevel) {
  const simd::Level entry = ActiveSimdLevel();
  for (const simd::Level level : simd::RuntimeAvailableLevels()) {
    ScopedSimdLevel forced(level);
    EXPECT_EQ(ActiveSimdLevel(), level);
    EXPECT_STREQ(SimdLevelName(), simd::LevelName(level));
    EXPECT_EQ(SimdWidth(), simd::LevelWidth(level));
    EXPECT_TRUE(SimdLevelForced());
  }
  EXPECT_EQ(ActiveSimdLevel(), entry);
}

TEST(SimdDispatchTest, ForceFailsLoudlyOnUnavailableLevel) {
  const simd::Level entry = ActiveSimdLevel();
  std::vector<simd::Level> unavailable;
  for (const simd::Level level :
       {simd::Level::kNeon, simd::Level::kSse2, simd::Level::kAvx2}) {
    if (!simd::LevelSupported(level)) unavailable.push_back(level);
  }
  for (const simd::Level level : unavailable) {
    std::string error;
    EXPECT_FALSE(ForceSimdLevel(level, &error));
    // The error names the request and what the host can actually run.
    EXPECT_NE(error.find(simd::LevelName(level)), std::string::npos) << error;
    EXPECT_NE(error.find("scalar"), std::string::npos) << error;
    EXPECT_EQ(ActiveSimdLevel(), entry);  // active level unchanged
  }
}

// --- cross-level differential pass -------------------------------------------
//
// The tentpole guarantee: every level this host can run produces the exact
// hit sequences and scalar-identical examined counts, verified in ONE
// process by forcing each level and re-running the differential surface.

class CrossLevelTest : public ::testing::TestWithParam<simd::Level> {};

TEST_P(CrossLevelTest, DistributionsMatchScalar) {
  ScopedSimdLevel forced(GetParam());
  for (const float epsilon : {0.0f, 2.5f}) {
    const Dataset boxes =
        GenerateSynthetic(Distribution::kClustered, 700, /*seed=*/11);
    const Dataset queries =
        GenerateSynthetic(Distribution::kClustered, 120, /*seed=*/22);
    BoxSlab slab;
    slab.Assign(boxes, epsilon);
    ExpectAllKernelsIdentical(slab, queries);
    const Dataset sorted =
        SortedByXLow(GenerateSynthetic(Distribution::kUniform, 700, 33));
    BoxSlab sweep_slab;
    sweep_slab.Assign(sorted, epsilon);
    for (const Box& query : queries) {
      ExpectSweepIdentity(sweep_slab, 0, sweep_slab.size(), query);
    }
  }
}

TEST_P(CrossLevelTest, AdversarialInputsMatchScalar) {
  ScopedSimdLevel forced(GetParam());
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Dataset boxes = AdversarialBoxes();
  boxes.push_back(MakeBox(nan, 0, 0, nan, 1, 1));
  boxes.push_back(MakeBox(nan, nan, nan, nan, nan, nan));
  Dataset queries = boxes;
  queries.push_back(MakeBox(2, 2, 2, 3, 3, 3));
  for (const float epsilon : {0.0f, 0.25f}) {
    BoxSlab slab;
    slab.Assign(boxes, epsilon);
    ExpectAllKernelsIdentical(slab, queries);
  }
  // Tail lengths at this level: partially valid final chunks everywhere.
  const Box everything = MakeBox(-kInf, -kInf, -kInf, kInf, kInf, kInf);
  for (size_t n = 1; n < BoxSlab::kPad; ++n) {
    Dataset tail;
    for (size_t i = 0; i < n; ++i) {
      tail.push_back(CenteredBox(static_cast<float>(i), 0.0f, 0.0f));
    }
    BoxSlab slab;
    slab.Assign(tail);
    ExpectAllKernelsIdentical(slab, {&everything, 1});
    ExpectSweepIdentity(slab, 0, n, everything);
  }
}

// JoinStats byte-comparability across levels: the same probe at every
// available level must yield the identical pair sequence AND the identical
// comparison counters, all within this one process.
TEST(CrossLevelTest, TreeProbePairsAndStatsIdenticalAcrossLevels) {
  const Dataset a = GenerateSynthetic(Distribution::kClustered, 900, 5);
  const Dataset b = GenerateSynthetic(Distribution::kUniform, 500, 6);
  const RTree tree(a, /*leaf_capacity=*/16, /*fanout=*/8);
  BoxSlab items;
  items.AssignGather(a, tree.item_ids());

  JoinStats reference_stats;
  VectorCollector reference_out;
  {
    ScopedSimdLevel forced(simd::Level::kScalar);
    BatchedTreeProbe(tree, items, b, 3.0f, /*swap_emit=*/false,
                     &reference_stats, reference_out);
  }
  for (const simd::Level level : simd::RuntimeAvailableLevels()) {
    ScopedSimdLevel forced(level);
    JoinStats stats;
    VectorCollector out;
    BatchedTreeProbe(tree, items, b, 3.0f, /*swap_emit=*/false, &stats, out);
    EXPECT_EQ(out.pairs(), reference_out.pairs()) << simd::LevelName(level);
    EXPECT_EQ(stats.comparisons, reference_stats.comparisons)
        << simd::LevelName(level);
    EXPECT_EQ(stats.node_comparisons, reference_stats.node_comparisons)
        << simd::LevelName(level);
    EXPECT_EQ(stats.results, reference_stats.results)
        << simd::LevelName(level);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRuntimeLevels, CrossLevelTest,
    ::testing::ValuesIn(simd::RuntimeAvailableLevels()),
    [](const auto& info) { return simd::LevelName(info.param); });

}  // namespace
}  // namespace touch
