#include "index/hilbert.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <set>

#include "datagen/distributions.h"
#include "index/rtree.h"
#include "test_util.h"
#include "util/rng.h"

namespace touch {
namespace {

// --- Curve properties -------------------------------------------------------

// The order-k 3D Hilbert curve visits each of the 8^k lattice cells exactly
// once (bijectivity) and consecutive indices are face-adjacent cells (unit
// steps). These two properties are the definition of the curve; exhaustively
// checked for small orders.
class HilbertCurveOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(HilbertCurveOrderTest, VisitsEveryCellExactlyOnce) {
  const int order = GetParam();
  const uint64_t cells = uint64_t{1} << (3 * order);
  std::set<std::array<uint32_t, 3>> seen;
  for (uint64_t d = 0; d < cells; ++d) {
    const auto p = HilbertPoint(d, order);
    EXPECT_LT(p[0], uint32_t{1} << order);
    EXPECT_LT(p[1], uint32_t{1} << order);
    EXPECT_LT(p[2], uint32_t{1} << order);
    EXPECT_TRUE(seen.insert(p).second) << "cell visited twice at d=" << d;
  }
  EXPECT_EQ(seen.size(), cells);
}

TEST_P(HilbertCurveOrderTest, ConsecutiveIndicesAreFaceAdjacent) {
  const int order = GetParam();
  const uint64_t cells = uint64_t{1} << (3 * order);
  auto prev = HilbertPoint(0, order);
  for (uint64_t d = 1; d < cells; ++d) {
    const auto p = HilbertPoint(d, order);
    int manhattan = 0;
    for (int i = 0; i < 3; ++i) {
      manhattan += std::abs(static_cast<int>(p[i]) - static_cast<int>(prev[i]));
    }
    ASSERT_EQ(manhattan, 1) << "non-unit step at d=" << d;
    prev = p;
  }
}

TEST_P(HilbertCurveOrderTest, IndexAndPointAreInverses) {
  const int order = GetParam();
  const uint64_t cells = uint64_t{1} << (3 * order);
  for (uint64_t d = 0; d < cells; ++d) {
    const auto p = HilbertPoint(d, order);
    EXPECT_EQ(HilbertIndex(p[0], p[1], p[2], order), d);
  }
}

INSTANTIATE_TEST_SUITE_P(SmallOrders, HilbertCurveOrderTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(HilbertCurveTest, FullOrderRoundTripsRandomPoints) {
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const auto x = static_cast<uint32_t>(rng.NextU64() &
                                         ((uint32_t{1} << kHilbertOrder) - 1));
    const auto y = static_cast<uint32_t>(rng.NextU64() &
                                         ((uint32_t{1} << kHilbertOrder) - 1));
    const auto z = static_cast<uint32_t>(rng.NextU64() &
                                         ((uint32_t{1} << kHilbertOrder) - 1));
    const uint64_t d = HilbertIndex(x, y, z);
    const auto p = HilbertPoint(d);
    EXPECT_EQ(p[0], x);
    EXPECT_EQ(p[1], y);
    EXPECT_EQ(p[2], z);
  }
}

TEST(HilbertCurveTest, OriginMapsToZero) {
  EXPECT_EQ(HilbertIndex(0, 0, 0, 4), 0u);
  const auto p = HilbertPoint(0, 4);
  EXPECT_EQ(p, (std::array<uint32_t, 3>{0, 0, 0}));
}

TEST(HilbertCurveTest, WindowsAreMoreCompactThanRowMajorOrder) {
  // The locality property that makes Hilbert packing produce compact leaves:
  // a window of consecutive curve indices covers a cube-like region, whereas
  // a window of row-major indices covers an elongated slab. Measured as the
  // average bounding-box margin (sum of extents) of 64-cell windows.
  const int order = 4;
  const uint32_t n = 1u << order;
  const uint64_t cells = uint64_t{1} << (3 * order);
  constexpr uint64_t kWindow = 64;

  auto window_margin = [&](auto point_at) {
    double total = 0;
    uint64_t windows = 0;
    for (uint64_t begin = 0; begin + kWindow <= cells; begin += kWindow) {
      std::array<uint32_t, 3> lo = {n, n, n};
      std::array<uint32_t, 3> hi = {0, 0, 0};
      for (uint64_t d = begin; d < begin + kWindow; ++d) {
        const std::array<uint32_t, 3> p = point_at(d);
        for (int i = 0; i < 3; ++i) {
          lo[i] = std::min(lo[i], p[i]);
          hi[i] = std::max(hi[i], p[i]);
        }
      }
      for (int i = 0; i < 3; ++i) total += hi[i] - lo[i];
      ++windows;
    }
    return total / static_cast<double>(windows);
  };

  const double hilbert = window_margin(
      [&](uint64_t d) { return HilbertPoint(d, order); });
  const double rowmajor = window_margin([&](uint64_t d) {
    return std::array<uint32_t, 3>{static_cast<uint32_t>(d / (n * n)),
                                   static_cast<uint32_t>((d / n) % n),
                                   static_cast<uint32_t>(d % n)};
  });
  // A 64-cell Hilbert window is a 4x4x4 cube (margin 9); a 64-cell row-major
  // window is a 1x4x16 slab (margin 18).
  EXPECT_LT(hilbert, rowmajor * 0.75);
}

// --- HilbertCode over boxes --------------------------------------------------

TEST(HilbertCodeTest, OrdersCentersAlongTheCurve) {
  const Box space = MakeBox(0, 0, 0, 1000, 1000, 1000);
  // Two boxes at the same location get the same code.
  EXPECT_EQ(HilbertCode(CenteredBox(10, 20, 30), space),
            HilbertCode(CenteredBox(10, 20, 30, 0.1f), space));
  // Distinct corners of the space map to distinct codes.
  std::set<uint64_t> codes;
  for (const float x : {1.0f, 999.0f}) {
    for (const float y : {1.0f, 999.0f}) {
      for (const float z : {1.0f, 999.0f}) {
        codes.insert(HilbertCode(CenteredBox(x, y, z), space));
      }
    }
  }
  EXPECT_EQ(codes.size(), 8u);
}

TEST(HilbertCodeTest, DegenerateSpaceIsSafe) {
  const Box space = MakeBox(5, 5, 5, 5, 5, 5);  // zero extent
  EXPECT_EQ(HilbertCode(CenteredBox(5, 5, 5), space), 0u);
}

// --- HilbertPartition --------------------------------------------------------

TEST(HilbertPartitionTest, ProducesValidPermutationAndBucketSizes) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 1000, 3);
  const StrPartitioning part = HilbertPartition(boxes, 64);
  ASSERT_EQ(part.order.size(), boxes.size());
  std::vector<uint32_t> sorted = part.order;
  std::sort(sorted.begin(), sorted.end());
  for (uint32_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  for (size_t b = 0; b < part.NumBuckets(); ++b) {
    EXPECT_LE(part.Bucket(b).size(), 64u);
    EXPECT_GT(part.Bucket(b).size(), 0u);
  }
  EXPECT_EQ(part.bucket_begin.back(), boxes.size());
}

TEST(HilbertPartitionTest, EmptyAndSingleInputs) {
  const StrPartitioning empty = HilbertPartition({}, 8);
  EXPECT_EQ(empty.NumBuckets(), 0u);
  const Dataset one = {CenteredBox(1, 2, 3)};
  const StrPartitioning single = HilbertPartition(one, 8);
  ASSERT_EQ(single.NumBuckets(), 1u);
  EXPECT_EQ(single.Bucket(0).size(), 1u);
}

TEST(HilbertPartitionTest, IsDeterministic) {
  const Dataset boxes = GenerateSynthetic(Distribution::kClustered, 500, 11);
  const StrPartitioning p1 = HilbertPartition(boxes, 32);
  const StrPartitioning p2 = HilbertPartition(boxes, 32);
  EXPECT_EQ(p1.order, p2.order);
  EXPECT_EQ(p1.bucket_begin, p2.bucket_begin);
}

TEST(HilbertPartitionTest, BucketsAreSpatiallyCompact) {
  // Hilbert buckets over uniform data should have far smaller total volume
  // than buckets formed from the unsorted input order.
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 4000, 17);
  constexpr size_t kBucket = 64;
  const StrPartitioning hilbert = HilbertPartition(boxes, kBucket);
  double hilbert_volume = 0;
  for (size_t b = 0; b < hilbert.NumBuckets(); ++b) {
    hilbert_volume += BucketMbr(boxes, hilbert.Bucket(b)).Volume();
  }
  double unsorted_volume = 0;
  std::vector<uint32_t> ids(boxes.size());
  std::iota(ids.begin(), ids.end(), 0u);
  for (size_t begin = 0; begin < ids.size(); begin += kBucket) {
    const size_t count = std::min(kBucket, ids.size() - begin);
    unsorted_volume +=
        BucketMbr(boxes, std::span<const uint32_t>(ids).subspan(begin, count))
            .Volume();
  }
  EXPECT_LT(hilbert_volume, unsorted_volume / 10);
}

// --- Hilbert-bulk-loaded R-tree ---------------------------------------------

class HilbertRTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    boxes_ = GenerateSynthetic(Distribution::kGaussian, 2000, 23);
  }
  Dataset boxes_;
};

TEST_F(HilbertRTreeTest, InvariantsHold) {
  const RTree tree(boxes_, 16, 4, BulkLoadMethod::kHilbert);
  EXPECT_EQ(tree.size(), boxes_.size());
  // Every node's MBR contains its children's MBRs / items.
  for (uint32_t id = 0; id < tree.nodes().size(); ++id) {
    const RTree::Node& node = tree.nodes()[id];
    const Box mbr = tree.NodeMbr(id);
    for (uint32_t i = node.begin; i < node.begin + node.count; ++i) {
      EXPECT_TRUE(Contains(mbr, node.IsLeaf() ? boxes_[tree.item_ids()[i]]
                                              : tree.NodeMbr(i)));
    }
  }
  // Every item appears exactly once.
  std::vector<uint32_t> items(tree.item_ids().begin(), tree.item_ids().end());
  std::sort(items.begin(), items.end());
  for (uint32_t i = 0; i < items.size(); ++i) EXPECT_EQ(items[i], i);
}

TEST_F(HilbertRTreeTest, QueriesMatchBruteForce) {
  const RTree tree(boxes_, 16, 4, BulkLoadMethod::kHilbert);
  Rng rng(5);
  for (int q = 0; q < 50; ++q) {
    const Box query = CenteredBox(rng.NextFloat() * 1000.0f,
                                  rng.NextFloat() * 1000.0f,
                                  rng.NextFloat() * 1000.0f, 30.0f);
    std::vector<uint32_t> expected;
    for (uint32_t i = 0; i < boxes_.size(); ++i) {
      if (Intersects(boxes_[i], query)) expected.push_back(i);
    }
    std::vector<uint32_t> got;
    JoinStats stats;
    tree.Query(boxes_, query, [&](uint32_t id) { got.push_back(id); }, &stats);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "query " << q;
  }
}

TEST_F(HilbertRTreeTest, LeafVolumeComparableToStr) {
  // Hilbert and STR pack comparably on non-extreme data (the paper's claim);
  // allow Hilbert up to 3x STR leaf volume but no more.
  auto leaf_volume = [&](BulkLoadMethod method) {
    const RTree tree(boxes_, 16, 4, method);
    double volume = 0;
    for (uint32_t id = 0; id < tree.nodes().size(); ++id) {
      if (tree.nodes()[id].IsLeaf()) volume += tree.NodeMbr(id).Volume();
    }
    return volume;
  };
  const double str = leaf_volume(BulkLoadMethod::kStr);
  const double hilbert = leaf_volume(BulkLoadMethod::kHilbert);
  EXPECT_LT(hilbert, str * 3.0);
  EXPECT_GT(hilbert, 0.0);
}

}  // namespace
}  // namespace touch
