#include "index/str.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include "datagen/distributions.h"
#include "test_util.h"
#include "util/worker_pool.h"

namespace touch {
namespace {

// STR as first written: every slab sort a std::sort of ids under a
// comparator that compares two centers and breaks ties by id. StrPartition
// sorts packed keys instead and must give exactly this order.
StrPartitioning ReferenceStrPartition(const Dataset& boxes,
                                      size_t bucket_size) {
  StrPartitioning out;
  const size_t n = boxes.size();
  out.order.resize(n);
  std::iota(out.order.begin(), out.order.end(), 0u);
  const auto sort_by_center = [&](size_t begin, size_t end, int axis) {
    std::sort(out.order.begin() + static_cast<ptrdiff_t>(begin),
              out.order.begin() + static_cast<ptrdiff_t>(end),
              [&](uint32_t a, uint32_t b) {
                const float ca = boxes[a].lo[axis] + boxes[a].hi[axis];
                const float cb = boxes[b].lo[axis] + boxes[b].hi[axis];
                if (ca != cb) return ca < cb;
                return a < b;
              });
  };
  const size_t num_buckets = (n + bucket_size - 1) / bucket_size;
  const size_t s = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(std::cbrt(static_cast<double>(num_buckets)) - 1e-9)));
  const size_t slab_x = bucket_size * s * s;
  const size_t slab_y = bucket_size * s;
  sort_by_center(0, n, 0);
  out.bucket_begin.push_back(0);
  for (size_t x0 = 0; x0 < n; x0 += slab_x) {
    const size_t x1 = std::min(n, x0 + slab_x);
    sort_by_center(x0, x1, 1);
    for (size_t y0 = x0; y0 < x1; y0 += slab_y) {
      const size_t y1 = std::min(x1, y0 + slab_y);
      sort_by_center(y0, y1, 2);
      for (size_t z0 = y0; z0 < y1; z0 += bucket_size) {
        out.bucket_begin.push_back(
            static_cast<uint32_t>(std::min(y1, z0 + bucket_size)));
      }
    }
  }
  return out;
}

// Boxes whose centers, on every axis, mix -0.0 and +0.0, many duplicates,
// negative and subnormal coordinates, values near FLT_MAX (whose sums
// overflow to +-inf) and ordinary random ones.
Dataset AwkwardCenters(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  const float tiny = std::numeric_limits<float>::denorm_min();
  const auto pick = [&](float* lo, float* hi) {
    const int k = static_cast<int>(rng() % 16) - 8;
    switch (rng() % 8) {
      case 0:  // -0.0 + -0.0 = -0.0
        *lo = -0.0f;
        *hi = -0.0f;
        return;
      case 1:  // +0.0, two ways
        *lo = k % 2 == 0 ? 0.0f : -1.5f;
        *hi = k % 2 == 0 ? 0.0f : 1.5f;
        return;
      case 2:  // subnormal centers of either sign
        *lo = tiny * static_cast<float>(k);
        *hi = *lo;
        return;
      case 3:  // near FLT_MAX: finite, or +-inf once summed
        *lo = (k < 0 ? -FLT_MAX : FLT_MAX) * (k % 2 == 0 ? 1.0f : 0.25f);
        *hi = *lo;
        return;
      case 4:
      case 5:  // a handful of duplicate centers, negative ones included
        *lo = static_cast<float>(k);
        *hi = static_cast<float>(k) + 2.0f;
        return;
      default:
        *lo = std::uniform_real_distribution<float>(-1000, 1000)(rng);
        *hi = *lo + std::uniform_real_distribution<float>(0, 5)(rng);
        return;
    }
  };
  Dataset boxes(n);
  for (Box& box : boxes) {
    pick(&box.lo.x, &box.hi.x);
    pick(&box.lo.y, &box.hi.y);
    pick(&box.lo.z, &box.hi.z);
  }
  return boxes;
}

// Sizes either side of the 1024-key radix cutover for the whole-input
// x-sort and, through the bucket sizes, for the slab and tile sorts; the
// 40000-box inputs fork onto the pool.
TEST(StrTest, OrderMatchesComparatorReference) {
  WorkerPool pool(3);
  for (const size_t n : {size_t{1}, size_t{2}, size_t{1023}, size_t{1024},
                         size_t{1025}, size_t{5000}, size_t{40000}}) {
    const Dataset boxes = AwkwardCenters(n, 1000 + n);
    for (const size_t bucket :
         {size_t{1}, size_t{7}, size_t{64}, size_t{1024}}) {
      SCOPED_TRACE(testing::Message() << "n " << n << " bucket " << bucket);
      const StrPartitioning expected = ReferenceStrPartition(boxes, bucket);
      const StrPartitioning sequential = StrPartition(boxes, bucket);
      EXPECT_EQ(sequential.order, expected.order);
      EXPECT_EQ(sequential.bucket_begin, expected.bucket_begin);
      HelperSet helpers;
      const StrPartitioning pooled =
          StrPartition(boxes, bucket, &pool, &helpers);
      EXPECT_EQ(pooled.order, expected.order);
      EXPECT_EQ(pooled.bucket_begin, expected.bucket_begin);
    }
  }
}

// -0.0 and +0.0 centers are equal: ids alone order them, however the two
// zeros are interleaved.
TEST(StrTest, SignedZeroCentersTieById) {
  Dataset boxes;
  for (int i = 0; i < 3000; ++i) {
    const float zero = i % 3 == 0 ? -0.0f : 0.0f;
    boxes.push_back(MakeBox(zero, zero, zero, zero, zero, zero));
  }
  std::vector<uint32_t> ids(boxes.size());
  std::iota(ids.begin(), ids.end(), 0u);
  EXPECT_EQ(StrPartition(boxes, 5000).order, ids);
  EXPECT_EQ(StrPartition(boxes, 16).order,
            ReferenceStrPartition(boxes, 16).order);
}

TEST(StrTest, EmptyInput) {
  const StrPartitioning p = StrPartition({}, 8);
  EXPECT_EQ(p.NumBuckets(), 0u);
  EXPECT_TRUE(p.order.empty());
}

TEST(StrTest, SingleObject) {
  const Dataset boxes = {MakeBox(0, 0, 0, 1, 1, 1)};
  const StrPartitioning p = StrPartition(boxes, 8);
  ASSERT_EQ(p.NumBuckets(), 1u);
  EXPECT_EQ(p.Bucket(0).size(), 1u);
  EXPECT_EQ(p.Bucket(0)[0], 0u);
}

TEST(StrTest, OrderIsAPermutation) {
  const Dataset boxes = GenerateSynthetic(Distribution::kClustered, 1000, 1);
  const StrPartitioning p = StrPartition(boxes, 16);
  std::vector<uint32_t> sorted = p.order;
  std::sort(sorted.begin(), sorted.end());
  for (uint32_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(StrTest, BucketSizesRespectCapacity) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 1000, 2);
  const StrPartitioning p = StrPartition(boxes, 16);
  size_t total = 0;
  for (size_t b = 0; b < p.NumBuckets(); ++b) {
    EXPECT_LE(p.Bucket(b).size(), 16u);
    EXPECT_GE(p.Bucket(b).size(), 1u);
    total += p.Bucket(b).size();
  }
  EXPECT_EQ(total, boxes.size());
}

TEST(StrTest, BucketCountNearOptimal) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 1000, 3);
  const StrPartitioning p = StrPartition(boxes, 10);
  // ceil(1000/10) = 100 ideal buckets; STR's slab rounding may add a few.
  EXPECT_GE(p.NumBuckets(), 100u);
  EXPECT_LE(p.NumBuckets(), 130u);
}

TEST(StrTest, BucketBeginIsMonotone) {
  const Dataset boxes = GenerateSynthetic(Distribution::kGaussian, 777, 4);
  const StrPartitioning p = StrPartition(boxes, 8);
  for (size_t i = 1; i < p.bucket_begin.size(); ++i) {
    EXPECT_LT(p.bucket_begin[i - 1], p.bucket_begin[i]);
  }
  EXPECT_EQ(p.bucket_begin.back(), boxes.size());
}

TEST(StrTest, DeterministicOnTies) {
  // All-identical boxes: ordering must still be a deterministic permutation.
  const Dataset boxes(100, MakeBox(1, 1, 1, 2, 2, 2));
  const StrPartitioning p1 = StrPartition(boxes, 7);
  const StrPartitioning p2 = StrPartition(boxes, 7);
  EXPECT_EQ(p1.order, p2.order);
  EXPECT_EQ(p1.bucket_begin, p2.bucket_begin);
}

TEST(StrTest, TilingBeatsRandomBucketsOnMbrVolume) {
  // STR's point: spatially grouped buckets have far smaller MBRs than
  // arbitrary buckets of the same size.
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 2000, 5);
  const size_t bucket = 20;
  const StrPartitioning p = StrPartition(boxes, bucket);
  double str_volume = 0;
  for (size_t b = 0; b < p.NumBuckets(); ++b) {
    str_volume += BucketMbr(boxes, p.Bucket(b)).Volume();
  }
  // Random (insertion-order) buckets.
  std::vector<uint32_t> ids(boxes.size());
  std::iota(ids.begin(), ids.end(), 0);
  double random_volume = 0;
  for (size_t begin = 0; begin < ids.size(); begin += bucket) {
    const size_t end = std::min(ids.size(), begin + bucket);
    random_volume +=
        BucketMbr(boxes, std::span<const uint32_t>(ids).subspan(
                             begin, end - begin))
            .Volume();
  }
  EXPECT_LT(str_volume, random_volume / 10);
}

TEST(StrTest, BucketMbrEnclosesAllMembers) {
  const Dataset boxes = GenerateSynthetic(Distribution::kClustered, 500, 6);
  const StrPartitioning p = StrPartition(boxes, 32);
  for (size_t b = 0; b < p.NumBuckets(); ++b) {
    const Box mbr = BucketMbr(boxes, p.Bucket(b));
    for (uint32_t id : p.Bucket(b)) {
      EXPECT_TRUE(Contains(mbr, boxes[id]));
    }
  }
}

TEST(StrTest, BucketSizeOneYieldsOneBucketPerObject) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 50, 7);
  const StrPartitioning p = StrPartition(boxes, 1);
  EXPECT_EQ(p.NumBuckets(), boxes.size());
}

TEST(StrTest, BucketSizeLargerThanInputYieldsSingleBucket) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 50, 8);
  const StrPartitioning p = StrPartition(boxes, 1000);
  EXPECT_EQ(p.NumBuckets(), 1u);
  EXPECT_EQ(p.Bucket(0).size(), 50u);
}

TEST(StrTest, BucketSizeZeroIsTreatedAsOne) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 10, 9);
  const StrPartitioning p = StrPartition(boxes, 0);
  EXPECT_EQ(p.NumBuckets(), 10u);
}

// The per-slab sorts fork onto a pool's idle workers; slabs are disjoint
// and ties break by id, so the partitioning is the sequential one.
TEST(StrTest, PooledPartitionIsIdenticalToSequential) {
  const Dataset boxes = GenerateSynthetic(Distribution::kClustered, 50000, 19);
  // Many equal centers exercise the tie-break inside the forked sorts.
  Dataset tied = boxes;
  for (size_t i = 0; i < tied.size(); i += 3) tied[i] = tied[0];
  WorkerPool pool(3);
  for (const Dataset* input : std::vector<const Dataset*>{&boxes, &tied}) {
    for (const size_t bucket : {size_t{1}, size_t{7}, size_t{64}}) {
      const StrPartitioning expected = StrPartition(*input, bucket);
      HelperSet helpers;
      const StrPartitioning pooled =
          StrPartition(*input, bucket, &pool, &helpers);
      EXPECT_EQ(pooled.order, expected.order) << "bucket " << bucket;
      EXPECT_EQ(pooled.bucket_begin, expected.bucket_begin);
      EXPECT_LE(helpers.count(), pool.thread_count());
    }
  }
}

}  // namespace
}  // namespace touch
