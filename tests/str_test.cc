#include "index/str.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "datagen/distributions.h"
#include "test_util.h"
#include "util/worker_pool.h"

namespace touch {
namespace {

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
