// Property tests for the SoA slab builder and its aligned arena
// (core/overlap_kernel.h, util/simd.h): every coordinate array is 64-byte
// aligned, box reconstruction round-trips bit-exactly, tail padding can
// never produce phantom overlaps (even against a ±infinite query), and the
// arena's footprint is deterministic in the request sequence and
// independent of epsilon — the property the engine's footprint-equality
// tests (prebuilt_tree_test) lean on. CI also runs this suite under the
// ASan/UBSan leg, where an out-of-bounds tail load or misaligned store
// fails loudly.

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/overlap_kernel.h"
#include "datagen/distributions.h"
#include "test_util.h"
#include "util/simd.h"

namespace touch {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

bool Is64ByteAligned(const float* p) {
  return (reinterpret_cast<uintptr_t>(p) % simd::AlignedArena::kAlignment) ==
         0;
}

TEST(BoxSlabTest, AllSixArraysAre64ByteAlignedAtEverySize) {
  std::mt19937 rng(3);
  BoxSlab slab;
  for (const size_t n : {1u, 2u, 3u, 7u, 15u, 16u, 17u, 100u, 1000u}) {
    Dataset boxes;
    for (size_t i = 0; i < n; ++i) {
      const float x = static_cast<float>(rng() % 1000);
      boxes.push_back(CenteredBox(x, x * 0.5f, -x));
    }
    slab.Assign(boxes);  // reusing one slab exercises arena reuse paths
    EXPECT_TRUE(Is64ByteAligned(slab.lo_x())) << n;
    EXPECT_TRUE(Is64ByteAligned(slab.hi_x())) << n;
    EXPECT_TRUE(Is64ByteAligned(slab.lo_y())) << n;
    EXPECT_TRUE(Is64ByteAligned(slab.hi_y())) << n;
    EXPECT_TRUE(Is64ByteAligned(slab.lo_z())) << n;
    EXPECT_TRUE(Is64ByteAligned(slab.hi_z())) << n;
  }
}

// Bit-level float equality (NaN-safe, distinguishes -0.0f from 0.0f): the
// round-trip guarantee the sweep-order and reference-point consumers need.
bool SameBits(float a, float b) {
  return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
}

bool SameBoxBits(const Box& a, const Box& b) {
  return SameBits(a.lo.x, b.lo.x) && SameBits(a.lo.y, b.lo.y) &&
         SameBits(a.lo.z, b.lo.z) && SameBits(a.hi.x, b.hi.x) &&
         SameBits(a.hi.y, b.hi.y) && SameBits(a.hi.z, b.hi.z);
}

TEST(BoxSlabTest, BoxAtRoundTripsBitExactly) {
  const Dataset boxes = GenerateSynthetic(Distribution::kClustered, 500, 17);
  BoxSlab slab;
  slab.Assign(boxes);
  for (size_t i = 0; i < boxes.size(); ++i) {
    EXPECT_TRUE(SameBoxBits(slab.BoxAt(i), boxes[i])) << i;
  }
  // With epsilon, the slab must hold exactly Box::Enlarged's floats.
  const float epsilon = 2.75f;
  slab.Assign(boxes, epsilon);
  for (size_t i = 0; i < boxes.size(); ++i) {
    EXPECT_TRUE(SameBoxBits(slab.BoxAt(i), boxes[i].Enlarged(epsilon))) << i;
  }
}

TEST(BoxSlabTest, SpecialValuesRoundTrip) {
  const float denormal = 1e-42f;
  const Dataset boxes = {
      MakeBox(-0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f),
      MakeBox(-kInf, -kInf, -kInf, kInf, kInf, kInf),
      MakeBox(denormal, -denormal, denormal, denormal, denormal, denormal),
  };
  BoxSlab slab;
  slab.Assign(boxes);
  for (size_t i = 0; i < boxes.size(); ++i) {
    EXPECT_TRUE(SameBoxBits(slab.BoxAt(i), boxes[i])) << i;
  }
}

// Padding lanes must be invisible to every kernel — including against a
// query that covers all of space, which the ±inf sentinels alone would NOT
// repel if the tail masking were missing.
TEST(BoxSlabTest, TailPaddingProducesNoPhantomOverlaps) {
  const Box everything = MakeBox(-kInf, -kInf, -kInf, kInf, kInf, kInf);
  for (size_t n = 1; n <= 2 * BoxSlab::kPad + 1; ++n) {
    Dataset boxes;
    for (size_t i = 0; i < n; ++i) {
      boxes.push_back(CenteredBox(static_cast<float>(i), 0, 0));
    }
    BoxSlab slab;
    slab.Assign(boxes);
    std::vector<uint32_t> hits;
    CollectOverlaps(slab, 0, slab.size(), everything, hits);
    ASSERT_EQ(hits.size(), n) << "phantom or dropped hits at size " << n;
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], i);

    // The gather path with every position listed, in reverse, must agree:
    // every list index hits, in list order.
    std::vector<uint32_t> all_positions;
    for (size_t i = n; i-- > 0;) {
      all_positions.push_back(static_cast<uint32_t>(i));
    }
    hits.clear();
    CollectOverlapsGather(slab, all_positions, everything, hits);
    ASSERT_EQ(hits.size(), n);
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], i);
  }
}

TEST(BoxSlabTest, EmptySlabYieldsNothing) {
  BoxSlab slab;
  slab.Assign(Dataset{});
  EXPECT_TRUE(slab.empty());
  std::vector<uint32_t> hits;
  EXPECT_EQ(CollectOverlaps(slab, 0, 0,
                            MakeBox(-kInf, -kInf, -kInf, kInf, kInf, kInf),
                            hits),
            0u);
  EXPECT_TRUE(hits.empty());
}

// --- arena properties --------------------------------------------------------

TEST(AlignedArenaTest, ReturnsAlignedGrowingStorage) {
  simd::AlignedArena arena;
  EXPECT_EQ(arena.capacity(), 0u);
  EXPECT_EQ(arena.MemoryUsageBytes(), 0u);
  float* p = arena.Reserve(10);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(Is64ByteAligned(p));
  EXPECT_GE(arena.capacity(), 10u);
  const size_t first_capacity = arena.capacity();
  // Shrinking requests reuse the block: same pointer, same capacity.
  EXPECT_EQ(arena.Reserve(5), p);
  EXPECT_EQ(arena.capacity(), first_capacity);
  // Growth keeps alignment.
  float* grown = arena.Reserve(first_capacity + 1);
  EXPECT_TRUE(Is64ByteAligned(grown));
  EXPECT_GE(arena.capacity(), first_capacity + 1);
}

// Two arenas fed the same request sequence end at the same capacity, and
// slab footprints do not depend on epsilon: the determinism the engine's
// fly-vs-copied footprint equality rests on.
TEST(AlignedArenaTest, FootprintIsDeterministicAndEpsilonIndependent) {
  const std::vector<size_t> requests = {16, 100, 20, 300, 299, 512};
  simd::AlignedArena arena_one;
  simd::AlignedArena arena_two;
  for (const size_t count : requests) {
    arena_one.Reserve(count);
    arena_two.Reserve(count);
    EXPECT_EQ(arena_one.MemoryUsageBytes(), arena_two.MemoryUsageBytes());
  }

  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 333, 29);
  BoxSlab plain;
  BoxSlab enlarged;
  plain.Assign(boxes, 0.0f);
  enlarged.Assign(boxes, 7.5f);
  EXPECT_EQ(plain.MemoryUsageBytes(), enlarged.MemoryUsageBytes());
}

}  // namespace
}  // namespace touch
