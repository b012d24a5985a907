#include "index/dynamic_rtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "datagen/distributions.h"
#include "test_util.h"
#include "util/rng.h"

namespace touch {
namespace {

DynamicRTree::Options MakeOptions(RTreeVariant variant, uint32_t max_entries,
                                  uint32_t min_entries) {
  DynamicRTree::Options opt;
  opt.variant = variant;
  opt.max_entries = max_entries;
  opt.min_entries = min_entries;
  return opt;
}

std::vector<uint32_t> QuerySorted(const DynamicRTree& tree, const Box& query) {
  std::vector<uint32_t> got;
  tree.Query(query, [&](uint32_t id, const Box&) { got.push_back(id); });
  std::sort(got.begin(), got.end());
  return got;
}

std::vector<uint32_t> BruteForce(const Dataset& boxes, const Box& query) {
  std::vector<uint32_t> expected;
  for (uint32_t i = 0; i < boxes.size(); ++i) {
    if (Intersects(boxes[i], query)) expected.push_back(i);
  }
  return expected;
}

// Both variants must satisfy the same contract; run the core battery on each.
class DynamicRTreeVariantTest : public ::testing::TestWithParam<RTreeVariant> {
 protected:
  DynamicRTree MakeTree(uint32_t max_entries = 16, uint32_t min_entries = 6) {
    return DynamicRTree(MakeOptions(GetParam(), max_entries, min_entries));
  }
};

TEST_P(DynamicRTreeVariantTest, EmptyTreeBasics) {
  DynamicRTree tree = MakeTree();
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.height(), 0);
  EXPECT_TRUE(tree.bounds().IsEmpty());
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_TRUE(QuerySorted(tree, MakeBox(0, 0, 0, 1, 1, 1)).empty());
  EXPECT_FALSE(tree.Remove(0, MakeBox(0, 0, 0, 1, 1, 1)));
}

TEST_P(DynamicRTreeVariantTest, InsertThenQueryMatchesBruteForce) {
  const Dataset boxes = GenerateSynthetic(Distribution::kClustered, 3000, 41);
  DynamicRTree tree = MakeTree();
  for (uint32_t i = 0; i < boxes.size(); ++i) tree.Insert(i, boxes[i]);
  ASSERT_EQ(tree.size(), boxes.size());
  ASSERT_TRUE(tree.CheckInvariants());

  Rng rng(42);
  for (int q = 0; q < 60; ++q) {
    const Box query = CenteredBox(rng.NextFloat() * 1000.0f,
                                  rng.NextFloat() * 1000.0f,
                                  rng.NextFloat() * 1000.0f, 25.0f);
    EXPECT_EQ(QuerySorted(tree, query), BruteForce(boxes, query))
        << "query " << q;
  }
}

TEST_P(DynamicRTreeVariantTest, InvariantsHoldThroughoutInsertion) {
  const Dataset boxes = GenerateSynthetic(Distribution::kGaussian, 600, 43);
  DynamicRTree tree = MakeTree(8, 3);
  for (uint32_t i = 0; i < boxes.size(); ++i) {
    tree.Insert(i, boxes[i]);
    if (i % 37 == 0) {
      ASSERT_TRUE(tree.CheckInvariants()) << "after insert " << i;
    }
  }
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_GE(tree.height(), 2);
}

TEST_P(DynamicRTreeVariantTest, RemoveDeletesExactlyTheEntry) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 500, 44);
  DynamicRTree tree = MakeTree(8, 3);
  for (uint32_t i = 0; i < boxes.size(); ++i) tree.Insert(i, boxes[i]);

  // Remove every third entry and verify queries reflect it.
  std::vector<bool> removed(boxes.size(), false);
  for (uint32_t i = 0; i < boxes.size(); i += 3) {
    EXPECT_TRUE(tree.Remove(i, boxes[i])) << i;
    removed[i] = true;
  }
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(tree.size(), boxes.size() - (boxes.size() + 2) / 3);

  const Box everything = MakeBox(-1e6f, -1e6f, -1e6f, 1e6f, 1e6f, 1e6f);
  const std::vector<uint32_t> got = QuerySorted(tree, everything);
  std::vector<uint32_t> expected;
  for (uint32_t i = 0; i < boxes.size(); ++i) {
    if (!removed[i]) expected.push_back(i);
  }
  EXPECT_EQ(got, expected);

  // Removing again fails; removing with the wrong box fails.
  EXPECT_FALSE(tree.Remove(0, boxes[0]));
  EXPECT_FALSE(tree.Remove(1, boxes[2]));
}

TEST_P(DynamicRTreeVariantTest, DrainToEmptyAndReuse) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 300, 45);
  DynamicRTree tree = MakeTree(6, 2);
  for (uint32_t i = 0; i < boxes.size(); ++i) tree.Insert(i, boxes[i]);
  for (uint32_t i = 0; i < boxes.size(); ++i) {
    ASSERT_TRUE(tree.Remove(i, boxes[i])) << i;
    if (i % 29 == 0) ASSERT_TRUE(tree.CheckInvariants());
  }
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.height(), 0);

  // The drained tree accepts new entries.
  for (uint32_t i = 0; i < 100; ++i) tree.Insert(i, boxes[i]);
  EXPECT_EQ(tree.size(), 100u);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST_P(DynamicRTreeVariantTest, DuplicateIdsAndIdenticalBoxesSupported) {
  DynamicRTree tree = MakeTree(4, 2);
  const Box box = CenteredBox(5, 5, 5);
  for (int i = 0; i < 50; ++i) tree.Insert(7, box);
  EXPECT_EQ(tree.size(), 50u);
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(QuerySorted(tree, box).size(), 50u);
  // Each Remove takes out exactly one copy.
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(tree.Remove(7, box));
  EXPECT_FALSE(tree.Remove(7, box));
  EXPECT_TRUE(tree.empty());
}

TEST_P(DynamicRTreeVariantTest, BoundsTrackInsertsAndRemoves) {
  DynamicRTree tree = MakeTree(4, 2);
  tree.Insert(0, MakeBox(0, 0, 0, 1, 1, 1));
  tree.Insert(1, MakeBox(100, 100, 100, 101, 101, 101));
  EXPECT_EQ(tree.bounds(), MakeBox(0, 0, 0, 101, 101, 101));
  EXPECT_TRUE(tree.Remove(1, MakeBox(100, 100, 100, 101, 101, 101)));
  EXPECT_EQ(tree.bounds(), MakeBox(0, 0, 0, 1, 1, 1));
}

TEST_P(DynamicRTreeVariantTest, QueryCountsComparisons) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 400, 46);
  DynamicRTree tree(MakeOptions(GetParam(), 16, 6));
  for (uint32_t i = 0; i < boxes.size(); ++i) tree.Insert(i, boxes[i]);
  JoinStats stats;
  tree.Query(CenteredBox(500, 500, 500, 50.0f), [](uint32_t, const Box&) {},
             &stats);
  EXPECT_GT(stats.node_comparisons, 0u);
  // A selective query must not scan everything.
  EXPECT_LT(stats.comparisons, boxes.size());
}

// Sizes around the fanout: empty, a lone leaf, a full root leaf, the first
// split, a trailing bucket of one, and multi-level trees whose STR tiles
// end in short buckets.
constexpr size_t kBulkSizes[] = {0, 1, 15, 16, 17, 6 * 16 + 1, 1000, 4097};

TEST_P(DynamicRTreeVariantTest, BulkLoadMatchesBruteForce) {
  for (const size_t n : kBulkSizes) {
    const Dataset boxes = GenerateSynthetic(Distribution::kClustered, n, 51);
    DynamicRTree tree = MakeTree();
    tree.BulkLoad(boxes);
    ASSERT_EQ(tree.size(), n);
    ASSERT_TRUE(tree.CheckInvariants()) << "n=" << n;
    if (n > 0) {
      Box extent = Box::Empty();
      for (const Box& b : boxes) extent.ExpandToContain(b);
      EXPECT_EQ(tree.bounds(), extent) << "n=" << n;
    }
    const Box everything = MakeBox(-1e6f, -1e6f, -1e6f, 1e6f, 1e6f, 1e6f);
    EXPECT_EQ(QuerySorted(tree, everything), BruteForce(boxes, everything));
    Rng rng(52);
    for (int q = 0; q < 40; ++q) {
      const Box query = CenteredBox(rng.NextFloat() * 1000.0f,
                                    rng.NextFloat() * 1000.0f,
                                    rng.NextFloat() * 1000.0f, 40.0f);
      ASSERT_EQ(QuerySorted(tree, query), BruteForce(boxes, query))
          << "n=" << n << " query " << q;
    }
  }
}

TEST_P(DynamicRTreeVariantTest, BulkLoadWithFanoutTwo) {
  for (const size_t n : kBulkSizes) {
    const Dataset boxes = GenerateSynthetic(Distribution::kUniform, n, 53);
    DynamicRTree tree = MakeTree(2, 1);
    tree.BulkLoad(boxes);
    ASSERT_TRUE(tree.CheckInvariants()) << "n=" << n;
    const Box everything = MakeBox(-1e6f, -1e6f, -1e6f, 1e6f, 1e6f, 1e6f);
    EXPECT_EQ(QuerySorted(tree, everything), BruteForce(boxes, everything));
  }
}

TEST_P(DynamicRTreeVariantTest, BulkLoadReplacesContents) {
  DynamicRTree tree = MakeTree(8, 3);
  const Dataset first = GenerateSynthetic(Distribution::kUniform, 500, 54);
  for (uint32_t i = 0; i < first.size(); ++i) tree.Insert(i + 10000, first[i]);
  const Dataset second = GenerateSynthetic(Distribution::kGaussian, 300, 55);
  tree.BulkLoad(second);
  ASSERT_TRUE(tree.CheckInvariants());
  const Box everything = MakeBox(-1e6f, -1e6f, -1e6f, 1e6f, 1e6f, 1e6f);
  EXPECT_EQ(QuerySorted(tree, everything), BruteForce(second, everything));
  tree.BulkLoad({});
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.CheckInvariants());
  tree.Insert(3, second[3]);
  EXPECT_EQ(QuerySorted(tree, everything), (std::vector<uint32_t>{3}));
}

TEST_P(DynamicRTreeVariantTest, MutationsAfterBulkLoadStayInvariant) {
  for (const uint32_t max_entries : {2u, 8u, 16u}) {
    const uint32_t min_entries = max_entries == 16 ? 6 : max_entries / 2;
    const Dataset start = GenerateSynthetic(Distribution::kClustered, 1000, 56);
    DynamicRTree tree = MakeTree(max_entries, min_entries);
    tree.BulkLoad(start);
    // The reference: live id -> box (ids past the start set are inserts).
    std::vector<std::pair<uint32_t, Box>> live;
    for (uint32_t i = 0; i < start.size(); ++i) live.emplace_back(i, start[i]);
    uint32_t next_id = static_cast<uint32_t>(start.size());
    Rng rng(57 + max_entries);
    for (int op = 0; op < 1500; ++op) {
      const uint64_t dice = rng.UniformInt(10);
      if (live.empty() || dice < 3) {
        const Box box = CenteredBox(rng.NextFloat() * 1000.0f,
                                    rng.NextFloat() * 1000.0f,
                                    rng.NextFloat() * 1000.0f, 3.0f);
        tree.Insert(next_id, box);
        live.emplace_back(next_id++, box);
      } else if (dice < 6) {
        const size_t victim = rng.UniformInt(live.size());
        ASSERT_TRUE(tree.Remove(live[victim].first, live[victim].second));
        live[victim] = live.back();
        live.pop_back();
      } else {
        auto& [id, box] = live[rng.UniformInt(live.size())];
        const float d = dice < 9 ? 1.0f : 300.0f;  // nudge or far jump
        const Vec3 shift((rng.NextFloat() - 0.5f) * d,
                         (rng.NextFloat() - 0.5f) * d,
                         (rng.NextFloat() - 0.5f) * d);
        const Box moved(box.lo + shift, box.hi + shift);
        ASSERT_TRUE(tree.Update(id, box, moved));
        box = moved;
      }
      if (op % 100 == 0) {
        ASSERT_TRUE(tree.CheckInvariants())
            << "M=" << max_entries << " op " << op;
      }
    }
    ASSERT_TRUE(tree.CheckInvariants()) << "M=" << max_entries;
    ASSERT_EQ(tree.size(), live.size());
    std::vector<uint32_t> expected;
    const Box query = CenteredBox(500, 500, 500, 200.0f);
    for (const auto& [id, box] : live) {
      if (Intersects(box, query)) expected.push_back(id);
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(QuerySorted(tree, query), expected) << "M=" << max_entries;
  }
}

TEST(DynamicRTreeBulkLoadTest, PackedTreeProbesLessThanInsertionBuilt) {
  // STR's tight leaves (paper section 5.1) are the point of packing: the
  // same queries must test fewer nodes and objects than on a tree built by
  // one-at-a-time inserts, and the packed nodes hold no spare capacity.
  const Dataset boxes = GenerateSynthetic(Distribution::kGaussian, 20000, 58);
  DynamicRTree inserted(MakeOptions(RTreeVariant::kGuttman, 16, 6));
  for (uint32_t i = 0; i < boxes.size(); ++i) inserted.Insert(i, boxes[i]);
  DynamicRTree packed(MakeOptions(RTreeVariant::kGuttman, 16, 6));
  packed.BulkLoad(boxes);
  JoinStats inserted_stats;
  JoinStats packed_stats;
  Rng rng(59);
  for (int q = 0; q < 200; ++q) {
    const Box query = boxes[rng.UniformInt(boxes.size())].Enlarged(5.0f);
    inserted.Query(query, [](uint32_t, const Box&) {}, &inserted_stats);
    packed.Query(query, [](uint32_t, const Box&) {}, &packed_stats);
  }
  EXPECT_LT(packed_stats.node_comparisons, inserted_stats.node_comparisons);
  EXPECT_LT(packed_stats.comparisons, inserted_stats.comparisons);
  EXPECT_LT(packed.MemoryUsageBytes(), inserted.MemoryUsageBytes());
}

INSTANTIATE_TEST_SUITE_P(Variants, DynamicRTreeVariantTest,
                         ::testing::Values(RTreeVariant::kGuttman,
                                           RTreeVariant::kRStar),
                         [](const auto& info) {
                           return info.param == RTreeVariant::kGuttman
                                      ? "Guttman"
                                      : "RStar";
                         });

// --- Tree evolution golden ---------------------------------------------------

/// FNV-1a over 32-bit words.
uint64_t Fold(uint64_t hash, uint32_t word) {
  for (int byte = 0; byte < 4; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

uint64_t FoldBox(uint64_t hash, const Box& box) {
  for (const float f : {box.lo.x, box.lo.y, box.lo.z, box.hi.x, box.hi.y,
                        box.hi.z}) {
    hash = Fold(hash, std::bit_cast<uint32_t>(f));
  }
  return hash;
}

/// The tree's whole shape in preorder: every node's MBR bits, level and
/// child count, and every leaf entry's id and box bits, in stored order.
uint64_t ShapeHash(const DynamicRTree& tree, uint64_t hash) {
  tree.VisitNodes(
      [&](const Box& mbr, uint8_t level, bool is_leaf, size_t children) {
        hash = FoldBox(Fold(hash, 0xE17E4u), mbr);
        hash = Fold(hash, level);
        hash = Fold(hash, is_leaf ? 1u : 0u);
        hash = Fold(hash, static_cast<uint32_t>(children));
      },
      [&](uint32_t id, const Box& box) { hash = FoldBox(Fold(hash, id), box); },
      [&] { hash = Fold(hash, 0xE417u); });
  return hash;
}

struct Evolution {
  uint64_t shape = 0xcbf29ce484222325ULL;
  uint64_t comparisons = 0;
  uint64_t node_comparisons = 0;
};

/// One seeded mixed sequence: a bulk load, then inserts into a hot spot
/// (splits, R* forced reinsertion), removals and short and far updates
/// (condenses, orphan reinsertion, remove + reinsert), then a drain to a
/// handful of entries (root shrinks). The shape is folded and queried over
/// fixed windows at checkpoints along the way.
Evolution Evolve(RTreeVariant variant, uint32_t max_entries) {
  const uint32_t min_entries = max_entries == 16 ? 6 : max_entries / 2;
  DynamicRTree tree(MakeOptions(variant, max_entries, min_entries));
  const Dataset start = GenerateSynthetic(Distribution::kClustered, 700, 61);
  tree.BulkLoad(start);
  std::vector<std::pair<uint32_t, Box>> live;
  for (uint32_t i = 0; i < start.size(); ++i) live.emplace_back(i, start[i]);
  uint32_t next_id = static_cast<uint32_t>(start.size());
  Rng rng(62 + max_entries);
  Evolution out;
  const auto checkpoint = [&] {
    out.shape = ShapeHash(tree, out.shape);
    JoinStats stats;
    Rng windows(63);
    for (int q = 0; q < 40; ++q) {
      const Box window = CenteredBox(windows.NextFloat() * 1000.0f,
                                     windows.NextFloat() * 1000.0f,
                                     windows.NextFloat() * 1000.0f, 60.0f);
      tree.Query(window, [](uint32_t, const Box&) {}, &stats);
    }
    out.comparisons += stats.comparisons;
    out.node_comparisons += stats.node_comparisons;
  };
  checkpoint();
  for (int op = 0; op < 2500; ++op) {
    const uint64_t dice = rng.UniformInt(10);
    if (live.empty() || dice < 3) {
      // Half the inserts pile into one hot spot, overflowing its leaves.
      const bool hot = rng.UniformInt(2) == 0;
      const Box box =
          hot ? CenteredBox(300 + rng.NextFloat() * 20.0f,
                            300 + rng.NextFloat() * 20.0f,
                            300 + rng.NextFloat() * 20.0f, 2.0f)
              : CenteredBox(rng.NextFloat() * 1000.0f,
                            rng.NextFloat() * 1000.0f,
                            rng.NextFloat() * 1000.0f, 3.0f);
      tree.Insert(next_id, box);
      live.emplace_back(next_id++, box);
    } else if (dice < 5) {
      const size_t victim = rng.UniformInt(live.size());
      EXPECT_TRUE(tree.Remove(live[victim].first, live[victim].second));
      live[victim] = live.back();
      live.pop_back();
    } else {
      auto& [id, box] = live[rng.UniformInt(live.size())];
      const float d = dice < 8 ? 1.0f : 400.0f;  // nudge or far jump
      const Vec3 shift((rng.NextFloat() - 0.5f) * d,
                       (rng.NextFloat() - 0.5f) * d,
                       (rng.NextFloat() - 0.5f) * d);
      const Box moved(box.lo + shift, box.hi + shift);
      EXPECT_TRUE(tree.Update(id, box, moved));
      box = moved;
    }
    if (op % 500 == 499) checkpoint();
  }
  // Drain in random order down to a few entries.
  while (live.size() > 5) {
    const size_t victim = rng.UniformInt(live.size());
    EXPECT_TRUE(tree.Remove(live[victim].first, live[victim].second));
    live[victim] = live.back();
    live.pop_back();
    if (live.size() % 97 == 0) out.shape = ShapeHash(tree, out.shape);
  }
  EXPECT_TRUE(tree.CheckInvariants());
  checkpoint();
  return out;
}

// The node layout is storage only: for both variants and fanouts 2, 4 and
// 16, the mixed sequence must leave every split, condense, reinsertion and
// root shrink exactly where the entry-vector layout left them, and the
// queries must test exactly as many nodes and objects.
TEST(DynamicRTreeGoldenTest, TreeEvolutionIsUnchanged) {
  struct Expected {
    RTreeVariant variant;
    uint32_t max_entries;
    uint64_t shape;
    uint64_t comparisons;
    uint64_t node_comparisons;
  };
  const Expected expected[] = {
      {RTreeVariant::kGuttman, 2, 0xb1b356c0e6f37e81ULL, 563, 22692},
      {RTreeVariant::kGuttman, 4, 0x0027efb2519b113cULL, 1517, 10522},
      {RTreeVariant::kGuttman, 16, 0x3dfb97957522d775ULL, 5892, 6281},
      {RTreeVariant::kRStar, 2, 0x066f28fcfa3bdb7eULL, 581, 29932},
      {RTreeVariant::kRStar, 4, 0xdb6879513f371507ULL, 1717, 10918},
      {RTreeVariant::kRStar, 16, 0xe91827acfe10f9a3ULL, 5853, 5943},
  };
  for (const Expected& e : expected) {
    const Evolution got = Evolve(e.variant, e.max_entries);
    EXPECT_EQ(got.shape, e.shape) << "M=" << e.max_entries;
    EXPECT_EQ(got.comparisons, e.comparisons) << "M=" << e.max_entries;
    EXPECT_EQ(got.node_comparisons, e.node_comparisons)
        << "M=" << e.max_entries;
  }
}

// --- R*-specific behaviour ---------------------------------------------------

TEST(RStarTest, ProducesLessSiblingOverlapThanGuttmanOnSkewedData) {
  // The R*-tree's entire purpose (and the reason the paper cites it) is
  // lower node overlap. Verify the heuristics actually deliver that on
  // clustered data.
  const Dataset boxes = GenerateSynthetic(Distribution::kClustered, 4000, 47);
  DynamicRTree guttman(MakeOptions(RTreeVariant::kGuttman, 16, 6));
  DynamicRTree rstar(MakeOptions(RTreeVariant::kRStar, 16, 6));
  for (uint32_t i = 0; i < boxes.size(); ++i) {
    guttman.Insert(i, boxes[i]);
    rstar.Insert(i, boxes[i]);
  }
  ASSERT_TRUE(guttman.CheckInvariants());
  ASSERT_TRUE(rstar.CheckInvariants());
  EXPECT_LT(rstar.TotalSiblingOverlapVolume(),
            guttman.TotalSiblingOverlapVolume());
}

TEST(RStarTest, ReinsertFractionZeroStillWorks) {
  DynamicRTree::Options opt = MakeOptions(RTreeVariant::kRStar, 8, 3);
  opt.reinsert_fraction = 0.0f;  // degenerates towards split-only behaviour
  DynamicRTree tree(opt);
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 400, 48);
  for (uint32_t i = 0; i < boxes.size(); ++i) tree.Insert(i, boxes[i]);
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(tree.size(), boxes.size());
}

// --- Edge shapes --------------------------------------------------------------

TEST(DynamicRTreeEdgeTest, DegenerateAndHugeBoxes) {
  DynamicRTree tree(MakeOptions(RTreeVariant::kGuttman, 4, 2));
  // Zero-extent boxes (points).
  for (uint32_t i = 0; i < 30; ++i) {
    const float f = static_cast<float>(i);
    tree.Insert(i, MakeBox(f, f, f, f, f, f));
  }
  // One box covering everything.
  tree.Insert(1000, MakeBox(-1e5f, -1e5f, -1e5f, 1e5f, 1e5f, 1e5f));
  EXPECT_TRUE(tree.CheckInvariants());
  const auto got = QuerySorted(tree, MakeBox(4.5f, 4.5f, 4.5f, 5.5f, 5.5f, 5.5f));
  EXPECT_EQ(got, (std::vector<uint32_t>{5, 1000}));
}

TEST(DynamicRTreeEdgeTest, MinimalFanoutTwo) {
  DynamicRTree tree(MakeOptions(RTreeVariant::kGuttman, 2, 1));
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 200, 49);
  for (uint32_t i = 0; i < boxes.size(); ++i) tree.Insert(i, boxes[i]);
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_GE(tree.height(), 7);  // a binary-ish tree over 200 items is tall
  const Box everything = MakeBox(-1e6f, -1e6f, -1e6f, 1e6f, 1e6f, 1e6f);
  EXPECT_EQ(QuerySorted(tree, everything).size(), boxes.size());
}

TEST(DynamicRTreeEdgeTest, MemoryGrowsWithContent) {
  DynamicRTree tree(MakeOptions(RTreeVariant::kGuttman, 16, 6));
  const size_t empty_bytes = tree.MemoryUsageBytes();
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 2000, 50);
  for (uint32_t i = 0; i < boxes.size(); ++i) tree.Insert(i, boxes[i]);
  EXPECT_GT(tree.MemoryUsageBytes(), empty_bytes + boxes.size() * sizeof(Box));
}

}  // namespace
}  // namespace touch
