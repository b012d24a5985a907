#include "index/rtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "datagen/distributions.h"
#include "index/dynamic_rtree.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/worker_pool.h"

namespace touch {
namespace {

// Brute-force range query for comparison.
std::vector<uint32_t> BruteForceQuery(const Dataset& boxes, const Box& query) {
  std::vector<uint32_t> hits;
  for (uint32_t i = 0; i < boxes.size(); ++i) {
    if (Intersects(boxes[i], query)) hits.push_back(i);
  }
  return hits;
}

// The class invariants every RTree holds, however it was built: items are a
// permutation of the input in DFS leaf order, so the children's item ranges
// (through ItemRange) tile the parent's; MBRs enclose their descendants;
// levels step by one; no inner node has more than `fanout` children. And
// the layout: ids run level by level, leaves first and the root last; each
// level's child ranges tile the level below in parent order; leaf ids
// ascend in item order.
void ExpectStructuralInvariants(const RTree& tree, const Dataset& boxes,
                                size_t fanout, const std::string& label) {
  SCOPED_TRACE(label);
  std::vector<uint32_t> all(tree.item_ids().begin(), tree.item_ids().end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), boxes.size());
  for (uint32_t i = 0; i < all.size(); ++i) ASSERT_EQ(all[i], i);
  if (tree.empty()) return;

  const std::span<const RTree::Node> nodes = tree.nodes();
  const uint32_t node_count = static_cast<uint32_t>(nodes.size());
  ASSERT_EQ(tree.node_mbrs().size(), nodes.size());
  EXPECT_EQ(tree.root(), node_count - 1);
  const RTree::ItemSpan root = tree.ItemRange(tree.root());
  EXPECT_EQ(root.begin, 0u);
  EXPECT_EQ(root.end, boxes.size());
  EXPECT_EQ(nodes[tree.root()].level + 1, tree.height());
  // level_begin[l]: the first id of level l. next_child[l]: the next level-l
  // id a parent must claim.
  std::vector<uint32_t> level_begin(tree.height() + 1, node_count);
  for (uint32_t id = node_count; id-- > 0;) {
    if (id + 1 < node_count) {
      ASSERT_LE(nodes[id].level, nodes[id + 1].level) << id;
    }
    level_begin[nodes[id].level] = id;
  }
  std::vector<uint32_t> next_child = level_begin;
  uint32_t next_item = 0;
  for (uint32_t id = 0; id < node_count; ++id) {
    const RTree::Node& node = nodes[id];
    const Box mbr = tree.NodeMbr(id);
    const RTree::ItemSpan items = tree.ItemRange(id);
    for (uint32_t i = items.begin; i < items.end; ++i) {
      EXPECT_TRUE(Contains(mbr, boxes[tree.item_ids()[i]])) << id;
    }
    if (node.IsLeaf()) {
      EXPECT_EQ(items.begin, node.begin);
      EXPECT_EQ(items.size(), node.count);
      EXPECT_EQ(node.begin, next_item) << "leaf " << id;
      next_item = node.begin + node.count;
      continue;
    }
    EXPECT_GE(node.count, 1u);
    EXPECT_LE(node.count, fanout);
    EXPECT_EQ(node.begin, next_child[node.level - 1]) << "node " << id;
    next_child[node.level - 1] = node.begin + node.count;
    uint32_t next = items.begin;
    for (uint32_t child = node.begin; child < node.begin + node.count;
         ++child) {
      EXPECT_TRUE(Contains(mbr, tree.NodeMbr(child)));
      EXPECT_EQ(nodes[child].level + 1, node.level);
      const RTree::ItemSpan child_items = tree.ItemRange(child);
      EXPECT_EQ(child_items.begin, next) << "node " << id;
      next = child_items.end;
    }
    EXPECT_EQ(next, items.end) << "node " << id;
  }
  EXPECT_EQ(next_item, boxes.size());
  for (int level = 0; level + 1 < tree.height(); ++level) {
    EXPECT_EQ(next_child[level], level_begin[level + 1]) << "level " << level;
  }
}

// Bitwise equality of the six coordinate arrays of two slabs' first n rows.
bool SameRows(const BoxSlab& x, const BoxSlab& y, size_t n) {
  const auto same = [n](const float* p, const float* q) {
    return std::memcmp(p, q, n * sizeof(float)) == 0;
  };
  return same(x.lo_x(), y.lo_x()) && same(x.lo_y(), y.lo_y()) &&
         same(x.lo_z(), y.lo_z()) && same(x.hi_x(), y.hi_x()) &&
         same(x.hi_y(), y.hi_y()) && same(x.hi_z(), y.hi_z());
}

bool SameTree(const RTree& x, const RTree& y) {
  if (x.root() != y.root() || x.height() != y.height() ||
      x.nodes().size() != y.nodes().size()) {
    return false;
  }
  for (size_t i = 0; i < x.nodes().size(); ++i) {
    const RTree::Node& a = x.nodes()[i];
    const RTree::Node& b = y.nodes()[i];
    if (a.begin != b.begin || a.count != b.count || a.level != b.level) {
      return false;
    }
  }
  return SameRows(x.node_mbrs(), y.node_mbrs(), x.nodes().size()) &&
         std::ranges::equal(x.item_ids(), y.item_ids()) &&
         x.MemoryUsageBytes() == y.MemoryUsageBytes();
}

size_t LeafCount(const RTree& tree) {
  return static_cast<size_t>(std::ranges::count_if(
      tree.nodes(), [](const RTree::Node& node) { return node.IsLeaf(); }));
}

TEST(RTreeTest, EmptyTree) {
  const RTree tree({}, 8, 4);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.height(), 0);
  JoinStats stats;
  int hits = 0;
  tree.Query({}, MakeBox(0, 0, 0, 1, 1, 1), [&](uint32_t) { ++hits; }, &stats);
  EXPECT_EQ(hits, 0);
}

TEST(RTreeTest, SingleObjectTree) {
  const Dataset boxes = {MakeBox(1, 1, 1, 2, 2, 2)};
  const RTree tree(boxes, 8, 4);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.height(), 1);
  JoinStats stats;
  std::vector<uint32_t> hits;
  tree.Query(boxes, MakeBox(0, 0, 0, 5, 5, 5),
             [&](uint32_t id) { hits.push_back(id); }, &stats);
  EXPECT_EQ(hits, std::vector<uint32_t>{0});
}

TEST(RTreeTest, SingleLeafTree) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 5, 1);
  const RTree tree(boxes, 8, 2);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_EQ(LeafCount(tree), 1u);
  EXPECT_TRUE(tree.nodes()[tree.root()].IsLeaf());
  EXPECT_EQ(tree.ItemRange(tree.root()).size(), 5u);
}

TEST(RTreeTest, InvariantsHoldForEveryBulkLoader) {
  const Dataset boxes = GenerateSynthetic(Distribution::kClustered, 1000, 5);
  for (const size_t fanout : {2u, 3u, 4u, 7u}) {
    for (const BulkLoadMethod method :
         {BulkLoadMethod::kStr, BulkLoadMethod::kHilbert,
          BulkLoadMethod::kTgs}) {
      ExpectStructuralInvariants(
          RTree(boxes, 8, fanout, method), boxes, fanout,
          "method " + std::to_string(static_cast<int>(method)) + " fanout " +
              std::to_string(fanout));
    }
  }
}

TEST(RTreeTest, InvariantsHoldForInsertionBuiltTrees) {
  const Dataset boxes = GenerateSynthetic(Distribution::kGaussian, 1500, 6);
  for (const RTreeVariant variant :
       {RTreeVariant::kGuttman, RTreeVariant::kRStar}) {
    DynamicRTree::Options options;
    options.max_entries = 8;
    options.min_entries = 3;
    options.variant = variant;
    DynamicRTree dynamic(options);
    for (uint32_t i = 0; i < boxes.size(); ++i) dynamic.Insert(i, boxes[i]);
    ExpectStructuralInvariants(RTree::FromDynamic(dynamic), boxes,
                               options.max_entries,
                               "variant " + std::to_string(
                                                static_cast<int>(variant)));
  }
}

TEST(RTreeTest, LeavesKeepTheirPackingOrder) {
  // Laying the tree out moves whole leaves; it never reorders the items
  // inside one, so each leaf holds exactly one STR bucket, in bucket order,
  // and every bucket is some leaf.
  const Dataset boxes = GenerateSynthetic(Distribution::kGaussian, 3000, 7);
  const RTree tree(boxes, 16, 3);
  const StrPartitioning buckets = StrPartition(boxes, 16);
  ASSERT_EQ(LeafCount(tree), buckets.NumBuckets());
  std::vector<uint32_t> bucket_starting_with(boxes.size(), UINT32_MAX);
  for (uint32_t b = 0; b < buckets.NumBuckets(); ++b) {
    bucket_starting_with[buckets.Bucket(b).front()] = b;
  }
  std::vector<bool> seen(buckets.NumBuckets(), false);
  for (uint32_t leaf = 0; leaf < buckets.NumBuckets(); ++leaf) {
    const RTree::Node& node = tree.nodes()[leaf];
    ASSERT_TRUE(node.IsLeaf());
    const auto items = tree.item_ids().subspan(node.begin, node.count);
    const uint32_t b = bucket_starting_with[items.front()];
    ASSERT_NE(b, UINT32_MAX) << "leaf " << leaf;
    EXPECT_FALSE(seen[b]) << "leaf " << leaf;
    seen[b] = true;
    EXPECT_TRUE(std::ranges::equal(items, buckets.Bucket(b)))
        << "leaf " << leaf;
  }
}

TEST(RTreeTest, FanoutOneBuildsTheFanoutTwoTree) {
  // A fanout of 1 would never shrink the upper levels; it is clamped to 2.
  for (const size_t n : {10u, 500u}) {
    const Dataset boxes = GenerateSynthetic(Distribution::kUniform, n, 8);
    const RTree tree(boxes, 4, 1);
    EXPECT_TRUE(SameTree(tree, RTree(boxes, 4, 2))) << n;
    Rng rng(17);
    for (int q = 0; q < 20; ++q) {
      const Box query = CenteredBox(
          static_cast<float>(rng.Uniform(0, 1000)),
          static_cast<float>(rng.Uniform(0, 1000)),
          static_cast<float>(rng.Uniform(0, 1000)),
          static_cast<float>(rng.Uniform(10, 300)));
      JoinStats stats;
      std::vector<uint32_t> hits;
      tree.Query(boxes, query, [&](uint32_t id) { hits.push_back(id); },
                 &stats);
      std::sort(hits.begin(), hits.end());
      EXPECT_EQ(hits, BruteForceQuery(boxes, query)) << n << " query " << q;
    }
  }
}

TEST(RTreeTest, PooledBuildIsIdenticalToSequential) {
  const Dataset boxes = GenerateSynthetic(Distribution::kGaussian, 60000, 23);
  WorkerPool pool(3);
  HelperSet helpers;
  const RTree pooled(boxes, 64, 2, BulkLoadMethod::kStr, &pool, &helpers);
  EXPECT_TRUE(SameTree(pooled, RTree(boxes, 64, 2)));
}

TEST(RTreeTest, LeafCapacityControlsLeafCount) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 1024, 9);
  const RTree fine(boxes, 4, 2);
  const RTree coarse(boxes, 128, 2);
  EXPECT_GE(LeafCount(fine), 256u);
  EXPECT_LE(LeafCount(coarse), 16u);
}

TEST(RTreeTest, NodeMbrsEncloseChildren) {
  const Dataset boxes = GenerateSynthetic(Distribution::kClustered, 2000, 1);
  const RTree tree(boxes, 16, 4);
  for (uint32_t id = 0; id < tree.nodes().size(); ++id) {
    const RTree::Node& node = tree.nodes()[id];
    const Box mbr = tree.NodeMbr(id);
    for (uint32_t i = node.begin; i < node.begin + node.count; ++i) {
      EXPECT_TRUE(Contains(mbr, node.IsLeaf() ? boxes[tree.item_ids()[i]]
                                              : tree.NodeMbr(i)));
    }
  }
}

TEST(RTreeTest, LeavesPartitionTheInput) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 1000, 2);
  const RTree tree(boxes, 16, 4);
  std::vector<uint32_t> all(tree.item_ids().begin(), tree.item_ids().end());
  std::sort(all.begin(), all.end());
  for (uint32_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i);
}

TEST(RTreeTest, RootLevelMatchesHeight) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 1000, 3);
  const RTree tree(boxes, 8, 2);
  EXPECT_EQ(tree.nodes()[tree.root()].level, tree.height() - 1);
}

TEST(RTreeTest, SmallerFanoutGivesTallerTree) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 2000, 4);
  const RTree tall(boxes, 8, 2);
  const RTree flat(boxes, 8, 16);
  EXPECT_GT(tall.height(), flat.height());
}

TEST(RTreeTest, QueryMatchesBruteForce) {
  const Dataset boxes = GenerateSynthetic(Distribution::kGaussian, 3000, 5);
  const RTree tree(boxes, 16, 4);
  Rng rng(99);
  for (int q = 0; q < 50; ++q) {
    const Box query = CenteredBox(
        static_cast<float>(rng.Uniform(0, 1000)),
        static_cast<float>(rng.Uniform(0, 1000)),
        static_cast<float>(rng.Uniform(0, 1000)),
        static_cast<float>(rng.Uniform(1, 50)));
    JoinStats stats;
    std::vector<uint32_t> hits;
    tree.Query(boxes, query, [&](uint32_t id) { hits.push_back(id); }, &stats);
    std::sort(hits.begin(), hits.end());
    EXPECT_EQ(hits, BruteForceQuery(boxes, query)) << "query " << q;
  }
}

TEST(RTreeTest, QueryCountsComparisons) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 1000, 6);
  const RTree tree(boxes, 16, 4);
  JoinStats stats;
  tree.Query(boxes, MakeBox(0, 0, 0, 1000, 1000, 1000), [](uint32_t) {}, &stats);
  // A query covering everything must test every object and visit every node.
  EXPECT_EQ(stats.comparisons, boxes.size());
  EXPECT_GT(stats.node_comparisons, 0u);
}

TEST(RTreeTest, DisjointQueryPrunesEverything) {
  const Dataset boxes = GenerateSynthetic(Distribution::kUniform, 1000, 7);
  const RTree tree(boxes, 16, 4);
  JoinStats stats;
  int hits = 0;
  tree.Query(boxes, MakeBox(5000, 5000, 5000, 6000, 6000, 6000),
             [&](uint32_t) { ++hits; }, &stats);
  EXPECT_EQ(hits, 0);
  // Pruned at the root: no object comparisons at all.
  EXPECT_EQ(stats.comparisons, 0u);
}

TEST(RTreeTest, MemoryUsageGrowsWithInput) {
  const Dataset small = GenerateSynthetic(Distribution::kUniform, 100, 8);
  const Dataset large = GenerateSynthetic(Distribution::kUniform, 10000, 8);
  EXPECT_LT(RTree(small, 16, 4).MemoryUsageBytes(),
            RTree(large, 16, 4).MemoryUsageBytes());
}

TEST(RTreeTest, IdenticalBoxesAllFound) {
  const Dataset boxes(500, MakeBox(5, 5, 5, 6, 6, 6));
  const RTree tree(boxes, 8, 2);
  JoinStats stats;
  std::vector<uint32_t> hits;
  tree.Query(boxes, MakeBox(5.5f, 5.5f, 5.5f, 5.6f, 5.6f, 5.6f),
             [&](uint32_t id) { hits.push_back(id); }, &stats);
  EXPECT_EQ(hits.size(), boxes.size());
  EXPECT_EQ(tree.NodeMbr(tree.root()), MakeBox(5, 5, 5, 6, 6, 6));
}

}  // namespace
}  // namespace touch
