// Differential fuzz test: random interleavings of Insert/Remove/Query on the
// DynamicRTree, checked against a brute-force reference multiset after every
// operation batch. Catches the classes of bugs unit tests miss — stale
// parent entries, condense-tree corner cases, free-list reuse.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "index/dynamic_rtree.h"
#include "test_util.h"
#include "util/rng.h"

namespace touch {
namespace {

struct Entry {
  uint32_t id;
  Box box;
};

Box RandomBox(Rng& rng, float space, float max_side) {
  const Vec3 lo(rng.NextFloat() * space, rng.NextFloat() * space,
                rng.NextFloat() * space);
  const Vec3 side(rng.NextFloat() * max_side, rng.NextFloat() * max_side,
                  rng.NextFloat() * max_side);
  return Box(lo, lo + side);
}

std::vector<uint32_t> ReferenceQuery(const std::vector<Entry>& live,
                                     const Box& query) {
  std::vector<uint32_t> result;
  for (const Entry& e : live) {
    if (Intersects(e.box, query)) result.push_back(e.id);
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<uint32_t> TreeQuery(const DynamicRTree& tree, const Box& query) {
  std::vector<uint32_t> result;
  tree.Query(query, [&](uint32_t id, const Box&) { result.push_back(id); });
  std::sort(result.begin(), result.end());
  return result;
}

class DynamicRTreeFuzzTest
    : public ::testing::TestWithParam<std::tuple<RTreeVariant, uint64_t>> {};

TEST_P(DynamicRTreeFuzzTest, RandomOperationsMatchReference) {
  const auto [variant, seed] = GetParam();
  Rng rng(seed);

  DynamicRTree::Options options;
  options.variant = variant;
  // Small nodes stress splits/condense far more per operation.
  options.max_entries = 2 + static_cast<uint32_t>(rng.UniformInt(7));
  options.min_entries =
      1 + static_cast<uint32_t>(rng.UniformInt(options.max_entries / 2));
  DynamicRTree tree(options);

  std::vector<Entry> live;
  uint32_t next_id = 0;
  constexpr int kBatches = 40;
  constexpr int kOpsPerBatch = 25;

  for (int batch = 0; batch < kBatches; ++batch) {
    for (int op = 0; op < kOpsPerBatch; ++op) {
      // Bias towards inserts early, removes late, so the tree both grows
      // tall and shrinks back.
      const bool grow_phase = batch < kBatches / 2;
      const uint64_t dice = rng.UniformInt(10);
      const bool insert = live.empty() || (grow_phase ? dice < 7 : dice < 3);
      if (insert) {
        Entry e{next_id++, RandomBox(rng, 200.0f, 8.0f)};
        tree.Insert(e.id, e.box);
        live.push_back(e);
      } else {
        const size_t victim = rng.UniformInt(live.size());
        ASSERT_TRUE(tree.Remove(live[victim].id, live[victim].box));
        live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
      }
    }

    ASSERT_EQ(tree.size(), live.size()) << "batch " << batch;
    ASSERT_TRUE(tree.CheckInvariants()) << "batch " << batch;
    for (int q = 0; q < 5; ++q) {
      const Box query = RandomBox(rng, 200.0f, 40.0f);
      ASSERT_EQ(TreeQuery(tree, query), ReferenceQuery(live, query))
          << "batch " << batch << " query " << q;
    }
  }

  // Drain completely; the tree must stay consistent to the last entry.
  while (!live.empty()) {
    ASSERT_TRUE(tree.Remove(live.back().id, live.back().box));
    live.pop_back();
    if (live.size() % 50 == 0) ASSERT_TRUE(tree.CheckInvariants());
  }
  EXPECT_TRUE(tree.empty());
}

TEST_P(DynamicRTreeFuzzTest, RandomUpdatesMatchReference) {
  // Update coverage (the RTUpdateDimensions surface): small in-place moves
  // that stay inside the leaf MBR, large moves that degrade to
  // remove+reinsert, not-found updates, and delete-reinsert churn — all
  // against the same brute-force oracle.
  const auto [variant, seed] = GetParam();
  Rng rng(seed + 1000);

  DynamicRTree::Options options;
  options.variant = variant;
  options.max_entries = 2 + static_cast<uint32_t>(rng.UniformInt(7));
  options.min_entries =
      1 + static_cast<uint32_t>(rng.UniformInt(options.max_entries / 2));
  DynamicRTree tree(options);

  std::vector<Entry> live;
  uint32_t next_id = 0;
  constexpr int kBatches = 40;
  constexpr int kOpsPerBatch = 25;

  for (int batch = 0; batch < kBatches; ++batch) {
    for (int op = 0; op < kOpsPerBatch; ++op) {
      const uint64_t dice = rng.UniformInt(10);
      if (live.empty() || dice < 3) {
        Entry e{next_id++, RandomBox(rng, 200.0f, 8.0f)};
        tree.Insert(e.id, e.box);
        live.push_back(e);
      } else if (dice < 5) {
        const size_t victim = rng.UniformInt(live.size());
        ASSERT_TRUE(tree.Remove(live[victim].id, live[victim].box));
        live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
      } else if (dice < 8) {
        // Small nudge: usually rewritable in place (leaf MBR still covers
        // the new box), exercising the fast path plus upward tightening.
        Entry& e = live[rng.UniformInt(live.size())];
        const float dx = (rng.NextFloat() - 0.5f) * 2.0f;
        const float dy = (rng.NextFloat() - 0.5f) * 2.0f;
        const float dz = (rng.NextFloat() - 0.5f) * 2.0f;
        const Box moved(e.box.lo + Vec3(dx, dy, dz),
                        e.box.hi + Vec3(dx, dy, dz));
        ASSERT_TRUE(tree.Update(e.id, e.box, moved));
        e.box = moved;
      } else {
        // Large move across the space: must degrade to remove + reinsert.
        Entry& e = live[rng.UniformInt(live.size())];
        const Box teleported = RandomBox(rng, 200.0f, 8.0f);
        ASSERT_TRUE(tree.Update(e.id, e.box, teleported));
        e.box = teleported;
      }
    }

    // Not-found updates must return false and leave the tree untouched.
    const Box ghost = RandomBox(rng, 200.0f, 8.0f);
    ASSERT_FALSE(tree.Update(next_id + 12345, ghost, ghost));
    if (!live.empty()) {
      // Right id, wrong box: also not found (the API matches exact pairs).
      const Entry& e = live[0];
      const Box wrong(e.box.lo + Vec3(500.0f, 0, 0),
                      e.box.hi + Vec3(500.0f, 0, 0));
      ASSERT_FALSE(tree.Update(e.id, wrong, ghost));
    }

    ASSERT_EQ(tree.size(), live.size()) << "batch " << batch;
    ASSERT_TRUE(tree.CheckInvariants()) << "batch " << batch;
    for (int q = 0; q < 5; ++q) {
      const Box query = RandomBox(rng, 200.0f, 40.0f);
      ASSERT_EQ(TreeQuery(tree, query), ReferenceQuery(live, query))
          << "batch " << batch << " query " << q;
    }
  }

  // Delete-reinsert churn: repeatedly remove a block of entries and insert
  // replacements under fresh ids, shaking the free list and condense paths.
  for (int round = 0; round < 10; ++round) {
    const size_t churn = std::min<size_t>(live.size(), 30);
    for (size_t i = 0; i < churn; ++i) {
      ASSERT_TRUE(tree.Remove(live.back().id, live.back().box));
      live.pop_back();
    }
    for (size_t i = 0; i < churn; ++i) {
      Entry e{next_id++, RandomBox(rng, 200.0f, 8.0f)};
      tree.Insert(e.id, e.box);
      live.push_back(e);
    }
    ASSERT_TRUE(tree.CheckInvariants()) << "churn round " << round;
    const Box query = RandomBox(rng, 200.0f, 60.0f);
    ASSERT_EQ(TreeQuery(tree, query), ReferenceQuery(live, query))
        << "churn round " << round;
  }
}

TEST_P(DynamicRTreeFuzzTest, BulkLoadedStartMatchesReference) {
  // The catalog's starting state: an STR-packed tree (full nodes, short
  // STR tails folded) that inserts, removes and updates then maintain.
  const auto [variant, seed] = GetParam();
  Rng rng(seed + 2000);

  DynamicRTree::Options options;
  options.variant = variant;
  options.max_entries = 2 + static_cast<uint32_t>(rng.UniformInt(15));
  options.min_entries =
      1 + static_cast<uint32_t>(rng.UniformInt(options.max_entries / 2));
  DynamicRTree tree(options);

  std::vector<Entry> live;
  std::vector<Box> start(50 + rng.UniformInt(500));
  for (uint32_t i = 0; i < start.size(); ++i) {
    start[i] = RandomBox(rng, 200.0f, 8.0f);
    live.push_back(Entry{i, start[i]});
  }
  tree.BulkLoad(start);
  ASSERT_TRUE(tree.CheckInvariants());
  uint32_t next_id = static_cast<uint32_t>(start.size());

  constexpr int kBatches = 40;
  constexpr int kOpsPerBatch = 25;
  for (int batch = 0; batch < kBatches; ++batch) {
    for (int op = 0; op < kOpsPerBatch; ++op) {
      const uint64_t dice = rng.UniformInt(10);
      if (live.empty() || dice < 2) {
        Entry e{next_id++, RandomBox(rng, 200.0f, 8.0f)};
        tree.Insert(e.id, e.box);
        live.push_back(e);
      } else if (dice < 5) {
        const size_t victim = rng.UniformInt(live.size());
        ASSERT_TRUE(tree.Remove(live[victim].id, live[victim].box));
        live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
      } else {
        Entry& e = live[rng.UniformInt(live.size())];
        const Box moved = dice < 8 ? Box(e.box.lo + Vec3(0.5f, -0.5f, 0.25f),
                                         e.box.hi + Vec3(0.5f, -0.5f, 0.25f))
                                   : RandomBox(rng, 200.0f, 8.0f);
        ASSERT_TRUE(tree.Update(e.id, e.box, moved));
        e.box = moved;
      }
    }
    ASSERT_EQ(tree.size(), live.size()) << "batch " << batch;
    ASSERT_TRUE(tree.CheckInvariants()) << "batch " << batch;
    for (int q = 0; q < 5; ++q) {
      const Box query = RandomBox(rng, 200.0f, 40.0f);
      ASSERT_EQ(TreeQuery(tree, query), ReferenceQuery(live, query))
          << "batch " << batch << " query " << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DynamicRTreeFuzzTest,
    ::testing::Combine(::testing::Values(RTreeVariant::kGuttman,
                                         RTreeVariant::kRStar),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == RTreeVariant::kGuttman
                             ? "Guttman"
                             : "RStar") +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace touch
