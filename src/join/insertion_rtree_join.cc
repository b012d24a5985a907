#include "join/insertion_rtree_join.h"

#include "index/rtree.h"
#include "join/sync_traversal.h"
#include "util/timer.h"

namespace touch {
namespace {

RTree BuildByInsertion(std::span<const Box> boxes,
                       const InsertionRTreeJoinOptions& options) {
  DynamicRTree::Options tree_options;
  tree_options.variant = options.variant;
  tree_options.max_entries = options.max_entries;
  tree_options.min_entries = options.min_entries;
  DynamicRTree tree(tree_options);
  for (uint32_t i = 0; i < boxes.size(); ++i) tree.Insert(i, boxes[i]);
  // Flatten for the traversal: the arena layout joins faster and the
  // construction cost being measured is the insertions above.
  return RTree::FromDynamic(tree);
}

}  // namespace

JoinStats InsertionRTreeJoin::Join(std::span<const Box> a,
                                   std::span<const Box> b,
                                   ResultCollector& out) {
  JoinStats stats;
  Timer total;
  if (a.empty() || b.empty()) {
    stats.total_seconds = total.Seconds();
    return stats;
  }

  Timer phase;
  const RTree tree_a = BuildByInsertion(a, options_);
  const RTree tree_b = BuildByInsertion(b, options_);
  stats.build_seconds = phase.Seconds();
  stats.memory_bytes = tree_a.MemoryUsageBytes() + tree_b.MemoryUsageBytes();

  phase.Reset();
  ++stats.node_comparisons;
  if (Intersects(tree_a.NodeMbr(tree_a.root()),
                 tree_b.NodeMbr(tree_b.root()))) {
    SyncTraverse(a, b, tree_a, tree_b, tree_a.root(), tree_b.root(),
                 options_.local_join, &stats,
                 [&](uint32_t a_id, uint32_t b_id) {
                   ++stats.results;
                   out.Emit(a_id, b_id);
                 });
  }
  stats.join_seconds = phase.Seconds();
  stats.total_seconds = total.Seconds();
  return stats;
}

}  // namespace touch
