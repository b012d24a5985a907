#include "join/rtree_join.h"

#include "join/sync_traversal.h"
#include "util/timer.h"

namespace touch {

void RTreeSyncJoin::JoinNodes(std::span<const Box> a, std::span<const Box> b,
                              const RTree& tree_a, const RTree& tree_b,
                              uint32_t node_a, uint32_t node_b,
                              JoinStats* stats, ResultCollector& out) {
  SyncTraverse(a, b, tree_a, tree_b, node_a, node_b, options_.local_join,
               stats, [&](uint32_t a_id, uint32_t b_id) {
                 ++stats->results;
                 out.Emit(a_id, b_id);
               });
}

JoinStats RTreeSyncJoin::Join(std::span<const Box> a, std::span<const Box> b,
                              ResultCollector& out) {
  JoinStats stats;
  Timer total;
  if (a.empty() || b.empty()) {
    stats.total_seconds = total.Seconds();
    return stats;
  }

  Timer phase;
  const RTree tree_a(a, options_.leaf_capacity, options_.fanout,
                     options_.bulkload);
  const RTree tree_b(b, options_.leaf_capacity, options_.fanout,
                     options_.bulkload);
  stats.build_seconds = phase.Seconds();
  stats.memory_bytes = tree_a.MemoryUsageBytes() + tree_b.MemoryUsageBytes();

  phase.Reset();
  ++stats.node_comparisons;
  if (Intersects(tree_a.NodeMbr(tree_a.root()),
                 tree_b.NodeMbr(tree_b.root()))) {
    JoinNodes(a, b, tree_a, tree_b, tree_a.root(), tree_b.root(), &stats, out);
  }
  stats.join_seconds = phase.Seconds();
  stats.total_seconds = total.Seconds();
  return stats;
}

}  // namespace touch
