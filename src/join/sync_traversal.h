#ifndef TOUCH_JOIN_SYNC_TRAVERSAL_H_
#define TOUCH_JOIN_SYNC_TRAVERSAL_H_

#include <cstdint>
#include <span>

#include "geom/box.h"
#include "index/rtree.h"
#include "join/local_join.h"
#include "util/stats.h"

namespace touch {

/// Synchronous traversal of two bounding-box hierarchies (Brinkhoff et al.,
/// SIGMOD'93): starting from a node pair, descend only into child pairs with
/// intersecting MBRs; intersecting leaf pairs are joined with the chosen
/// local join. The deeper side descends first so both sides reach their
/// leaves together. Callers test the roots' MBR intersection themselves.
template <typename EmitPair>
void SyncTraverse(std::span<const Box> a, std::span<const Box> b,
                  const RTree& tree_a, const RTree& tree_b, uint32_t node_a,
                  uint32_t node_b, LocalJoinStrategy local_join,
                  JoinStats* stats, EmitPair&& emit) {
  const RTree::Node& na = tree_a.nodes()[node_a];
  const RTree::Node& nb = tree_b.nodes()[node_b];

  if (na.IsLeaf() && nb.IsLeaf()) {
    const auto ids_a = tree_a.item_ids().subspan(na.begin, na.count);
    const auto ids_b = tree_b.item_ids().subspan(nb.begin, nb.count);
    if (local_join == LocalJoinStrategy::kNestedLoop) {
      LocalNestedLoop(a, ids_a, b, ids_b, stats, emit);
    } else {
      LocalPlaneSweep(a, ids_a, b, ids_b, stats, emit);
    }
    return;
  }

  if (!na.IsLeaf() && (nb.IsLeaf() || na.level >= nb.level)) {
    for (uint32_t child = na.begin; child < na.begin + na.count; ++child) {
      ++stats->node_comparisons;
      if (Intersects(tree_a.NodeMbr(child), tree_b.NodeMbr(node_b))) {
        SyncTraverse(a, b, tree_a, tree_b, child, node_b, local_join, stats,
                     emit);
      }
    }
  } else {
    for (uint32_t child = nb.begin; child < nb.begin + nb.count; ++child) {
      ++stats->node_comparisons;
      if (Intersects(tree_a.NodeMbr(node_a), tree_b.NodeMbr(child))) {
        SyncTraverse(a, b, tree_a, tree_b, node_a, child, local_join, stats,
                     emit);
      }
    }
  }
}

}  // namespace touch

#endif  // TOUCH_JOIN_SYNC_TRAVERSAL_H_
