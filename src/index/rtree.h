#ifndef TOUCH_INDEX_RTREE_H_
#define TOUCH_INDEX_RTREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/overlap_kernel.h"
#include "geom/box.h"
#include "index/str.h"
#include "util/stats.h"

namespace touch {

/// How the read-only R-tree packs objects (and node MBRs on upper levels)
/// into nodes. STR is the paper's choice; Hilbert-sort packing (Kamel &
/// Faloutsos, VLDB'94) is the other bulk loader the paper names as
/// comparable on real-world data (section 2.2.1).
enum class BulkLoadMethod {
  kStr,
  kHilbert,
  kTgs,
};

/// Bulk-loaded, read-only R-tree over a dataset of boxes: the library's one
/// static tree.
///
/// It is the index behind the paper's two "one/both datasets indexed"
/// baselines (the indexed nested loop join queries one such tree per probe
/// object, and the synchronous-traversal join of Brinkhoff et al., SIGMOD'93,
/// walks two of them in lockstep) and it is TOUCH's data-oriented
/// partitioning tree (paper sections 4.3 and 5, Figure 5). Bulk loading uses
/// STR at every level, which the paper singles out as the best-performing
/// R-tree construction for non-extreme data.
///
/// Layout: nodes are numbered level by level, leaves first and the root
/// last, each level in its parents' order. An inner node's children are the
/// ids [begin, begin + count), and each node's MBR is stored once, as row
/// `id` of one BoxSlab (node_mbrs()), so a node's child MBRs are exactly the
/// slab range the batched overlap kernels scan. Leaf ids ascend in item
/// order, so item_ids() is in DFS leaf order and the descendant items of
/// every node form one contiguous range (ItemRange). Any tree this class
/// holds, bulk-loaded or flattened from an insertion-built DynamicRTree, can
/// therefore serve as the TOUCH tree with no conversion step — the paper's
/// section 4.3: an existing data-oriented hierarchical index "can easily be
/// converted to the tree needed for TOUCH".
class RTree {
 public:
  struct Node {
    /// For inner nodes: the child node ids [begin, begin + count); for
    /// leaves: the range in item_ids().
    uint32_t begin = 0;
    uint32_t count = 0;
    /// 0 for leaves, parent level = child level + 1.
    uint8_t level = 0;

    bool IsLeaf() const { return level == 0; }
  };

  /// A node's descendant items: [begin, end) in item_ids().
  struct ItemSpan {
    uint32_t begin = 0;
    uint32_t end = 0;

    uint32_t size() const { return end - begin; }
  };

  /// Builds the tree. `leaf_capacity` (>= 1) objects per leaf, `fanout`
  /// children per inner node, clamped to >= 2 so every upper level shrinks
  /// (a fanout of 2 with 2KB nodes is the paper's best configuration for the
  /// R-tree baselines, and TOUCH's default). With a `pool`, the STR slab
  /// sorts borrow its idle workers (recorded in `helpers`); the tree is
  /// identical either way. Hilbert and TGS packing ignore the pool.
  RTree(std::span<const Box> boxes, size_t leaf_capacity, size_t fanout,
        BulkLoadMethod method = BulkLoadMethod::kStr,
        WorkerPool* pool = nullptr, HelperSet* helpers = nullptr);

  /// Flattens an insertion-built DynamicRTree into the read-only arena
  /// layout, so the synchronous-traversal join can run over trees built the
  /// way the paper's 1984/1990-era baselines build them (section 2.2.1).
  /// The dynamic tree's entry ids must be indices into the dataset span the
  /// flat tree will be queried/joined with.
  static RTree FromDynamic(const class DynamicRTree& tree);

  /// Number of indexed objects.
  size_t size() const { return item_ids_.size(); }
  bool empty() const { return item_ids_.empty(); }

  /// Index of the root node in nodes() (the last one); only valid when
  /// !empty().
  uint32_t root() const { return static_cast<uint32_t>(nodes_.size() - 1); }
  std::span<const Node> nodes() const { return nodes_; }
  /// Every node's MBR, row `id` for node `id`.
  const BoxSlab& node_mbrs() const { return node_mbrs_; }
  Box NodeMbr(uint32_t node_id) const { return node_mbrs_.BoxAt(node_id); }
  /// Object ids in DFS leaf order (see the class invariant).
  std::span<const uint32_t> item_ids() const { return item_ids_; }

  /// The descendant items of `node_id`, found by walking to its leftmost and
  /// rightmost leaves: O(height).
  ItemSpan ItemRange(uint32_t node_id) const;

  /// Height: number of levels (1 for a single-leaf tree, 0 when empty).
  int height() const { return empty() ? 0 : nodes_.back().level + 1; }

  /// Finds all indexed objects whose box intersects `query`, invoking
  /// `emit(object_id)` for each. Object-level intersection tests are counted
  /// in stats->comparisons, node-level tests in stats->node_comparisons.
  /// `boxes` must be the span the tree was built from.
  template <typename Emit>
  void Query(std::span<const Box> boxes, const Box& query, Emit&& emit,
             JoinStats* stats) const {
    if (empty()) return;
    QueryNode(boxes, root(), query, emit, stats);
  }

  /// Exact bytes held by the index structures.
  size_t MemoryUsageBytes() const;

 private:
  RTree() = default;  // used by FromDynamic

  template <typename Emit>
  void QueryNode(std::span<const Box> boxes, uint32_t node_id,
                 const Box& query, Emit&& emit, JoinStats* stats) const {
    const Node& node = nodes_[node_id];
    if (node.IsLeaf()) {
      for (uint32_t i = node.begin; i < node.begin + node.count; ++i) {
        const uint32_t object_id = item_ids_[i];
        ++stats->comparisons;
        if (Intersects(boxes[object_id], query)) emit(object_id);
      }
      return;
    }
    for (uint32_t child = node.begin; child < node.begin + node.count;
         ++child) {
      ++stats->node_comparisons;
      if (Intersects(NodeMbr(child), query)) {
        QueryNode(boxes, child, query, emit, stats);
      }
    }
  }

  /// A tree as a loader produced it, in any node numbering: an inner node's
  /// [begin, begin + count) indexes children, a leaf's indexes items.
  struct Draft {
    std::vector<Node> nodes;
    std::vector<Box> mbrs;  // one per draft node
    std::vector<uint32_t> children;
    std::vector<uint32_t> items;
    uint32_t root = 0;
  };

  /// Numbers a draft's nodes as the class comment says, keeping its child
  /// and item order, so the shape and every traversal order are the draft's.
  void Layout(const Draft& draft);

  std::vector<Node> nodes_;
  BoxSlab node_mbrs_;
  std::vector<uint32_t> item_ids_;
};

}  // namespace touch

#endif  // TOUCH_INDEX_RTREE_H_
