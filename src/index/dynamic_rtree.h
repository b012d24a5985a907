#ifndef TOUCH_INDEX_DYNAMIC_RTREE_H_
#define TOUCH_INDEX_DYNAMIC_RTREE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/overlap_kernel.h"
#include "geom/box.h"
#include "util/stats.h"

namespace touch {

/// Insertion policy of the dynamic R-tree.
enum class RTreeVariant {
  /// Guttman's original R-tree (SIGMOD'84): choose-leaf by least volume
  /// enlargement, quadratic node split.
  kGuttman,
  /// R*-tree (Beckmann et al., SIGMOD'90): overlap-minimizing choose-subtree
  /// at the leaf level, forced reinsertion on first overflow per level, and
  /// margin-driven split-axis selection — the paper's example of fighting
  /// node overlap with "an improved node split algorithm (reinsertion of
  /// spatial objects if a node overflows)" (section 2.2.1).
  kRStar,
};

/// Dynamic R-tree over 3D boxes: insertion, deletion and range queries.
///
/// The static `RTree` is what the paper's baselines use; this dynamic tree
/// exists because the paper's related work (R-tree, R*-tree) is defined by
/// insertion-time behaviour, and because downstream users of the library may
/// not know their dataset a priori. A tree over a known starting set can be
/// STR-packed once (BulkLoad) and then maintained by the same insert and
/// delete policy. Not thread-safe.
class DynamicRTree {
 public:
  struct Options {
    /// Maximum entries per node (M). Nodes split when they would exceed it.
    uint32_t max_entries = 16;
    /// Minimum entries per node (m <= M/2). Underfull nodes are condensed.
    uint32_t min_entries = 6;
    RTreeVariant variant = RTreeVariant::kGuttman;
    /// R*: fraction of entries evicted on forced reinsertion (30% in the
    /// original paper).
    float reinsert_fraction = 0.3f;
  };

  DynamicRTree() : DynamicRTree(Options()) {}
  explicit DynamicRTree(const Options& options);

  /// Replaces the tree's contents with `boxes`, box i under id i, packed
  /// bottom-up by Sort-Tile-Recursive (the data-oriented layout of paper
  /// section 5.1): each level is STR-partitioned into nodes of
  /// `max_entries`, and a bucket shorter than `min_entries` is merged into
  /// its neighbour, or split evenly with it when the two would overflow, so
  /// every non-root node satisfies the fill invariants. Insert, Remove and
  /// Update then maintain the tree under its variant's policy.
  void BulkLoad(std::span<const Box> boxes);

  /// Inserts a box under key `id`. Ids need not be unique or dense; they are
  /// returned verbatim by queries.
  void Insert(uint32_t id, const Box& box);

  /// Removes one entry that has this exact id and box. Returns false when no
  /// such entry exists. Underfull nodes along the path are dissolved and
  /// their entries reinserted (Guttman's CondenseTree).
  bool Remove(uint32_t id, const Box& box);

  /// Moves/resizes one entry that has this exact id and old box — the
  /// RTUpdateDimensions surface of the classic R-tree APIs. When `new_box`
  /// still fits inside the leaf's MBR the entry is rewritten in place (with
  /// an upward MBR tighten); otherwise it degrades to Remove + Insert so
  /// tree quality does not erode under large moves. Returns false (tree
  /// unchanged) when no such entry exists.
  bool Update(uint32_t id, const Box& old_box, const Box& new_box);

  /// Invokes `emit(id, box)` for every stored entry whose box intersects
  /// `query`, in depth-first entry order. Object-level tests are counted in
  /// stats->comparisons, node-level tests in stats->node_comparisons (stats
  /// may be null). Const queries may run on several threads at once.
  template <typename Emit>
  void Query(const Box& query, Emit&& emit, JoinStats* stats = nullptr) const {
    if (size_ == 0) return;
    // Borrow this thread's hit buffer; a Query nested in `emit` finds it
    // empty and grows its own.
    std::vector<uint32_t>& scratch = ThreadQueryHits();
    std::vector<uint32_t> hits = std::move(scratch);
    hits.clear();
    QueryNode(root_, query, emit, stats, hits);
    scratch = std::move(hits);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Number of levels (0 when empty, 1 for a root-leaf).
  int height() const { return size_ == 0 ? 0 : nodes_[root_].level + 1; }

  /// MBR of the whole tree (empty box when the tree is empty).
  Box bounds() const;

  /// Exact bytes held by the structure (node headers + entry arena).
  size_t MemoryUsageBytes() const;

  /// Preorder walk for conversion/inspection: `enter(mbr, level, is_leaf,
  /// child_count)` on entering a node, `item(id, box)` per leaf entry,
  /// `exit()` when the node's subtree is done. No-op on an empty tree.
  template <typename EnterFn, typename ItemFn, typename ExitFn>
  void VisitNodes(EnterFn&& enter, ItemFn&& item, ExitFn&& exit) const {
    if (size_ == 0) return;
    const auto walk = [&](auto&& self, uint32_t node_id) -> void {
      const Node& node = nodes_[node_id];
      enter(node.mbr, node.level, node.IsLeaf(), node.count);
      for (size_t slot = Slot(node_id); slot < Slot(node_id) + node.count;
           ++slot) {
        if (node.IsLeaf()) {
          item(ids_[slot], slab_.BoxAt(slot));
        } else {
          self(self, ids_[slot]);
        }
      }
      exit();
    };
    walk(walk, root_);
  }

  /// Validates structural invariants (MBR containment, fill factors, uniform
  /// leaf depth); returns false and stops at the first violation. Test hook.
  bool CheckInvariants() const;

  /// Sum of volumes of sibling-MBR pairwise intersections across all inner
  /// nodes: the "overlap" the R*-tree heuristics minimize. Diagnostic used
  /// by tests and the bulkload ablation bench.
  double TotalSiblingOverlapVolume() const;

 private:
  /// One child reference, as the splits and reinsertions handle it.
  struct Entry {
    Box mbr;
    /// Child node id for inner nodes, user id for leaves.
    uint32_t id = 0;
  };
  /// A node's header. Its entries live in the tree-wide arena: slots
  /// [Slot(id), Slot(id) + count) of `slab_` (child MBRs, SoA) and `ids_`.
  struct Node {
    Box mbr = Box::Empty();
    int32_t parent = -1;
    uint32_t count = 0;
    uint8_t level = 0;  // 0 = leaf

    bool IsLeaf() const { return level == 0; }
  };
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  size_t Slot(uint32_t node_id) const { return node_id * stride_; }
  Entry EntryAt(size_t slot) const {
    return Entry{slab_.BoxAt(slot), ids_[slot]};
  }
  void Append(uint32_t node_id, const Entry& entry);
  /// Removes the entry at `slot`, keeping the order of the rest.
  void EraseSlot(uint32_t node_id, size_t slot);
  void LoadEntries(uint32_t node_id, std::vector<Entry>* entries) const;
  void StoreEntries(uint32_t node_id, std::span<const Entry> entries);
  /// Slot of `child` among `parent`'s entries (kNotFound if absent).
  size_t ChildSlot(uint32_t parent, uint32_t child) const;
  /// Slot of the leaf entry with exactly this id and box, or kNotFound.
  size_t FindEntry(uint32_t id, const Box& box);
  size_t FindIn(uint32_t node_id, uint32_t id, const Box& box,
                const Box& inverted);
  static std::vector<uint32_t>& ThreadQueryHits();

  uint32_t AllocNode(uint8_t level);
  void RecomputeMbr(uint32_t node_id);
  /// Recomputes the MBR of `node_id` and of its ancestors, refreshing the
  /// copy each parent holds for its child on the way up; stops where a
  /// node's MBR and its parent's copy are both unchanged, since every
  /// ancestor above is then unchanged too.
  void SyncUpward(uint32_t node_id);
  uint32_t ChooseSubtree(const Box& box, uint8_t target_level) const;
  void InsertEntry(const Entry& entry, uint8_t target_level, int depth);
  /// Handles `extra` arriving at a full node: R* forced reinsertion (once
  /// per level per top-level insertion) or a split, propagating upward.
  void HandleOverflow(uint32_t node_id, const Entry& extra, int depth);
  /// Splits a node into itself and a new sibling; `entries` are its
  /// entries plus the one that overflowed it.
  void SplitNode(uint32_t node_id, std::vector<Entry>& entries);
  /// Quadratic pick-seeds + pick-next (Guttman).
  void QuadraticSplit(std::vector<Entry>& entries, std::vector<Entry>* left,
                      std::vector<Entry>* right) const;
  /// Margin-minimizing axis choice + overlap-minimizing distribution (R*).
  void RStarSplit(std::vector<Entry>& entries, std::vector<Entry>* left,
                  std::vector<Entry>* right) const;
  void CondenseTree(uint32_t node_id);

  /// Tests the node's children with the SIMD overlap kernel; `hits` is a
  /// stack shared by the whole descent (each level truncates its own hits).
  template <typename Emit>
  void QueryNode(uint32_t node_id, const Box& query, Emit& emit,
                 JoinStats* stats, std::vector<uint32_t>& hits) const {
    const Node& node = nodes_[node_id];
    const size_t begin = Slot(node_id);
    const size_t first = hits.size();
    const size_t tested =
        CollectOverlaps(slab_, begin, begin + node.count, query, hits);
    const size_t last = hits.size();
    if (stats != nullptr) {
      (node.IsLeaf() ? stats->comparisons : stats->node_comparisons) +=
          tested;
    }
    for (size_t k = first; k < last; ++k) {
      const uint32_t slot = hits[k];
      if (node.IsLeaf()) {
        emit(ids_[slot], slab_.BoxAt(slot));
      } else {
        QueryNode(ids_[slot], query, emit, stats, hits);
      }
    }
    hits.resize(first);
  }

  Options options_;
  /// Arena slots per node: max_entries rounded up to BoxSlab::kPad (an
  /// entry that overflows a node only joins the split's entry list).
  size_t stride_ = 0;
  std::vector<Node> nodes_;
  /// Child MBRs (inner nodes) or object boxes (leaves), `stride_` slots per
  /// node; `ids_` holds the matching child node ids or object ids.
  BoxSlab slab_;
  std::vector<uint32_t> ids_;
  std::vector<uint32_t> free_nodes_;
  uint32_t root_ = 0;
  size_t size_ = 0;
  /// Levels that already used forced reinsertion during the current
  /// top-level Insert (R* applies it once per level per insertion).
  std::vector<bool> reinserted_levels_;
  /// The leaf search's hit stack, reused across operations.
  std::vector<uint32_t> find_hits_;
};

}  // namespace touch

#endif  // TOUCH_INDEX_DYNAMIC_RTREE_H_
