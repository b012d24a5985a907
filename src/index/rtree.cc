#include "index/rtree.h"

#include <algorithm>

#include "index/dynamic_rtree.h"
#include "index/hilbert.h"
#include "index/tgs.h"
#include "util/memory.h"

namespace touch {
namespace {

StrPartitioning Pack(std::span<const Box> boxes, size_t bucket_size,
                     BulkLoadMethod method, WorkerPool* pool,
                     HelperSet* helpers) {
  switch (method) {
    case BulkLoadMethod::kHilbert:
      return HilbertPartition(boxes, bucket_size);
    case BulkLoadMethod::kTgs:
      return TgsPartition(boxes, bucket_size);
    case BulkLoadMethod::kStr:
      break;
  }
  return StrPartition(boxes, bucket_size, pool, helpers);
}

}  // namespace

RTree::RTree(std::span<const Box> boxes, size_t leaf_capacity, size_t fanout,
             BulkLoadMethod method, WorkerPool* pool, HelperSet* helpers) {
  leaf_capacity = std::max<size_t>(1, leaf_capacity);
  fanout = std::max<size_t>(2, fanout);
  if (boxes.empty()) return;

  // Level 0: pack objects into leaves; a leaf's begin indexes the packing
  // order, which becomes the draft's items.
  StrPartitioning leaves = Pack(boxes, leaf_capacity, method, pool, helpers);
  Draft draft;
  std::vector<uint32_t> current_level;  // draft ids of the level being built
  for (size_t b = 0; b < leaves.NumBuckets(); ++b) {
    const std::span<const uint32_t> bucket = leaves.Bucket(b);
    current_level.push_back(static_cast<uint32_t>(draft.nodes.size()));
    draft.nodes.push_back(
        {leaves.bucket_begin[b], static_cast<uint32_t>(bucket.size()), 0});
    draft.mbrs.push_back(BucketMbr(boxes, bucket));
  }
  draft.items = std::move(leaves.order);

  // Upper levels: pack the node MBRs of the previous level into parents of
  // `fanout` children until a single root remains.
  for (uint8_t level = 1; current_level.size() > 1; ++level) {
    std::vector<Box> level_mbrs;
    level_mbrs.reserve(current_level.size());
    for (uint32_t id : current_level) level_mbrs.push_back(draft.mbrs[id]);
    const StrPartitioning packed =
        Pack(level_mbrs, fanout, method, pool, helpers);
    std::vector<uint32_t> next_level;
    for (size_t b = 0; b < packed.NumBuckets(); ++b) {
      const std::span<const uint32_t> bucket = packed.Bucket(b);
      Box mbr = Box::Empty();
      for (uint32_t local : bucket) mbr.ExpandToContain(level_mbrs[local]);
      next_level.push_back(static_cast<uint32_t>(draft.nodes.size()));
      draft.nodes.push_back({static_cast<uint32_t>(draft.children.size()),
                             static_cast<uint32_t>(bucket.size()), level});
      draft.mbrs.push_back(mbr);
      for (uint32_t local : bucket) {
        draft.children.push_back(current_level[local]);
      }
    }
    current_level = std::move(next_level);
  }
  draft.root = current_level.front();
  Layout(draft);
}

void RTree::Layout(const Draft& draft) {
  // Breadth-first from the root, children enqueued last to first. Every
  // leaf of an R-tree is at level 0, so this visits the levels top-down,
  // each in reverse parent order: the k-th node visited gets id n - 1 - k.
  const size_t n = draft.nodes.size();
  nodes_.resize(n);
  node_mbrs_.Resize(n);
  std::vector<uint32_t> order = {draft.root};
  order.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    const Node& node = draft.nodes[order[k]];
    nodes_[n - 1 - k] = node;
    node_mbrs_.Set(n - 1 - k, draft.mbrs[order[k]]);
    if (node.IsLeaf()) continue;
    // The first child is enqueued last, so it gets the lowest id.
    nodes_[n - 1 - k].begin =
        static_cast<uint32_t>(n - order.size() - node.count);
    for (uint32_t i = node.begin + node.count; i-- > node.begin;) {
      order.push_back(draft.children[i]);
    }
  }
  // The leaves are ids 0, 1, ...: their items append in DFS order.
  item_ids_.reserve(draft.items.size());
  for (uint32_t id = 0; id < n && nodes_[id].IsLeaf(); ++id) {
    const Node& leaf = draft.nodes[order[n - 1 - id]];
    nodes_[id].begin = static_cast<uint32_t>(item_ids_.size());
    item_ids_.insert(item_ids_.end(), draft.items.begin() + leaf.begin,
                     draft.items.begin() + leaf.begin + leaf.count);
  }
}

RTree::ItemSpan RTree::ItemRange(uint32_t node_id) const {
  uint32_t first = node_id;
  while (!nodes_[first].IsLeaf()) first = nodes_[first].begin;
  uint32_t last = node_id;
  while (!nodes_[last].IsLeaf()) {
    last = nodes_[last].begin + nodes_[last].count - 1;
  }
  return {nodes_[first].begin, nodes_[last].begin + nodes_[last].count};
}

RTree RTree::FromDynamic(const DynamicRTree& tree) {
  RTree flat;
  if (tree.empty()) return flat;

  // Preorder DFS through the dynamic tree's visitor; parents pre-reserve a
  // contiguous child range and fill it slot by slot as children are entered.
  Draft draft;
  std::vector<uint32_t> node_stack;  // draft ids of the current DFS path
  std::vector<uint32_t> next_slot;   // next child slot to fill, per level
  tree.VisitNodes(
      [&](const Box& mbr, uint8_t level, bool is_leaf, size_t child_count) {
        const uint32_t id = static_cast<uint32_t>(draft.nodes.size());
        // A leaf's count grows as the item callback appends its items.
        const size_t begin =
            is_leaf ? draft.items.size() : draft.children.size();
        const size_t count = is_leaf ? 0 : child_count;
        draft.nodes.push_back({static_cast<uint32_t>(begin),
                               static_cast<uint32_t>(count), level});
        draft.mbrs.push_back(mbr);
        draft.children.resize(draft.children.size() + count);
        if (!node_stack.empty()) {
          draft.children[draft.nodes[node_stack.back()].begin +
                         next_slot.back()++] = id;
        }
        node_stack.push_back(id);
        next_slot.push_back(0);
      },
      [&](uint32_t item_id, const Box&) {
        draft.items.push_back(item_id);
        ++draft.nodes[node_stack.back()].count;
      },
      [&] {
        node_stack.pop_back();
        next_slot.pop_back();
      });
  draft.root = 0;  // preorder: the root is entered first
  flat.Layout(draft);
  return flat;
}

size_t RTree::MemoryUsageBytes() const {
  return VectorBytes(nodes_) + node_mbrs_.MemoryUsageBytes() +
         VectorBytes(item_ids_);
}

}  // namespace touch
