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

  // Level 0: pack objects into leaves. A leaf's begin indexes leaves.order
  // until the DFS pass below moves its items into item_ids_.
  const StrPartitioning leaves =
      Pack(boxes, leaf_capacity, method, pool, helpers);
  std::vector<uint32_t> current_level;  // node ids of the level being built
  current_level.reserve(leaves.NumBuckets());
  for (size_t b = 0; b < leaves.NumBuckets(); ++b) {
    Node node;
    node.mbr = BucketMbr(boxes, leaves.Bucket(b));
    node.begin = leaves.bucket_begin[b];
    node.count = leaves.bucket_begin[b + 1] - leaves.bucket_begin[b];
    node.level = 0;
    current_level.push_back(static_cast<uint32_t>(nodes_.size()));
    nodes_.push_back(node);
  }
  height_ = 1;

  // Upper levels: pack the node MBRs of the previous level into parents of
  // `fanout` children until a single root remains.
  while (current_level.size() > 1) {
    std::vector<Box> level_mbrs;
    level_mbrs.reserve(current_level.size());
    for (uint32_t id : current_level) level_mbrs.push_back(nodes_[id].mbr);

    const StrPartitioning packed =
        Pack(level_mbrs, fanout, method, pool, helpers);
    std::vector<uint32_t> next_level;
    next_level.reserve(packed.NumBuckets());
    for (size_t b = 0; b < packed.NumBuckets(); ++b) {
      Node node;
      node.mbr = Box::Empty();
      node.begin = static_cast<uint32_t>(child_ids_.size());
      node.count = static_cast<uint32_t>(packed.Bucket(b).size());
      node.level = static_cast<uint8_t>(height_);
      for (uint32_t local : packed.Bucket(b)) {
        const uint32_t child = current_level[local];
        child_ids_.push_back(child);
        node.mbr.ExpandToContain(nodes_[child].mbr);
      }
      next_level.push_back(static_cast<uint32_t>(nodes_.size()));
      nodes_.push_back(node);
    }
    current_level = std::move(next_level);
    ++height_;
  }
  root_ = current_level.front();

  // Emit the leaves' items in DFS order (children in child_ids order, items
  // within a leaf in packing order), so every node's descendant items are
  // one contiguous range of item_ids_.
  item_ids_.reserve(leaves.order.size());
  std::vector<uint32_t> stack = {root_};
  while (!stack.empty()) {
    Node& node = nodes_[stack.back()];
    stack.pop_back();
    if (node.IsLeaf()) {
      const auto first = leaves.order.begin() + node.begin;
      node.begin = static_cast<uint32_t>(item_ids_.size());
      item_ids_.insert(item_ids_.end(), first, first + node.count);
      continue;
    }
    for (uint32_t i = node.begin + node.count; i-- > node.begin;) {
      stack.push_back(child_ids_[i]);
    }
  }
}

RTree::ItemSpan RTree::ItemRange(uint32_t node_id) const {
  uint32_t first = node_id;
  while (!nodes_[first].IsLeaf()) first = child_ids_[nodes_[first].begin];
  uint32_t last = node_id;
  while (!nodes_[last].IsLeaf()) {
    last = child_ids_[nodes_[last].begin + nodes_[last].count - 1];
  }
  return {nodes_[first].begin, nodes_[last].begin + nodes_[last].count};
}

RTree RTree::FromDynamic(const DynamicRTree& tree) {
  RTree flat;
  if (tree.empty()) return flat;
  flat.height_ = tree.height();

  // Preorder DFS through the dynamic tree's visitor; parents pre-reserve a
  // contiguous child range and fill it slot by slot as children are entered.
  // Items are appended in visit order, which is the class's DFS invariant.
  std::vector<uint32_t> node_stack;  // flat ids of the current DFS path
  std::vector<uint32_t> next_slot;   // next child slot to fill, per level
  tree.VisitNodes(
      [&](const Box& mbr, uint8_t level, bool is_leaf, size_t child_count) {
        const uint32_t id = static_cast<uint32_t>(flat.nodes_.size());
        Node node;
        node.mbr = mbr;
        node.level = level;
        if (is_leaf) {
          node.begin = static_cast<uint32_t>(flat.item_ids_.size());
          node.count = 0;  // items appended by the item callback
        } else {
          node.begin = static_cast<uint32_t>(flat.child_ids_.size());
          node.count = static_cast<uint32_t>(child_count);
          flat.child_ids_.resize(flat.child_ids_.size() + child_count);
        }
        flat.nodes_.push_back(node);
        if (!node_stack.empty()) {
          const Node& parent = flat.nodes_[node_stack.back()];
          flat.child_ids_[parent.begin + next_slot.back()] = id;
          ++next_slot.back();
        }
        node_stack.push_back(id);
        next_slot.push_back(0);
      },
      [&](uint32_t item_id, const Box&) {
        flat.item_ids_.push_back(item_id);
        ++flat.nodes_[node_stack.back()].count;
      },
      [&] {
        node_stack.pop_back();
        next_slot.pop_back();
      });
  flat.root_ = 0;  // preorder: the root is emitted first
  return flat;
}

size_t RTree::MemoryUsageBytes() const {
  return VectorBytes(nodes_) + VectorBytes(child_ids_) + VectorBytes(item_ids_);
}

}  // namespace touch
