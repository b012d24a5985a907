#include "index/dynamic_rtree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "index/str.h"
#include "util/memory.h"

namespace touch {
namespace {

/// Volume increase of `mbr` if it were to also enclose `box`.
double Enlargement(const Box& mbr, const Box& box) {
  return Union(mbr, box).Volume() - mbr.Volume();
}

/// Overlap of `box` with every box in `others` except index `skip`.
double OverlapWith(const Box& box, std::span<const Box> others, size_t skip) {
  double overlap = 0;
  for (size_t i = 0; i < others.size(); ++i) {
    if (i == skip) continue;
    overlap += Intersection(box, others[i]).Volume();
  }
  return overlap;
}

/// Node boundaries for one packed level: the STR bucket boundaries, with
/// every bucket shorter than `min_fill` folded into the node before it, or,
/// when the two would exceed `max_fill`, the pair split evenly (both halves
/// then hold min_fill..max_fill, as max_fill >= 2 * min_fill). The first
/// bucket needs no fold: STR's first tile fills it whenever there are
/// several buckets.
std::vector<uint32_t> NodeBounds(std::span<const uint32_t> bucket_begin,
                                 uint32_t min_fill, uint32_t max_fill) {
  std::vector<uint32_t> bounds = {0};
  for (size_t i = 1; i < bucket_begin.size(); ++i) {
    const uint32_t end = bucket_begin[i];
    if (bounds.size() == 1 || end - bounds.back() >= min_fill) {
      bounds.push_back(end);
      continue;
    }
    const uint32_t prev = bounds[bounds.size() - 2];
    if (end - prev <= max_fill) {
      bounds.back() = end;
    } else {
      bounds.back() = prev + (end - prev + 1) / 2;
      bounds.push_back(end);
    }
  }
  return bounds;
}

}  // namespace

DynamicRTree::DynamicRTree(const Options& options) : options_(options) {
  options_.max_entries = std::max<uint32_t>(2, options_.max_entries);
  options_.min_entries =
      std::clamp<uint32_t>(options_.min_entries, 1, options_.max_entries / 2);
  root_ = AllocNode(0);
}

void DynamicRTree::BulkLoad(std::span<const Box> boxes) {
  nodes_.clear();
  free_nodes_.clear();
  size_ = boxes.size();
  if (boxes.empty()) {
    root_ = AllocNode(0);
    return;
  }
  // Each pass packs the entries of one level (the objects, then the nodes
  // the previous pass built) into the nodes of the level above them.
  std::span<const Box> items = boxes;
  std::vector<Box> item_mbrs;
  std::vector<uint32_t> item_nodes;
  for (uint8_t level = 0;; ++level) {
    const StrPartitioning str = StrPartition(items, options_.max_entries);
    const std::vector<uint32_t> bounds = NodeBounds(
        str.bucket_begin, options_.min_entries, options_.max_entries);
    std::vector<Box> mbrs;
    std::vector<uint32_t> node_ids;
    for (size_t k = 0; k + 1 < bounds.size(); ++k) {
      const uint32_t node_id = AllocNode(level);
      std::vector<Entry>& entries = nodes_[node_id].entries;
      entries.reserve(bounds[k + 1] - bounds[k]);
      for (uint32_t j = bounds[k]; j < bounds[k + 1]; ++j) {
        const uint32_t i = str.order[j];
        if (level == 0) {
          entries.push_back(Entry{items[i], i});
        } else {
          entries.push_back(Entry{items[i], item_nodes[i]});
          nodes_[item_nodes[i]].parent = static_cast<int32_t>(node_id);
        }
      }
      RecomputeMbr(node_id);
      mbrs.push_back(nodes_[node_id].mbr);
      node_ids.push_back(node_id);
    }
    if (node_ids.size() == 1) {
      root_ = node_ids.front();
      return;
    }
    item_mbrs = std::move(mbrs);
    item_nodes = std::move(node_ids);
    items = item_mbrs;
  }
}

uint32_t DynamicRTree::AllocNode(uint8_t level) {
  if (!free_nodes_.empty()) {
    const uint32_t id = free_nodes_.back();
    free_nodes_.pop_back();
    nodes_[id] = Node{};
    nodes_[id].level = level;
    return id;
  }
  nodes_.emplace_back();
  nodes_.back().level = level;
  return static_cast<uint32_t>(nodes_.size() - 1);
}

void DynamicRTree::RecomputeMbr(uint32_t node_id) {
  Node& node = nodes_[node_id];
  node.mbr = Box::Empty();
  for (const Entry& e : node.entries) node.mbr.ExpandToContain(e.mbr);
}

void DynamicRTree::SyncUpward(uint32_t node_id) {
  int32_t current = static_cast<int32_t>(node_id);
  while (current >= 0) {
    RecomputeMbr(static_cast<uint32_t>(current));
    const int32_t parent = nodes_[current].parent;
    if (parent >= 0) {
      for (Entry& e : nodes_[parent].entries) {
        if (e.id == static_cast<uint32_t>(current)) {
          e.mbr = nodes_[current].mbr;
          break;
        }
      }
    }
    current = parent;
  }
}

Box DynamicRTree::bounds() const {
  return size_ == 0 ? Box::Empty() : nodes_[root_].mbr;
}

uint32_t DynamicRTree::ChooseSubtree(const Box& box,
                                     uint8_t target_level) const {
  uint32_t current = root_;
  while (nodes_[current].level > target_level) {
    const Node& node = nodes_[current];
    const bool children_are_leaves = node.level == 1;

    size_t best = 0;
    if (options_.variant == RTreeVariant::kRStar && children_are_leaves) {
      // R*: among the children, pick the one whose overlap with its siblings
      // grows least when enlarged to cover `box`; break ties by volume
      // enlargement, then by volume.
      std::vector<Box> child_mbrs(node.entries.size());
      for (size_t i = 0; i < node.entries.size(); ++i) {
        child_mbrs[i] = node.entries[i].mbr;
      }
      double best_overlap_delta = std::numeric_limits<double>::infinity();
      double best_enlargement = std::numeric_limits<double>::infinity();
      double best_volume = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < node.entries.size(); ++i) {
        const Box enlarged = Union(child_mbrs[i], box);
        const double overlap_delta =
            OverlapWith(enlarged, child_mbrs, i) -
            OverlapWith(child_mbrs[i], child_mbrs, i);
        const double enlargement = Enlargement(child_mbrs[i], box);
        const double volume = child_mbrs[i].Volume();
        if (overlap_delta < best_overlap_delta ||
            (overlap_delta == best_overlap_delta &&
             (enlargement < best_enlargement ||
              (enlargement == best_enlargement && volume < best_volume)))) {
          best = i;
          best_overlap_delta = overlap_delta;
          best_enlargement = enlargement;
          best_volume = volume;
        }
      }
    } else {
      // Guttman (and R* above the leaf level): least volume enlargement,
      // ties by smallest volume.
      double best_enlargement = std::numeric_limits<double>::infinity();
      double best_volume = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < node.entries.size(); ++i) {
        const double enlargement = Enlargement(node.entries[i].mbr, box);
        const double volume = node.entries[i].mbr.Volume();
        if (enlargement < best_enlargement ||
            (enlargement == best_enlargement && volume < best_volume)) {
          best = i;
          best_enlargement = enlargement;
          best_volume = volume;
        }
      }
    }
    current = node.entries[best].id;
  }
  return current;
}

void DynamicRTree::Insert(uint32_t id, const Box& box) {
  reinserted_levels_.assign(nodes_[root_].level + 1, false);
  InsertEntry(Entry{box, id}, 0, 0);
  ++size_;
}

void DynamicRTree::InsertEntry(const Entry& entry, uint8_t target_level,
                               int depth) {
  const uint32_t node_id = ChooseSubtree(entry.mbr, target_level);
  Node& node = nodes_[node_id];
  node.entries.push_back(entry);
  if (!node.IsLeaf()) nodes_[entry.id].parent = static_cast<int32_t>(node_id);
  SyncUpward(node_id);

  if (nodes_[node_id].entries.size() > options_.max_entries) {
    HandleOverflow(node_id, depth);
  }
}

void DynamicRTree::HandleOverflow(uint32_t node_id, int depth) {
  Node& node = nodes_[node_id];
  const uint8_t level = node.level;
  const bool is_root = node.parent < 0;

  if (options_.variant == RTreeVariant::kRStar && !is_root &&
      level < reinserted_levels_.size() && !reinserted_levels_[level] &&
      depth < 8) {
    // Forced reinsertion: evict the entries farthest from the node's center
    // and insert them again from the top. `depth` caps recursion so
    // pathological inputs cannot reinsert forever.
    reinserted_levels_[level] = true;
    const Vec3 center = node.mbr.Center();
    std::vector<Entry> entries = std::move(node.entries);
    node.entries.clear();
    std::sort(entries.begin(), entries.end(),
              [&](const Entry& a, const Entry& b) {
                return (a.mbr.Center() - center).LengthSquared() <
                       (b.mbr.Center() - center).LengthSquared();
              });
    const size_t keep =
        entries.size() -
        std::max<size_t>(1, static_cast<size_t>(std::floor(
                                static_cast<float>(entries.size()) *
                                options_.reinsert_fraction)));
    std::vector<Entry> evicted(entries.begin() + keep, entries.end());
    entries.resize(keep);
    node.entries = std::move(entries);
    for (const Entry& e : node.entries) {
      if (!node.IsLeaf()) nodes_[e.id].parent = static_cast<int32_t>(node_id);
    }
    SyncUpward(node_id);
    for (const Entry& e : evicted) InsertEntry(e, level, depth + 1);
    return;
  }

  SplitNode(node_id);
}

void DynamicRTree::SplitNode(uint32_t node_id) {
  std::vector<Entry> entries = std::move(nodes_[node_id].entries);
  nodes_[node_id].entries.clear();

  std::vector<Entry> left;
  std::vector<Entry> right;
  if (options_.variant == RTreeVariant::kRStar) {
    RStarSplit(entries, &left, &right);
  } else {
    QuadraticSplit(entries, &left, &right);
  }

  const uint8_t level = nodes_[node_id].level;
  const uint32_t sibling_id = AllocNode(level);

  nodes_[node_id].entries = std::move(left);
  nodes_[sibling_id].entries = std::move(right);
  RecomputeMbr(node_id);
  RecomputeMbr(sibling_id);
  if (level > 0) {
    for (const Entry& e : nodes_[node_id].entries) {
      nodes_[e.id].parent = static_cast<int32_t>(node_id);
    }
    for (const Entry& e : nodes_[sibling_id].entries) {
      nodes_[e.id].parent = static_cast<int32_t>(sibling_id);
    }
  }

  const int32_t parent = nodes_[node_id].parent;
  if (parent < 0) {
    // Root split: grow the tree by one level.
    const uint32_t new_root = AllocNode(level + 1);
    nodes_[new_root].entries.push_back(
        Entry{nodes_[node_id].mbr, node_id});
    nodes_[new_root].entries.push_back(
        Entry{nodes_[sibling_id].mbr, sibling_id});
    nodes_[node_id].parent = static_cast<int32_t>(new_root);
    nodes_[sibling_id].parent = static_cast<int32_t>(new_root);
    RecomputeMbr(new_root);
    root_ = new_root;
    reinserted_levels_.resize(nodes_[root_].level + 1, false);
    return;
  }

  // Replace the split node's entry in the parent and add the sibling.
  Node& parent_node = nodes_[parent];
  for (Entry& e : parent_node.entries) {
    if (e.id == node_id) {
      e.mbr = nodes_[node_id].mbr;
      break;
    }
  }
  parent_node.entries.push_back(Entry{nodes_[sibling_id].mbr, sibling_id});
  nodes_[sibling_id].parent = parent;
  SyncUpward(static_cast<uint32_t>(parent));
  if (nodes_[parent].entries.size() > options_.max_entries) {
    SplitNode(static_cast<uint32_t>(parent));
  }
}

void DynamicRTree::QuadraticSplit(std::vector<Entry>& entries,
                                  std::vector<Entry>* left,
                                  std::vector<Entry>* right) const {
  // PickSeeds: the pair wasting the most volume if placed together.
  size_t seed_a = 0;
  size_t seed_b = 1;
  double worst_waste = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < entries.size(); ++i) {
    for (size_t j = i + 1; j < entries.size(); ++j) {
      const double waste = Union(entries[i].mbr, entries[j].mbr).Volume() -
                           entries[i].mbr.Volume() - entries[j].mbr.Volume();
      if (waste > worst_waste) {
        worst_waste = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  left->clear();
  right->clear();
  left->push_back(entries[seed_a]);
  right->push_back(entries[seed_b]);
  Box left_mbr = entries[seed_a].mbr;
  Box right_mbr = entries[seed_b].mbr;

  std::vector<bool> taken(entries.size(), false);
  taken[seed_a] = taken[seed_b] = true;
  size_t remaining = entries.size() - 2;

  while (remaining > 0) {
    // If one side must take all remaining entries to reach min fill, do so.
    if (left->size() + remaining == options_.min_entries) {
      for (size_t i = 0; i < entries.size(); ++i) {
        if (!taken[i]) left->push_back(entries[i]);
      }
      return;
    }
    if (right->size() + remaining == options_.min_entries) {
      for (size_t i = 0; i < entries.size(); ++i) {
        if (!taken[i]) right->push_back(entries[i]);
      }
      return;
    }

    // PickNext: the entry with the greatest preference for one group.
    size_t pick = 0;
    double best_difference = -1;
    double pick_left_cost = 0;
    double pick_right_cost = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (taken[i]) continue;
      const double left_cost = Enlargement(left_mbr, entries[i].mbr);
      const double right_cost = Enlargement(right_mbr, entries[i].mbr);
      const double difference = std::abs(left_cost - right_cost);
      if (difference > best_difference) {
        best_difference = difference;
        pick = i;
        pick_left_cost = left_cost;
        pick_right_cost = right_cost;
      }
    }
    taken[pick] = true;
    --remaining;
    const bool to_left =
        pick_left_cost < pick_right_cost ||
        (pick_left_cost == pick_right_cost && left->size() <= right->size());
    if (to_left) {
      left->push_back(entries[pick]);
      left_mbr.ExpandToContain(entries[pick].mbr);
    } else {
      right->push_back(entries[pick]);
      right_mbr.ExpandToContain(entries[pick].mbr);
    }
  }
}

void DynamicRTree::RStarSplit(std::vector<Entry>& entries,
                              std::vector<Entry>* left,
                              std::vector<Entry>* right) const {
  const size_t total = entries.size();
  const size_t min_fill = options_.min_entries;
  const size_t distributions = total - 2 * min_fill + 1;

  // ChooseSplitAxis: for each axis, sort by lo then by hi and accumulate the
  // margins of all legal distributions; the axis with the smallest sum wins.
  int best_axis = 0;
  double best_margin_sum = std::numeric_limits<double>::infinity();
  auto axis_lo = [](const Box& b, int axis) {
    return axis == 0 ? b.lo.x : axis == 1 ? b.lo.y : b.lo.z;
  };
  auto axis_hi = [](const Box& b, int axis) {
    return axis == 0 ? b.hi.x : axis == 1 ? b.hi.y : b.hi.z;
  };

  for (int axis = 0; axis < 3; ++axis) {
    for (const bool by_hi : {false, true}) {
      std::sort(entries.begin(), entries.end(),
                [&](const Entry& a, const Entry& b) {
                  return by_hi ? axis_hi(a.mbr, axis) < axis_hi(b.mbr, axis)
                               : axis_lo(a.mbr, axis) < axis_lo(b.mbr, axis);
                });
      double margin_sum = 0;
      for (size_t k = 0; k < distributions; ++k) {
        const size_t split = min_fill + k;
        Box lo_mbr = Box::Empty();
        Box hi_mbr = Box::Empty();
        for (size_t i = 0; i < split; ++i) lo_mbr.ExpandToContain(entries[i].mbr);
        for (size_t i = split; i < total; ++i) {
          hi_mbr.ExpandToContain(entries[i].mbr);
        }
        margin_sum += lo_mbr.Margin() + hi_mbr.Margin();
      }
      if (margin_sum < best_margin_sum) {
        best_margin_sum = margin_sum;
        best_axis = axis;
      }
    }
  }

  // ChooseSplitIndex on the winning axis (sorted by lo; the original also
  // considers the hi sort, we take the lo sort which performs equivalently):
  // minimize overlap volume, ties by combined volume.
  std::sort(entries.begin(), entries.end(),
            [&](const Entry& a, const Entry& b) {
              return axis_lo(a.mbr, best_axis) < axis_lo(b.mbr, best_axis);
            });
  size_t best_split = min_fill;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_volume = std::numeric_limits<double>::infinity();
  for (size_t k = 0; k < distributions; ++k) {
    const size_t split = min_fill + k;
    Box lo_mbr = Box::Empty();
    Box hi_mbr = Box::Empty();
    for (size_t i = 0; i < split; ++i) lo_mbr.ExpandToContain(entries[i].mbr);
    for (size_t i = split; i < total; ++i) hi_mbr.ExpandToContain(entries[i].mbr);
    const double overlap = Intersection(lo_mbr, hi_mbr).Volume();
    const double volume = lo_mbr.Volume() + hi_mbr.Volume();
    if (overlap < best_overlap ||
        (overlap == best_overlap && volume < best_volume)) {
      best_overlap = overlap;
      best_volume = volume;
      best_split = split;
    }
  }

  left->assign(entries.begin(), entries.begin() + best_split);
  right->assign(entries.begin() + best_split, entries.end());
}

bool DynamicRTree::Remove(uint32_t id, const Box& box) {
  // Find the leaf holding the entry.
  int32_t found_leaf = -1;
  size_t found_index = 0;
  const auto find = [&](auto&& self, uint32_t node_id) -> bool {
    const Node& node = nodes_[node_id];
    if (!Intersects(node.mbr, box)) return false;
    if (node.IsLeaf()) {
      for (size_t i = 0; i < node.entries.size(); ++i) {
        if (node.entries[i].id == id && node.entries[i].mbr == box) {
          found_leaf = static_cast<int32_t>(node_id);
          found_index = i;
          return true;
        }
      }
      return false;
    }
    for (const Entry& e : node.entries) {
      if (self(self, e.id)) return true;
    }
    return false;
  };
  if (size_ == 0 || !find(find, root_)) return false;

  Node& leaf = nodes_[found_leaf];
  leaf.entries.erase(leaf.entries.begin() +
                     static_cast<ptrdiff_t>(found_index));
  --size_;
  CondenseTree(static_cast<uint32_t>(found_leaf));
  return true;
}

bool DynamicRTree::Update(uint32_t id, const Box& old_box,
                          const Box& new_box) {
  // Find the leaf holding the entry, exactly like Remove.
  int32_t found_leaf = -1;
  size_t found_index = 0;
  const auto find = [&](auto&& self, uint32_t node_id) -> bool {
    const Node& node = nodes_[node_id];
    if (!Intersects(node.mbr, old_box)) return false;
    if (node.IsLeaf()) {
      for (size_t i = 0; i < node.entries.size(); ++i) {
        if (node.entries[i].id == id && node.entries[i].mbr == old_box) {
          found_leaf = static_cast<int32_t>(node_id);
          found_index = i;
          return true;
        }
      }
      return false;
    }
    for (const Entry& e : node.entries) {
      if (self(self, e.id)) return true;
    }
    return false;
  };
  if (size_ == 0 || !find(find, root_)) return false;

  Node& leaf = nodes_[found_leaf];
  if (Contains(leaf.mbr, new_box)) {
    // In-place rewrite: the leaf's MBR still covers the entry, so only the
    // upward tighten (the old box may have been the extreme one) is needed.
    leaf.entries[found_index].mbr = new_box;
    SyncUpward(static_cast<uint32_t>(found_leaf));
    return true;
  }
  leaf.entries.erase(leaf.entries.begin() +
                     static_cast<ptrdiff_t>(found_index));
  --size_;
  CondenseTree(static_cast<uint32_t>(found_leaf));
  Insert(id, new_box);
  return true;
}

void DynamicRTree::CondenseTree(uint32_t node_id) {
  // Walk up, dissolving underfull non-root nodes; collect orphaned entries
  // per level and reinsert them at their original level.
  std::vector<std::pair<Entry, uint8_t>> orphans;
  int32_t current = static_cast<int32_t>(node_id);
  while (current >= 0) {
    Node& node = nodes_[current];
    const int32_t parent = node.parent;
    if (parent >= 0 && node.entries.size() < options_.min_entries) {
      Node& parent_node = nodes_[parent];
      parent_node.entries.erase(
          std::remove_if(parent_node.entries.begin(),
                         parent_node.entries.end(),
                         [&](const Entry& e) {
                           return e.id == static_cast<uint32_t>(current);
                         }),
          parent_node.entries.end());
      for (const Entry& e : node.entries) orphans.emplace_back(e, node.level);
      node.entries.clear();
      free_nodes_.push_back(static_cast<uint32_t>(current));
    } else {
      RecomputeMbr(static_cast<uint32_t>(current));
      // Refresh this node's entry box in its parent.
      if (parent >= 0) {
        for (Entry& e : nodes_[parent].entries) {
          if (e.id == static_cast<uint32_t>(current)) {
            e.mbr = node.mbr;
            break;
          }
        }
      }
    }
    current = parent;
  }

  // Shrink the root while it is an inner node with a single child.
  while (!nodes_[root_].IsLeaf() && nodes_[root_].entries.size() == 1) {
    const uint32_t only_child = nodes_[root_].entries[0].id;
    free_nodes_.push_back(root_);
    nodes_[only_child].parent = -1;
    root_ = only_child;
  }
  if (nodes_[root_].entries.empty() && !nodes_[root_].IsLeaf()) {
    nodes_[root_].level = 0;
  }

  for (const auto& [entry, level] : orphans) {
    reinserted_levels_.assign(nodes_[root_].level + 1, false);
    if (level == 0) {
      InsertEntry(entry, 0, 0);
    } else if (nodes_[root_].level >= level) {
      // Orphan subtree of level-1 nodes: its entry belongs in a node at
      // `level` (InsertEntry fixes the child's parent pointer).
      InsertEntry(entry, level, 0);
    } else {
      // The tree shrank below the orphan's level: splice the orphan subtree's
      // leaf entries back individually.
      std::vector<uint32_t> stack = {entry.id};
      while (!stack.empty()) {
        const uint32_t nid = stack.back();
        stack.pop_back();
        for (const Entry& e : nodes_[nid].entries) {
          if (nodes_[nid].IsLeaf()) {
            InsertEntry(e, 0, 0);
          } else {
            stack.push_back(e.id);
          }
        }
        free_nodes_.push_back(nid);
      }
    }
  }
}

size_t DynamicRTree::MemoryUsageBytes() const {
  size_t bytes = VectorBytes(nodes_) + VectorBytes(free_nodes_);
  for (const Node& node : nodes_) bytes += VectorBytes(node.entries);
  return bytes;
}

bool DynamicRTree::CheckInvariants() const {
  if (size_ == 0) return true;
  if (nodes_[root_].parent != -1) return false;

  size_t leaf_entries = 0;
  int leaf_level_depth = -1;
  const auto check = [&](auto&& self, uint32_t node_id, int depth) -> bool {
    const Node& node = nodes_[node_id];
    if (node_id != root_) {
      if (node.entries.size() < options_.min_entries) return false;
    }
    if (node.entries.size() > options_.max_entries) return false;
    Box computed = Box::Empty();
    for (const Entry& e : node.entries) computed.ExpandToContain(e.mbr);
    if (!(computed == node.mbr)) return false;
    if (node.IsLeaf()) {
      if (leaf_level_depth < 0) leaf_level_depth = depth;
      if (leaf_level_depth != depth) return false;  // non-uniform depth
      leaf_entries += node.entries.size();
      return true;
    }
    for (const Entry& e : node.entries) {
      if (nodes_[e.id].parent != static_cast<int32_t>(node_id)) return false;
      if (nodes_[e.id].level + 1 != node.level) return false;
      if (!self(self, e.id, depth + 1)) return false;
    }
    return true;
  };
  if (!check(check, root_, 0)) return false;
  return leaf_entries == size_;
}

double DynamicRTree::TotalSiblingOverlapVolume() const {
  if (size_ == 0) return 0;
  double overlap = 0;
  for (const Node& node : nodes_) {
    if (node.IsLeaf() || node.entries.empty()) continue;
    for (size_t i = 0; i < node.entries.size(); ++i) {
      for (size_t j = i + 1; j < node.entries.size(); ++j) {
        overlap +=
            Intersection(node.entries[i].mbr, node.entries[j].mbr).Volume();
      }
    }
  }
  return overlap;
}

}  // namespace touch
