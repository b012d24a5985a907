#include "index/dynamic_rtree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
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

/// Bitwise equality: the upward walks' early stop must see a -0.0 -> +0.0
/// change that operator== would not.
bool SameBits(const Box& a, const Box& b) {
  static_assert(sizeof(Box) == 6 * sizeof(float));
  return std::memcmp(&a, &b, sizeof(Box)) == 0;
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
  stride_ = (options_.max_entries + BoxSlab::kPad - 1) & ~(BoxSlab::kPad - 1);
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
      for (uint32_t j = bounds[k]; j < bounds[k + 1]; ++j) {
        const uint32_t i = str.order[j];
        if (level == 0) {
          Append(node_id, Entry{items[i], i});
        } else {
          Append(node_id, Entry{items[i], item_nodes[i]});
          nodes_[item_nodes[i]].parent = static_cast<int32_t>(node_id);
        }
      }
      RecomputeMbr(node_id);
      mbrs.push_back(nodes_[node_id].mbr);
      node_ids.push_back(node_id);
    }
    if (node_ids.size() == 1) {
      root_ = node_ids.front();
      // The node count is final: trim the arena to it.
      nodes_.shrink_to_fit();
      slab_.ResizeKeep(nodes_.size() * stride_);
      ids_.resize(nodes_.size() * stride_);
      ids_.shrink_to_fit();
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
  if (nodes_.size() * stride_ > ids_.size()) {
    // Grow the arena by a quarter: a bulk-loaded tree starts exactly sized,
    // and its first split should not double it.
    const size_t slots = (nodes_.size() + nodes_.size() / 4) * stride_;
    slab_.ResizeKeep(slots);
    ids_.resize(slots);
  }
  return static_cast<uint32_t>(nodes_.size() - 1);
}

void DynamicRTree::Append(uint32_t node_id, const Entry& entry) {
  Node& node = nodes_[node_id];
  assert(node.count < options_.max_entries);
  const size_t slot = Slot(node_id) + node.count++;
  slab_.Set(slot, entry.mbr);
  ids_[slot] = entry.id;
}

void DynamicRTree::EraseSlot(uint32_t node_id, size_t slot) {
  const size_t end = Slot(node_id) + nodes_[node_id].count--;
  for (size_t s = slot; s + 1 < end; ++s) {
    slab_.Set(s, slab_.BoxAt(s + 1));
    ids_[s] = ids_[s + 1];
  }
}

void DynamicRTree::LoadEntries(uint32_t node_id,
                               std::vector<Entry>* entries) const {
  entries->clear();
  const size_t begin = Slot(node_id);
  for (size_t slot = begin; slot < begin + nodes_[node_id].count; ++slot) {
    entries->push_back(EntryAt(slot));
  }
}

void DynamicRTree::StoreEntries(uint32_t node_id,
                                std::span<const Entry> entries) {
  nodes_[node_id].count = 0;
  for (const Entry& e : entries) Append(node_id, e);
}

size_t DynamicRTree::ChildSlot(uint32_t parent, uint32_t child) const {
  const size_t begin = Slot(parent);
  for (size_t slot = begin; slot < begin + nodes_[parent].count; ++slot) {
    if (ids_[slot] == child) return slot;
  }
  return kNotFound;
}

std::vector<uint32_t>& DynamicRTree::ThreadQueryHits() {
  thread_local std::vector<uint32_t> hits;
  return hits;
}

void DynamicRTree::RecomputeMbr(uint32_t node_id) {
  Node& node = nodes_[node_id];
  node.mbr = Box::Empty();
  for (size_t slot = Slot(node_id); slot < Slot(node_id) + node.count;
       ++slot) {
    node.mbr.ExpandToContain(slab_.BoxAt(slot));
  }
}

void DynamicRTree::SyncUpward(uint32_t node_id) {
  int32_t current = static_cast<int32_t>(node_id);
  while (current >= 0) {
    const Box before = nodes_[current].mbr;
    RecomputeMbr(static_cast<uint32_t>(current));
    const Box& mbr = nodes_[current].mbr;
    const int32_t parent = nodes_[current].parent;
    if (parent < 0) return;
    const size_t slot = ChildSlot(static_cast<uint32_t>(parent),
                                  static_cast<uint32_t>(current));
    if (slot != kNotFound) {
      if (SameBits(before, mbr) && SameBits(slab_.BoxAt(slot), mbr)) return;
      slab_.Set(slot, mbr);
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
      std::vector<Box> child_mbrs(node.count);
      for (size_t i = 0; i < node.count; ++i) {
        child_mbrs[i] = slab_.BoxAt(Slot(current) + i);
      }
      double best_overlap_delta = std::numeric_limits<double>::infinity();
      double best_enlargement = std::numeric_limits<double>::infinity();
      double best_volume = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < node.count; ++i) {
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
      for (size_t i = 0; i < node.count; ++i) {
        const Box child = slab_.BoxAt(Slot(current) + i);
        const double enlargement = Enlargement(child, box);
        const double volume = child.Volume();
        if (enlargement < best_enlargement ||
            (enlargement == best_enlargement && volume < best_volume)) {
          best = i;
          best_enlargement = enlargement;
          best_volume = volume;
        }
      }
    }
    current = ids_[Slot(current) + best];
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
  if (!nodes_[node_id].IsLeaf()) {
    nodes_[entry.id].parent = static_cast<int32_t>(node_id);
  }
  if (nodes_[node_id].count < options_.max_entries) {
    Append(node_id, entry);
    SyncUpward(node_id);
    return;
  }
  HandleOverflow(node_id, entry, depth);
}

void DynamicRTree::HandleOverflow(uint32_t node_id, const Entry& extra,
                                  int depth) {
  // The node's entries plus the one that does not fit. It never enters the
  // node's row: the row only ever holds max_entries.
  std::vector<Entry> entries;
  LoadEntries(node_id, &entries);
  entries.push_back(extra);
  const Node& node = nodes_[node_id];
  const uint8_t level = node.level;
  const bool is_root = node.parent < 0;

  if (options_.variant == RTreeVariant::kRStar && !is_root &&
      level < reinserted_levels_.size() && !reinserted_levels_[level] &&
      depth < 8) {
    // Forced reinsertion: evict the entries farthest from the node's center
    // and insert them again from the top. `depth` caps recursion so
    // pathological inputs cannot reinsert forever.
    reinserted_levels_[level] = true;
    Box mbr = node.mbr;
    mbr.ExpandToContain(extra.mbr);
    const Vec3 center = mbr.Center();
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
    const std::vector<Entry> evicted(entries.begin() + keep, entries.end());
    entries.resize(keep);
    StoreEntries(node_id, entries);
    for (const Entry& e : entries) {
      if (level > 0) nodes_[e.id].parent = static_cast<int32_t>(node_id);
    }
    SyncUpward(node_id);
    for (const Entry& e : evicted) InsertEntry(e, level, depth + 1);
    return;
  }

  SplitNode(node_id, entries);
}

void DynamicRTree::SplitNode(uint32_t node_id, std::vector<Entry>& entries) {
  std::vector<Entry> left;
  std::vector<Entry> right;
  if (options_.variant == RTreeVariant::kRStar) {
    RStarSplit(entries, &left, &right);
  } else {
    QuadraticSplit(entries, &left, &right);
  }

  const uint8_t level = nodes_[node_id].level;
  const uint32_t sibling_id = AllocNode(level);

  StoreEntries(node_id, left);
  StoreEntries(sibling_id, right);
  RecomputeMbr(node_id);
  RecomputeMbr(sibling_id);
  if (level > 0) {
    for (const Entry& e : left) {
      nodes_[e.id].parent = static_cast<int32_t>(node_id);
    }
    for (const Entry& e : right) {
      nodes_[e.id].parent = static_cast<int32_t>(sibling_id);
    }
  }

  const int32_t parent = nodes_[node_id].parent;
  if (parent < 0) {
    // Root split: grow the tree by one level.
    const uint32_t new_root = AllocNode(level + 1);
    Append(new_root, Entry{nodes_[node_id].mbr, node_id});
    Append(new_root, Entry{nodes_[sibling_id].mbr, sibling_id});
    nodes_[node_id].parent = static_cast<int32_t>(new_root);
    nodes_[sibling_id].parent = static_cast<int32_t>(new_root);
    RecomputeMbr(new_root);
    root_ = new_root;
    reinserted_levels_.resize(nodes_[root_].level + 1, false);
    return;
  }

  // Replace the split node's entry in the parent and add the sibling,
  // splitting the parent in turn when it is full.
  const uint32_t up = static_cast<uint32_t>(parent);
  const size_t slot = ChildSlot(up, node_id);
  if (slot != kNotFound) slab_.Set(slot, nodes_[node_id].mbr);
  nodes_[sibling_id].parent = parent;
  const Entry sibling{nodes_[sibling_id].mbr, sibling_id};
  if (nodes_[up].count < options_.max_entries) {
    Append(up, sibling);
    SyncUpward(up);
    return;
  }
  LoadEntries(up, &entries);
  entries.push_back(sibling);
  SplitNode(up, entries);
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

size_t DynamicRTree::FindEntry(uint32_t id, const Box& box) {
  if (size_ == 0 || !Contains(nodes_[root_].mbr, box)) return kNotFound;
  find_hits_.clear();
  // A stored entry lies inside every ancestor's MBR, so only children
  // whose stored MBR contains `box` can lead to it. Overlapping the
  // inverted box (corners swapped) is exactly that containment, which
  // lets the overlap kernel test a node's children at once.
  return FindIn(root_, id, box, Box(box.hi, box.lo));
}

size_t DynamicRTree::FindIn(uint32_t node_id, uint32_t id, const Box& box,
                            const Box& inverted) {
  const Node& node = nodes_[node_id];
  const size_t begin = Slot(node_id);
  const size_t end = begin + node.count;
  if (node.IsLeaf()) {
    for (size_t slot = begin; slot < end; ++slot) {
      if (ids_[slot] == id && slab_.BoxAt(slot) == box) return slot;
    }
    return kNotFound;
  }
  const size_t first = find_hits_.size();
  CollectOverlaps(slab_, begin, end, inverted, find_hits_);
  const size_t last = find_hits_.size();
  for (size_t k = first; k < last; ++k) {
    const size_t found = FindIn(ids_[find_hits_[k]], id, box, inverted);
    if (found != kNotFound) return found;
  }
  find_hits_.resize(first);
  return kNotFound;
}

bool DynamicRTree::Remove(uint32_t id, const Box& box) {
  const size_t slot = FindEntry(id, box);
  if (slot == kNotFound) return false;
  const uint32_t leaf = static_cast<uint32_t>(slot / stride_);
  EraseSlot(leaf, slot);
  --size_;
  CondenseTree(leaf);
  return true;
}

bool DynamicRTree::Update(uint32_t id, const Box& old_box,
                          const Box& new_box) {
  const size_t slot = FindEntry(id, old_box);
  if (slot == kNotFound) return false;
  const uint32_t leaf = static_cast<uint32_t>(slot / stride_);
  if (Contains(nodes_[leaf].mbr, new_box)) {
    // In-place rewrite: the leaf's MBR still covers the entry, so only the
    // upward tighten (the old box may have been the extreme one) is needed.
    slab_.Set(slot, new_box);
    SyncUpward(leaf);
    return true;
  }
  EraseSlot(leaf, slot);
  --size_;
  CondenseTree(leaf);
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
    if (parent >= 0 && node.count < options_.min_entries) {
      const size_t slot = ChildSlot(static_cast<uint32_t>(parent),
                                    static_cast<uint32_t>(current));
      if (slot != kNotFound) EraseSlot(static_cast<uint32_t>(parent), slot);
      for (size_t s = Slot(current); s < Slot(current) + node.count; ++s) {
        orphans.emplace_back(EntryAt(s), node.level);
      }
      node.count = 0;
      free_nodes_.push_back(static_cast<uint32_t>(current));
    } else {
      const Box before = node.mbr;
      RecomputeMbr(static_cast<uint32_t>(current));
      // Refresh this node's entry box in its parent. Once the box and the
      // parent's copy are both unchanged, no ancestor changes either (nor
      // loses an entry), so the walk can stop, as SyncUpward does.
      if (parent >= 0) {
        const size_t slot = ChildSlot(static_cast<uint32_t>(parent),
                                      static_cast<uint32_t>(current));
        if (slot != kNotFound) {
          if (SameBits(before, node.mbr) &&
              SameBits(slab_.BoxAt(slot), node.mbr)) {
            break;
          }
          slab_.Set(slot, node.mbr);
        }
      }
    }
    current = parent;
  }

  // Shrink the root while it is an inner node with a single child.
  while (!nodes_[root_].IsLeaf() && nodes_[root_].count == 1) {
    const uint32_t only_child = ids_[Slot(root_)];
    free_nodes_.push_back(root_);
    nodes_[only_child].parent = -1;
    root_ = only_child;
  }
  if (nodes_[root_].count == 0 && !nodes_[root_].IsLeaf()) {
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
        // By slot, not by reference: the inserts may grow the arena.
        for (uint32_t i = 0; i < nodes_[nid].count; ++i) {
          if (nodes_[nid].IsLeaf()) {
            InsertEntry(EntryAt(Slot(nid) + i), 0, 0);
          } else {
            stack.push_back(ids_[Slot(nid) + i]);
          }
        }
        free_nodes_.push_back(nid);
      }
    }
  }
}

size_t DynamicRTree::MemoryUsageBytes() const {
  return VectorBytes(nodes_) + VectorBytes(free_nodes_) + VectorBytes(ids_) +
         slab_.MemoryUsageBytes();
}

bool DynamicRTree::CheckInvariants() const {
  if (size_ == 0) return true;
  if (nodes_[root_].parent != -1) return false;

  size_t leaf_entries = 0;
  int leaf_level_depth = -1;
  const auto check = [&](auto&& self, uint32_t node_id, int depth) -> bool {
    const Node& node = nodes_[node_id];
    if (node_id != root_) {
      if (node.count < options_.min_entries) return false;
    }
    if (node.count > options_.max_entries) return false;
    const size_t begin = Slot(node_id);
    const size_t end = begin + node.count;
    Box computed = Box::Empty();
    for (size_t slot = begin; slot < end; ++slot) {
      computed.ExpandToContain(slab_.BoxAt(slot));
    }
    if (!SameBits(computed, node.mbr)) return false;
    if (node.IsLeaf()) {
      if (leaf_level_depth < 0) leaf_level_depth = depth;
      if (leaf_level_depth != depth) return false;  // non-uniform depth
      leaf_entries += node.count;
      return true;
    }
    for (size_t slot = begin; slot < end; ++slot) {
      const Node& child = nodes_[ids_[slot]];
      if (child.parent != static_cast<int32_t>(node_id)) return false;
      if (child.level + 1 != node.level) return false;
      // The parent's copy of a child's MBR is the child's MBR, bit for bit.
      if (!SameBits(slab_.BoxAt(slot), child.mbr)) return false;
      if (!self(self, ids_[slot], depth + 1)) return false;
    }
    return true;
  };
  if (!check(check, root_, 0)) return false;
  return leaf_entries == size_;
}

double DynamicRTree::TotalSiblingOverlapVolume() const {
  if (size_ == 0) return 0;
  double overlap = 0;
  for (uint32_t node_id = 0; node_id < nodes_.size(); ++node_id) {
    const Node& node = nodes_[node_id];
    if (node.IsLeaf() || node.count == 0) continue;
    for (size_t i = Slot(node_id); i < Slot(node_id) + node.count; ++i) {
      for (size_t j = i + 1; j < Slot(node_id) + node.count; ++j) {
        overlap += Intersection(slab_.BoxAt(i), slab_.BoxAt(j)).Volume();
      }
    }
  }
  return overlap;
}

}  // namespace touch
