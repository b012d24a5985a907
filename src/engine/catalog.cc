#include "engine/catalog.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "geom/grid.h"

namespace touch {

double DatasetStats::HistogramSkew() const {
  // Measure at (at most) 16 cells/axis regardless of storage resolution:
  // finer grids see emptier, peakier cells, which would silently rescale
  // every skew threshold. Finer histograms are block-aggregated down — an
  // exact nested-grid aggregation when the resolution is a multiple of 16,
  // and blocks differing by at most one fine cell otherwise (e.g. stats
  // deserialized from a peer that histogrammed at an odd resolution).
  constexpr int kSkewResolution = 16;
  const int res = histogram_resolution;
  uint64_t max_count = 0;
  uint64_t total = 0;
  size_t occupied = 0;
  const auto tally = [&](uint64_t cell) {
    if (cell == 0) return;
    max_count = std::max(max_count, cell);
    total += cell;
    ++occupied;
  };
  if (res <= kSkewResolution) {
    for (const uint32_t cell : histogram) tally(cell);
  } else {
    constexpr int kCoarse = kSkewResolution;
    const auto coarse_of = [res](int fine) {
      return fine * kCoarse / res;  // 16 groups, sizes differing by <= 1
    };
    std::vector<uint64_t> coarse(
        static_cast<size_t>(kCoarse) * kCoarse * kCoarse, 0);
    for (int x = 0; x < res; ++x) {
      for (int y = 0; y < res; ++y) {
        for (int z = 0; z < res; ++z) {
          coarse[(static_cast<size_t>(coarse_of(x)) * kCoarse +
                  coarse_of(y)) *
                     kCoarse +
                 coarse_of(z)] +=
              histogram[(static_cast<size_t>(x) * res + y) * res + z];
        }
      }
    }
    for (const uint64_t cell : coarse) tally(cell);
  }
  if (occupied == 0) return 0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(occupied);
  return static_cast<double>(max_count) / mean;
}

namespace {

/// Shared by the from-scratch and incremental stats paths so both produce
/// the same bits: avg/density are computed from an order-independent extent
/// (multiset min/max), ExactSum extent sums, and the object count.
void FinalizeDerivedStats(const ExactSum& sx, const ExactSum& sy,
                          const ExactSum& sz, DatasetStats* stats) {
  const double inv = 1.0 / static_cast<double>(stats->count);
  stats->avg_object_extent =
      Vec3(static_cast<float>(sx.ToDouble() * inv),
           static_cast<float>(sy.ToDouble() * inv),
           static_cast<float>(sz.ToDouble() * inv));
  const double volume = stats->extent.Volume();
  stats->density =
      volume > 0 ? static_cast<double>(stats->count) / volume : 0;
}

size_t HistogramCell(const GridMapper& grid, int res, const Box& box) {
  const CellCoord c = grid.CellOf(box.Center());
  return (static_cast<size_t>(c.x) * res + c.y) * res + c.z;
}

}  // namespace

void CheckApplicableBoxes(std::string_view dataset,
                          std::span<const Box> boxes) {
  const auto bad = std::ranges::find_if_not(boxes, IsApplicableBox);
  if (bad == boxes.end()) return;
  throw std::invalid_argument(
      "dataset '" + std::string(dataset) + "' box " +
      std::to_string(bad - boxes.begin()) +
      ": NaN coordinate or lo > hi on some axis");
}

DatasetStats ComputeDatasetStats(std::span<const Box> boxes,
                                 int histogram_resolution) {
  DatasetStats stats;
  stats.count = boxes.size();
  if (boxes.empty()) return stats;

  // ExactSum (not a running double) so the incremental mutation path —
  // which adds and subtracts extents in arbitrary order — lands on the
  // same accumulator state, and therefore the same avg bits, as this scan.
  ExactSum sx;
  ExactSum sy;
  ExactSum sz;
  for (const Box& box : boxes) {
    stats.extent.ExpandToContain(box);
    const Vec3 e = box.Extent();
    sx.Add(e.x);
    sy.Add(e.y);
    sz.Add(e.z);
  }
  FinalizeDerivedStats(sx, sy, sz, &stats);

  const int res = std::max(1, histogram_resolution);
  stats.histogram_resolution = res;
  stats.histogram.assign(static_cast<size_t>(res) * res * res, 0);
  const GridMapper grid(stats.extent, res);
  for (const Box& box : boxes) {
    ++stats.histogram[HistogramCell(grid, res, box)];
  }
  return stats;
}

int CellSizeCappedResolution(float min_extent, float max_avg_edge,
                             int max_res) {
  if (max_avg_edge <= 0) return max_res;
  const float ratio = min_extent / (4.0f * max_avg_edge);
  if (ratio >= static_cast<float>(max_res)) return max_res;
  return std::clamp(static_cast<int>(ratio), 1, max_res);
}

namespace {

/// Per-axis overlap probabilities for object centers in the same histogram
/// cell and in adjacent cells. Two intervals of lengths ea and eb overlap
/// when their centers are within (ea+eb)/2 of each other; with
/// s = min(1, (ea+eb)/2c) and centers uniform in cells of edge c:
///   same cell      (x1, x2 ~ U(0,1)):  P(|x1-x2| <= s)   = 2s - s^2
///   adjacent cells (x2 shifted by 1):  P(|x1-x2-1| <= s) = s^2 / 2
/// Offsets of two or more cells contribute nothing once cells are at least
/// as large as the combined object extents.
struct AxisProbabilities {
  double same = 1.0;
  double adjacent = 0.0;
};

AxisProbabilities AxisOverlapProbabilities(double ea, double eb,
                                           double cell_edge) {
  if (cell_edge <= 0) return AxisProbabilities{1.0, 0.0};
  const double s = std::min(1.0, (ea + eb) / (2.0 * cell_edge));
  return AxisProbabilities{2.0 * s - s * s, s * s / 2.0};
}

/// Per-axis fan-out of one source histogram cell onto the joint grid: the
/// first overlapped target cell and the share of the source cell's extent
/// falling into it and its successors. Shares sum to 1 per source cell, so
/// resampling conserves total mass exactly.
struct AxisSplit {
  int first_target = 0;
  std::vector<double> fractions;
};

std::vector<AxisSplit> SplitAxis(float src_lo, float src_hi, int src_res,
                                 float dst_lo, float dst_hi, int dst_res) {
  std::vector<AxisSplit> splits(static_cast<size_t>(src_res));
  const double src_w =
      (static_cast<double>(src_hi) - src_lo) / static_cast<double>(src_res);
  const double dst_w =
      (static_cast<double>(dst_hi) - dst_lo) / static_cast<double>(dst_res);
  const auto dst_cell_of = [&](double x) {
    if (dst_w <= 0) return 0;
    return std::clamp(static_cast<int>((x - dst_lo) / dst_w), 0, dst_res - 1);
  };
  for (int i = 0; i < src_res; ++i) {
    AxisSplit& split = splits[static_cast<size_t>(i)];
    const double s0 = src_lo + i * src_w;
    const double s1 = s0 + src_w;
    if (src_w <= 0 || dst_w <= 0) {
      // Degenerate source or target axis: all mass sits at one coordinate.
      split.first_target = dst_cell_of(s0);
      split.fractions.assign(1, 1.0);
      continue;
    }
    const int j0 = dst_cell_of(s0);
    const int j1 = std::max(j0, dst_cell_of(s1));
    split.first_target = j0;
    split.fractions.assign(static_cast<size_t>(j1 - j0 + 1), 0.0);
    double total = 0;
    for (int j = j0; j <= j1; ++j) {
      const double t0 = dst_lo + j * dst_w;
      const double overlap = std::min(s1, t0 + dst_w) - std::max(s0, t0);
      if (overlap > 0) split.fractions[static_cast<size_t>(j - j0)] = overlap;
      total += std::max(0.0, overlap);
    }
    if (total > 0) {
      for (double& fraction : split.fractions) fraction /= total;
    } else {
      split.fractions.assign(1, 1.0);
    }
  }
  return splits;
}

/// Spreads a dataset's center histogram (computed over its own extent at
/// registration) onto `resolution`^3 cells of the joint `domain`, treating
/// each source cell's count as uniformly distributed over the cell.
std::vector<double> ResampleHistogram(const DatasetStats& stats,
                                      const Box& domain, int resolution) {
  std::vector<double> out(
      static_cast<size_t>(resolution) * resolution * resolution, 0.0);
  if (stats.count == 0 || stats.histogram.empty()) return out;
  const int src_res = stats.histogram_resolution;
  const std::vector<AxisSplit> sx =
      SplitAxis(stats.extent.lo.x, stats.extent.hi.x, src_res, domain.lo.x,
                domain.hi.x, resolution);
  const std::vector<AxisSplit> sy =
      SplitAxis(stats.extent.lo.y, stats.extent.hi.y, src_res, domain.lo.y,
                domain.hi.y, resolution);
  const std::vector<AxisSplit> sz =
      SplitAxis(stats.extent.lo.z, stats.extent.hi.z, src_res, domain.lo.z,
                domain.hi.z, resolution);
  for (int x = 0; x < src_res; ++x) {
    for (int y = 0; y < src_res; ++y) {
      for (int z = 0; z < src_res; ++z) {
        const uint32_t count =
            stats.histogram[(static_cast<size_t>(x) * src_res + y) * src_res +
                            z];
        if (count == 0) continue;
        for (size_t ix = 0; ix < sx[x].fractions.size(); ++ix) {
          const double wx = count * sx[x].fractions[ix];
          if (wx <= 0) continue;
          const size_t jx = static_cast<size_t>(sx[x].first_target) + ix;
          for (size_t iy = 0; iy < sy[y].fractions.size(); ++iy) {
            const double wxy = wx * sy[y].fractions[iy];
            if (wxy <= 0) continue;
            const size_t jy = static_cast<size_t>(sy[y].first_target) + iy;
            for (size_t iz = 0; iz < sz[z].fractions.size(); ++iz) {
              const double wxyz = wxy * sz[z].fractions[iz];
              if (wxyz <= 0) continue;
              const size_t jz = static_cast<size_t>(sz[z].first_target) + iz;
              out[(jx * resolution + jy) * resolution + jz] += wxyz;
            }
          }
        }
      }
    }
  }
  return out;
}

}  // namespace

PairEstimate CombineHistograms(const DatasetStats& a, const DatasetStats& b,
                               float epsilon) {
  PairEstimate estimate;
  if (a.count == 0 || b.count == 0) return estimate;
  Box domain = a.extent;
  domain.ExpandToContain(b.extent);
  if (domain.IsEmpty()) return estimate;

  // The within-cell uniformity assumption needs cells comfortably larger
  // than the average object (objects straddle cells the histogram never
  // pairs them in).
  const Vec3 extent = domain.Extent();
  const float max_avg =
      std::max({a.avg_object_extent.x, a.avg_object_extent.y,
                a.avg_object_extent.z, b.avg_object_extent.x,
                b.avg_object_extent.y, b.avg_object_extent.z});
  const int res =
      CellSizeCappedResolution(std::min({extent.x, extent.y, extent.z}),
                               max_avg, kHistogramResolution);

  const std::vector<double> ha = ResampleHistogram(a, domain, res);
  const std::vector<double> hb = ResampleHistogram(b, domain, res);

  const double cell_edge[3] = {extent.x / static_cast<double>(res),
                               extent.y / static_cast<double>(res),
                               extent.z / static_cast<double>(res)};
  // The distance join enlarges A's boxes by epsilon on every side.
  const double ea[3] = {a.avg_object_extent.x + 2.0 * epsilon,
                        a.avg_object_extent.y + 2.0 * epsilon,
                        a.avg_object_extent.z + 2.0 * epsilon};
  const double eb[3] = {b.avg_object_extent.x, b.avg_object_extent.y,
                        b.avg_object_extent.z};
  AxisProbabilities p[3];
  for (int axis = 0; axis < 3; ++axis) {
    p[axis] = AxisOverlapProbabilities(ea[axis], eb[axis], cell_edge[axis]);
  }

  // Sum hA(c) * hB(c + d) over all cells and the 27 offsets d in {-1,0,1}^3,
  // weighting each offset by the product of per-axis probabilities, over
  // the resampled (fractional) counts.
  const auto b_count_at = [&](int x, int y, int z) -> double {
    if (x < 0 || y < 0 || z < 0 || x >= res || y >= res || z >= res) return 0;
    return hb[(static_cast<size_t>(x) * res + y) * res + z];
  };
  double expected = 0;
  double peak = 0;
  size_t occupied = 0;
  for (int x = 0; x < res; ++x) {
    for (int y = 0; y < res; ++y) {
      for (int z = 0; z < res; ++z) {
        const double a_count =
            ha[(static_cast<size_t>(x) * res + y) * res + z];
        if (a_count <= 0) continue;
        double b_weighted = 0;
        for (int dx = -1; dx <= 1; ++dx) {
          const double px = dx == 0 ? p[0].same : p[0].adjacent;
          for (int dy = -1; dy <= 1; ++dy) {
            const double py = dy == 0 ? p[1].same : p[1].adjacent;
            for (int dz = -1; dz <= 1; ++dz) {
              const double pz = dz == 0 ? p[2].same : p[2].adjacent;
              b_weighted += px * py * pz * b_count_at(x + dx, y + dy, z + dz);
            }
          }
        }
        const double contribution = a_count * b_weighted;
        if (contribution <= 0) continue;
        expected += contribution;
        peak = std::max(peak, contribution);
        ++occupied;
      }
    }
  }

  estimate.expected_results = expected;
  estimate.selectivity =
      expected / (static_cast<double>(a.count) * static_cast<double>(b.count));
  if (occupied > 0 && expected > 0) {
    estimate.pair_skew = peak / (expected / static_cast<double>(occupied));
  }
  return estimate;
}

namespace {

constexpr uint32_t kStatsFormatVersion = 1;

template <typename T>
void AppendPod(std::vector<uint8_t>* out, const T& value) {
  const auto* bytes = reinterpret_cast<const uint8_t*>(&value);
  out->insert(out->end(), bytes, bytes + sizeof(T));
}

template <typename T>
bool ConsumePod(std::span<const uint8_t>* bytes, T* value) {
  if (bytes->size() < sizeof(T)) return false;
  std::memcpy(value, bytes->data(), sizeof(T));
  *bytes = bytes->subspan(sizeof(T));
  return true;
}

}  // namespace

std::vector<uint8_t> SerializeDatasetStats(const DatasetStats& stats) {
  std::vector<uint8_t> out;
  out.reserve(64 + stats.histogram.size() * sizeof(uint32_t));
  AppendPod(&out, kStatsFormatVersion);
  AppendPod(&out, static_cast<uint64_t>(stats.count));
  // Corner-by-corner floats, not the whole Box, so struct padding never
  // leaks into (or varies) the wire format.
  for (const float field :
       {stats.extent.lo.x, stats.extent.lo.y, stats.extent.lo.z,
        stats.extent.hi.x, stats.extent.hi.y, stats.extent.hi.z,
        stats.avg_object_extent.x, stats.avg_object_extent.y,
        stats.avg_object_extent.z}) {
    AppendPod(&out, field);
  }
  AppendPod(&out, stats.density);
  AppendPod(&out, static_cast<int32_t>(stats.histogram_resolution));
  AppendPod(&out, static_cast<uint64_t>(stats.histogram.size()));
  const size_t offset = out.size();
  out.resize(offset + stats.histogram.size() * sizeof(uint32_t));
  if (!stats.histogram.empty()) {
    std::memcpy(out.data() + offset, stats.histogram.data(),
                stats.histogram.size() * sizeof(uint32_t));
  }
  return out;
}

bool DeserializeDatasetStats(std::span<const uint8_t> bytes,
                             DatasetStats* stats) {
  uint32_t version = 0;
  if (!ConsumePod(&bytes, &version) || version != kStatsFormatVersion) {
    return false;
  }
  DatasetStats parsed;
  uint64_t count = 0;
  if (!ConsumePod(&bytes, &count)) return false;
  parsed.count = static_cast<size_t>(count);
  float fields[9] = {};
  for (float& field : fields) {
    if (!ConsumePod(&bytes, &field)) return false;
  }
  parsed.extent = Box(Vec3(fields[0], fields[1], fields[2]),
                      Vec3(fields[3], fields[4], fields[5]));
  parsed.avg_object_extent = Vec3(fields[6], fields[7], fields[8]);
  int32_t resolution = 0;
  uint64_t histogram_size = 0;
  if (!ConsumePod(&bytes, &parsed.density) ||
      !ConsumePod(&bytes, &resolution) ||
      !ConsumePod(&bytes, &histogram_size)) {
    return false;
  }
  // Stats may arrive from untrusted peers (a remote catalog shard), so the
  // declared shape is validated against the actual payload *before* any
  // arithmetic that could overflow or any allocation it would size: the
  // resolution bound keeps res^3 far from uint64 wraparound, and the
  // histogram size is compared against the real remaining byte count.
  if (resolution < 0 || resolution > 4096) return false;
  parsed.histogram_resolution = resolution;
  const uint64_t expected_cells =
      resolution == 0 ? 0
                      : static_cast<uint64_t>(resolution) * resolution *
                            resolution;
  if (bytes.size() % sizeof(uint32_t) != 0 ||
      bytes.size() / sizeof(uint32_t) != histogram_size ||
      histogram_size != expected_cells) {
    return false;
  }
  parsed.histogram.resize(static_cast<size_t>(histogram_size));
  if (histogram_size > 0) {
    std::memcpy(parsed.histogram.data(), bytes.data(),
                parsed.histogram.size() * sizeof(uint32_t));
  }
  *stats = std::move(parsed);
  return true;
}

DatasetHandle DatasetCatalog::Register(std::string name, Dataset boxes) {
  CheckApplicableBoxes(name, boxes);
  DatasetStats stats = ComputeDatasetStats(boxes);
  return AddEntry(std::move(name), std::move(boxes), std::move(stats));
}

DatasetHandle DatasetCatalog::Register(std::string name, Dataset boxes,
                                       DatasetStats stats) {
  CheckApplicableBoxes(name, boxes);
  return AddEntry(std::move(name), std::move(boxes), std::move(stats));
}

DatasetHandle DatasetCatalog::AddEntry(std::string name, Dataset boxes,
                                       DatasetStats stats) {
  auto entry = std::make_unique<Entry>();
  entry->name = std::move(name);
  auto snapshot = std::make_shared<DatasetSnapshot>();
  snapshot->stats = std::move(stats);
  snapshot->boxes = std::move(boxes);
  snapshot->version = 0;
  entry->snapshot = std::move(snapshot);
  entry->next_id = static_cast<uint32_t>(entry->snapshot->boxes.size());
  MutexLock lock(mutex_);
  entries_.push_back(std::move(entry));
  return static_cast<DatasetHandle>(entries_.size() - 1);
}

DatasetCatalog::Entry* DatasetCatalog::entry(DatasetHandle handle) const {
  MutexLock lock(mutex_);
  return entries_[handle].get();
}

const std::string& DatasetCatalog::name(DatasetHandle handle) const {
  return entry(handle)->name;
}

const Dataset& DatasetCatalog::boxes(DatasetHandle handle) const {
  Entry* e = entry(handle);
  MutexLock lock(e->m);
  // The entry keeps the snapshot pinned, so this reference stays valid
  // until the dataset's next mutation (the documented contract).
  return e->snapshot->boxes;
}

const DatasetStats& DatasetCatalog::stats(DatasetHandle handle) const {
  Entry* e = entry(handle);
  MutexLock lock(e->m);
  return e->snapshot->stats;
}

DatasetSnapshotPtr DatasetCatalog::snapshot(DatasetHandle handle) const {
  Entry* e = entry(handle);
  MutexLock lock(e->m);
  return e->snapshot;
}

uint64_t DatasetCatalog::version(DatasetHandle handle) const {
  Entry* e = entry(handle);
  MutexLock lock(e->m);
  return e->version;
}

void DatasetCatalog::EnsureDynamicLocked(Entry& e) {
  if (e.dynamic_ready) return;
  const Dataset& boxes = e.snapshot->boxes;
  e.cur_boxes.assign(boxes.begin(), boxes.end());
  e.cur_ids.resize(boxes.size());
  e.slot_of.reserve(boxes.size());
  // Never mutated yet, so slot i holds object i: the packed tree's ids are
  // the object ids.
  e.tree.BulkLoad(boxes);
  for (uint32_t i = 0; i < boxes.size(); ++i) {
    e.cur_ids[i] = i;
    e.slot_of.emplace(i, i);
    const Vec3 ext = boxes[i].Extent();
    e.sum_x.Add(ext.x);
    e.sum_y.Add(ext.y);
    e.sum_z.Add(ext.z);
  }
  e.dynamic_ready = true;
}

void DatasetCatalog::RebuildStatsLocked(Entry& e, DatasetStats* stats) {
  // Extent from the tree: a multiset min/max over the same boxes, so it is
  // bitwise identical to ComputeDatasetStats' ExpandToContain fold.
  stats->count = e.cur_boxes.size();
  stats->extent = e.tree.bounds();
  if (stats->count == 0) {
    *stats = DatasetStats{};
    return;
  }
  FinalizeDerivedStats(e.sum_x, e.sum_y, e.sum_z, stats);
}

uint64_t DatasetCatalog::ApplyMutations(
    DatasetHandle handle, std::span<const Mutation> mutations,
    std::vector<AppliedMutation>* applied) {
  Entry* ep = entry(handle);
  Entry& e = *ep;
  MutexLock lock(e.m);
  EnsureDynamicLocked(e);

  const Box old_extent = e.snapshot->stats.extent;
  const int res = e.snapshot->stats.histogram_resolution;
  // Center-cell deltas against the *old* extent, applied only if the hull
  // did not move; a hull change forces a full (still order-independent)
  // rebin over the current boxes.
  std::vector<std::pair<size_t, int>> cell_deltas;
  const GridMapper old_grid(old_extent.IsEmpty() ? Box() : old_extent,
                            std::max(1, res));

  for (const Mutation& m : mutations) {
    AppliedMutation record;
    switch (m.kind) {
      case MutationKind::kInsert: {
        if (!IsApplicableBox(m.box)) continue;
        uint32_t id = m.id;
        if (id == kInvalidObjectId) {
          id = e.next_id++;
        } else if (e.slot_of.contains(id)) {
          continue;  // live id: inapplicable
        } else if (id >= e.next_id) {
          e.next_id = id + 1;
        }
        const uint32_t slot = static_cast<uint32_t>(e.cur_boxes.size());
        e.cur_boxes.push_back(m.box);
        e.cur_ids.push_back(id);
        e.slot_of.emplace(id, slot);
        e.tree.Insert(id, m.box);
        const Vec3 ext = m.box.Extent();
        e.sum_x.Add(ext.x);
        e.sum_y.Add(ext.y);
        e.sum_z.Add(ext.z);
        if (id != slot) e.identity = false;
        if (res > 0) {
          cell_deltas.emplace_back(HistogramCell(old_grid, res, m.box), 1);
        }
        record = AppliedMutation{id, false, true, Box(), m.box};
        break;
      }
      case MutationKind::kDelete: {
        const auto it = e.slot_of.find(m.id);
        if (it == e.slot_of.end()) continue;
        const uint32_t slot = it->second;
        const Box old_box = e.cur_boxes[slot];
        e.tree.Remove(m.id, old_box);
        const Vec3 ext = old_box.Extent();
        e.sum_x.Subtract(ext.x);
        e.sum_y.Subtract(ext.y);
        e.sum_z.Subtract(ext.z);
        const uint32_t last = static_cast<uint32_t>(e.cur_boxes.size() - 1);
        if (slot != last) {
          e.cur_boxes[slot] = e.cur_boxes[last];
          e.cur_ids[slot] = e.cur_ids[last];
          e.slot_of[e.cur_ids[slot]] = slot;
          e.identity = false;
        } else if (m.id != last) {
          e.identity = false;
        }
        e.cur_boxes.pop_back();
        e.cur_ids.pop_back();
        e.slot_of.erase(it);
        if (res > 0) {
          cell_deltas.emplace_back(HistogramCell(old_grid, res, old_box),
                                   -1);
        }
        record = AppliedMutation{m.id, true, false, old_box, Box()};
        break;
      }
      case MutationKind::kUpdate: {
        const auto it = e.slot_of.find(m.id);
        if (it == e.slot_of.end() || !IsApplicableBox(m.box)) continue;
        const uint32_t slot = it->second;
        const Box old_box = e.cur_boxes[slot];
        e.tree.Update(m.id, old_box, m.box);
        e.cur_boxes[slot] = m.box;
        const Vec3 old_ext = old_box.Extent();
        const Vec3 new_ext = m.box.Extent();
        e.sum_x.Subtract(old_ext.x);
        e.sum_y.Subtract(old_ext.y);
        e.sum_z.Subtract(old_ext.z);
        e.sum_x.Add(new_ext.x);
        e.sum_y.Add(new_ext.y);
        e.sum_z.Add(new_ext.z);
        if (res > 0) {
          cell_deltas.emplace_back(HistogramCell(old_grid, res, old_box),
                                   -1);
          cell_deltas.emplace_back(HistogramCell(old_grid, res, m.box), 1);
        }
        record = AppliedMutation{m.id, true, true, old_box, m.box};
        break;
      }
    }
    if (applied != nullptr) applied->push_back(record);
  }

  auto next = std::make_shared<DatasetSnapshot>();
  next->boxes.assign(e.cur_boxes.begin(), e.cur_boxes.end());
  if (!e.identity) next->ids = e.cur_ids;
  RebuildStatsLocked(e, &next->stats);
  if (next->stats.count > 0) {
    const int new_res =
        res > 0 ? res : std::max(1, e.snapshot->stats.histogram_resolution);
    next->stats.histogram_resolution = std::max(1, new_res);
    const int r = next->stats.histogram_resolution;
    if (!(next->stats.extent == old_extent) || res <= 0) {
      // Hull moved (or the dataset was empty before): rebin every center.
      // Per-box binning is independent, so this matches the scratch scan.
      next->stats.histogram.assign(static_cast<size_t>(r) * r * r, 0);
      const GridMapper grid(next->stats.extent, r);
      for (const Box& box : next->boxes) {
        ++next->stats.histogram[HistogramCell(grid, r, box)];
      }
    } else {
      next->stats.histogram = e.snapshot->stats.histogram;
      for (const auto& [cell, delta] : cell_deltas) {
        next->stats.histogram[cell] =
            static_cast<uint32_t>(static_cast<int64_t>(
                next->stats.histogram[cell]) + delta);
      }
    }
  }
  next->version = ++e.version;
  e.snapshot = std::move(next);
  return e.version;
}

uint32_t DatasetCatalog::Insert(DatasetHandle handle, const Box& box,
                                uint32_t id) {
  const Mutation m{MutationKind::kInsert, id, box};
  std::vector<AppliedMutation> applied;
  ApplyMutations(handle, std::span(&m, 1), &applied);
  return applied.empty() ? kInvalidObjectId : applied.front().id;
}

bool DatasetCatalog::Delete(DatasetHandle handle, uint32_t id) {
  const Mutation m{MutationKind::kDelete, id, Box()};
  std::vector<AppliedMutation> applied;
  ApplyMutations(handle, std::span(&m, 1), &applied);
  return !applied.empty();
}

bool DatasetCatalog::Update(DatasetHandle handle, uint32_t id,
                            const Box& box) {
  const Mutation m{MutationKind::kUpdate, id, box};
  std::vector<AppliedMutation> applied;
  ApplyMutations(handle, std::span(&m, 1), &applied);
  return !applied.empty();
}

std::optional<Box> DatasetCatalog::FindObject(DatasetHandle handle,
                                              uint32_t id) const {
  Entry* ep = entry(handle);
  Entry& e = *ep;
  MutexLock lock(e.m);
  if (!e.dynamic_ready) {
    const Dataset& boxes = e.snapshot->boxes;
    if (id < boxes.size()) return boxes[id];
    return std::nullopt;
  }
  const auto it = e.slot_of.find(id);
  if (it == e.slot_of.end()) return std::nullopt;
  return e.cur_boxes[it->second];
}

void DatasetCatalog::QueryObjects(
    DatasetHandle handle, const Box& query,
    const std::function<void(uint32_t, const Box&)>& emit) const {
  Entry* ep = entry(handle);
  Entry& e = *ep;
  MutexLock lock(e.m);
  EnsureDynamicLocked(e);
  e.tree.Query(query, [&](uint32_t id, const Box& box) { emit(id, box); });
}

std::optional<DatasetHandle> DatasetCatalog::Find(
    const std::string& name) const {
  MutexLock lock(mutex_);
  for (size_t i = entries_.size(); i-- > 0;) {
    if (entries_[i]->name == name) return static_cast<DatasetHandle>(i);
  }
  return std::nullopt;
}

}  // namespace touch
