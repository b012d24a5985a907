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
    // 16 groups per axis, sizes differing by <= 1.
    std::vector<int> coarse_of(static_cast<size_t>(res));
    for (int fine = 0; fine < res; ++fine) {
      coarse_of[static_cast<size_t>(fine)] = fine * kCoarse / res;
    }
    std::vector<uint64_t> coarse(
        static_cast<size_t>(kCoarse) * kCoarse * kCoarse, 0);
    const uint32_t* fine_cell = histogram.data();
    for (int x = 0; x < res; ++x) {
      for (int y = 0; y < res; ++y) {
        uint64_t* row = coarse.data() + (static_cast<size_t>(coarse_of[x]) *
                                             kCoarse +
                                         coarse_of[y]) *
                                            kCoarse;
        for (int z = 0; z < res; ++z) row[coarse_of[z]] += *fine_cell++;
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

/// One axis of the resample from a dataset's own histogram grid onto the
/// joint grid. Target slab j draws on source slabs [start[j], start[j] +
/// band), and weights[k * dst_res + j] is the share of source slab
/// start[j] + k's extent that falls into target slab j (zero when that slab
/// misses j). Each source slab's shares sum to 1, so resampling conserves
/// total mass exactly. One band width for every target keeps the passes'
/// inner loops free of per-slab bounds.
struct AxisSplit {
  int band = 1;
  std::vector<int> start;
  std::vector<double> weights;

  const double* shares(int k) const {
    return weights.data() + static_cast<size_t>(k) * start.size();
  }
};

AxisSplit SplitAxis(float src_lo, float src_hi, int src_res, float dst_lo,
                    float dst_hi, int dst_res) {
  AxisSplit split;
  split.start.assign(static_cast<size_t>(dst_res), 0);
  if (src_res <= 0) {  // no histogram: every share is zero
    split.weights.assign(static_cast<size_t>(dst_res), 0.0);
    return split;
  }
  // Dense shares first: share[j * src_res + i] of source slab i in target j.
  std::vector<double> share(static_cast<size_t>(src_res) * dst_res, 0.0);
  const auto at = [&](int i, int j) -> double& {
    return share[static_cast<size_t>(j) * src_res + i];
  };
  const double src_w =
      (static_cast<double>(src_hi) - src_lo) / static_cast<double>(src_res);
  const double dst_w =
      (static_cast<double>(dst_hi) - dst_lo) / static_cast<double>(dst_res);
  const auto dst_cell_of = [&](double x) {
    if (dst_w <= 0) return 0;
    return std::clamp(static_cast<int>((x - dst_lo) / dst_w), 0, dst_res - 1);
  };
  const bool spread = src_w > 0 && dst_w > 0;
  for (int i = 0; i < src_res; ++i) {
    const double s0 = src_lo + i * src_w;
    const double s1 = s0 + src_w;
    const int j0 = dst_cell_of(s0);
    const int j1 = spread ? std::max(j0, dst_cell_of(s1)) : j0;
    double total = 0;
    for (int j = j0; j <= j1 && spread; ++j) {
      const double t0 = dst_lo + j * dst_w;
      const double overlap = std::min(s1, t0 + dst_w) - std::max(s0, t0);
      if (overlap > 0) {
        at(i, j) = overlap;
        total += overlap;
      }
    }
    if (total > 0) {
      for (int j = j0; j <= j1; ++j) at(i, j) /= total;
    } else {
      // A degenerate source or target axis: all mass at one coordinate.
      at(i, j0) = 1.0;
    }
  }
  // Then each target's contributing source slabs, contiguous since splits
  // are monotone; every band is widened to the widest.
  std::vector<int> first(static_cast<size_t>(dst_res), 0);
  std::vector<int> last(static_cast<size_t>(dst_res), -1);
  for (size_t j = 0; j < first.size(); ++j) {
    for (int i = 0; i < src_res; ++i) {
      if (at(i, static_cast<int>(j)) <= 0) continue;
      if (last[j] < 0) first[j] = i;
      last[j] = i;
    }
    split.band = std::max(split.band, last[j] - first[j] + 1);
  }
  split.weights.assign(static_cast<size_t>(split.band) * dst_res, 0.0);
  for (int j = 0; j < dst_res; ++j) {
    const int start = std::min(first[j], src_res - split.band);
    split.start[static_cast<size_t>(j)] = start;
    for (int k = 0; k < split.band; ++k) {
      split.weights[static_cast<size_t>(k) * dst_res + j] = at(start + k, j);
    }
  }
  return split;
}

/// A dataset's center histogram (computed over its own extent at
/// registration) spread onto `res`^3 cells of the joint `domain`, treating
/// each source cell's count as uniformly distributed over the cell. A source
/// cell's 3-D split is the product of its per-axis splits, so each target
/// x-plane is three per-axis passes: mix the source x-planes, then spread y,
/// then z. Planes are produced one at a time into small reused buffers.
class ResampledHistogram {
 public:
  ResampledHistogram(const DatasetStats& stats, const Box& domain, int res)
      : stats_(stats),
        src_res_(stats.histogram_resolution),
        res_(res),
        x_(SplitAxis(stats.extent.lo.x, stats.extent.hi.x, src_res_,
                     domain.lo.x, domain.hi.x, res)),
        y_(SplitAxis(stats.extent.lo.y, stats.extent.hi.y, src_res_,
                     domain.lo.y, domain.hi.y, res)),
        z_(SplitAxis(stats.extent.lo.z, stats.extent.hi.z, src_res_,
                     domain.lo.z, domain.hi.z, res)),
        mixed_(static_cast<size_t>(src_res_) * src_res_),
        rows_(static_cast<size_t>(res) * src_res_) {}

  /// Writes target x-plane `jx` (res^2 cells, y-major) to `plane`. Each
  /// pass's first band term assigns and the others add, so no buffer needs
  /// clearing (0 + v == v for the non-negative terms here).
  void Plane(int jx, double* plane) {
    const size_t src = static_cast<size_t>(src_res_);
    const size_t res = static_cast<size_t>(res_);
    // x: mixed_[y][z] = sum over x of counts[x][y][z] * share(x -> jx).
    bool any = false;
    for (int k = 0; k < x_.band && !stats_.histogram.empty(); ++k) {
      const double w = x_.shares(k)[jx];
      if (w == 0) continue;
      const uint32_t* counts =
          stats_.histogram.data() + (x_.start[jx] + k) * src * src;
      if (any) {
        for (size_t yz = 0; yz < src * src; ++yz) mixed_[yz] += w * counts[yz];
      } else {
        for (size_t yz = 0; yz < src * src; ++yz) mixed_[yz] = w * counts[yz];
      }
      any = true;
    }
    if (!any) {
      std::fill(plane, plane + res * res, 0.0);
      return;
    }
    // y: rows_[jy][z] = sum over y of mixed_[y][z] * share(y -> jy).
    for (int k = 0; k < y_.band; ++k) {
      const double* wy = y_.shares(k);
      for (size_t jy = 0; jy < res; ++jy) {
        const double* in = mixed_.data() + (y_.start[jy] + k) * src;
        double* out = rows_.data() + jy * src;
        if (k == 0) {
          for (size_t z = 0; z < src; ++z) out[z] = wy[jy] * in[z];
        } else {
          for (size_t z = 0; z < src; ++z) out[z] += wy[jy] * in[z];
        }
      }
    }
    // z: plane[jy][jz] = sum over z of rows_[jy][z] * share(z -> jz).
    const int* first = z_.start.data();
    for (int k = 0; k < z_.band; ++k) {
      const double* wz = z_.shares(k);
      for (size_t jy = 0; jy < res; ++jy) {
        const double* in = rows_.data() + jy * src + k;
        double* out = plane + jy * res;
        if (k == 0) {
          for (size_t jz = 0; jz < res; ++jz) out[jz] = wz[jz] * in[first[jz]];
        } else {
          for (size_t jz = 0; jz < res; ++jz) out[jz] += wz[jz] * in[first[jz]];
        }
      }
    }
  }

 private:
  const DatasetStats& stats_;
  int src_res_;
  int res_;
  AxisSplit x_;
  AxisSplit y_;
  AxisSplit z_;
  std::vector<double> mixed_;  // src^2: the mixed source plane
  std::vector<double> rows_;   // res x src: after the y pass
};

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
  // the resampled (fractional) counts. The weight is separable, so B is
  // smoothed by three 3-tap passes: z and y within each x-plane, then x
  // across the previous, current and next planes, fused with the product.
  const size_t res_u = static_cast<size_t>(res);
  const size_t plane_cells = res_u * res_u;
  // Planes: A's, B's raw and z-smoothed scratch, B smoothed at x-1, x, x+1;
  // then one zero row.
  std::vector<double> planes(6 * plane_cells + res_u);
  const double* zero_row = planes.data() + 6 * plane_cells;
  double* a_plane = planes.data();
  double* b_raw = a_plane + plane_cells;
  double* b_z = b_raw + plane_cells;
  double* b_prev = b_z + plane_cells;
  double* b_cur = b_prev + plane_cells;
  double* b_next = b_cur + plane_cells;
  ResampledHistogram ha(a, domain, res);
  ResampledHistogram hb(b, domain, res);
  const auto smoothed_b = [&](int x, double* out) {
    hb.Plane(x, b_raw);
    // z: interior cells have both neighbours, the end cells see zero beyond
    // the grid.
    for (size_t y = 0; y < res_u; ++y) {
      const double* in = b_raw + y * res_u;
      double* row = b_z + y * res_u;
      for (size_t z = 1; z + 1 < res_u; ++z) {
        row[z] = p[2].same * in[z] + p[2].adjacent * (in[z - 1] + in[z + 1]);
      }
      row[0] = p[2].same * in[0] + p[2].adjacent * (res_u > 1 ? in[1] : 0.0);
      if (res_u > 1) {
        row[res_u - 1] =
            p[2].same * in[res_u - 1] + p[2].adjacent * in[res_u - 2];
      }
    }
    // y: a zero row stands in beyond the grid.
    for (size_t y = 0; y < res_u; ++y) {
      const double* in = b_z + y * res_u;
      const double* below = y > 0 ? in - res_u : zero_row;
      const double* above = y + 1 < res_u ? in + res_u : zero_row;
      double* row = out + y * res_u;
      for (size_t z = 0; z < res_u; ++z) {
        row[z] = p[1].same * in[z] + p[1].adjacent * (below[z] + above[z]);
      }
    }
  };

  double expected = 0;
  double peak = 0;
  size_t occupied = 0;
  smoothed_b(0, b_cur);
  for (int x = 0; x < res; ++x) {
    if (x + 1 < res) {
      smoothed_b(x + 1, b_next);
    } else {
      std::fill(b_next, b_next + plane_cells, 0.0);
    }
    ha.Plane(x, a_plane);
    for (size_t cell = 0; cell < plane_cells; ++cell) {
      const double a_count = a_plane[cell];
      if (a_count <= 0) continue;
      const double b_weighted =
          p[0].same * b_cur[cell] +
          p[0].adjacent * (b_prev[cell] + b_next[cell]);
      const double contribution = a_count * b_weighted;
      if (contribution <= 0) continue;
      expected += contribution;
      peak = std::max(peak, contribution);
      ++occupied;
    }
    std::swap(b_prev, b_cur);
    std::swap(b_cur, b_next);
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

void DatasetCatalog::ReadTree(
    DatasetHandle handle,
    const std::function<void(const DynamicRTree&)>& read) const {
  Entry* ep = entry(handle);
  Entry& e = *ep;
  MutexLock lock(e.m);
  EnsureDynamicLocked(e);
  read(e.tree);
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
