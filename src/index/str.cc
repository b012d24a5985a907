#include "index/str.h"

#include <algorithm>
#include <cmath>

#include "util/worker_pool.h"

namespace touch {
namespace {

// Sorts ids[begin, end) by box center along `axis`.
void SortByCenter(std::span<const Box> boxes, std::vector<uint32_t>& ids,
                  size_t begin, size_t end, int axis) {
  std::sort(ids.begin() + static_cast<ptrdiff_t>(begin),
            ids.begin() + static_cast<ptrdiff_t>(end),
            [boxes, axis](uint32_t a, uint32_t b) {
              const float ca = boxes[a].lo[axis] + boxes[a].hi[axis];
              const float cb = boxes[b].lo[axis] + boxes[b].hi[axis];
              if (ca != cb) return ca < cb;
              return a < b;  // deterministic tie-break
            });
}

// Below this many boxes the slab sorts are too short to be worth waking a
// helper for.
constexpr size_t kMinForkBoxes = 16384;

}  // namespace

StrPartitioning StrPartition(std::span<const Box> boxes, size_t bucket_size,
                             WorkerPool* pool, HelperSet* helpers) {
  StrPartitioning out;
  const size_t n = boxes.size();
  if (bucket_size == 0) bucket_size = 1;
  out.order.resize(n);
  for (size_t i = 0; i < n; ++i) out.order[i] = static_cast<uint32_t>(i);
  if (n == 0) {
    out.bucket_begin.push_back(0);
    return out;
  }

  const size_t num_buckets = (n + bucket_size - 1) / bucket_size;
  // S slabs per dimension, S = ceil(P^(1/3)).
  const size_t s = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(std::cbrt(static_cast<double>(num_buckets)) - 1e-9)));
  const size_t slab_x = bucket_size * s * s;  // objects per x-slab

  SortByCenter(boxes, out.order, 0, n, /*axis=*/0);
  // Each x-slab's y-sort and its tiles' z-sorts touch only the slab's own
  // range, so slabs are independent fork-join chunks; ids break ties, so
  // the order is the same however the slabs are spread over threads.
  const size_t slab_y = bucket_size * s;
  const size_t slabs = (n + slab_x - 1) / slab_x;
  const bool fork = pool != nullptr && n >= kMinForkBoxes;
  ForkJoin(fork ? pool : nullptr, slabs,
           [&](size_t slab, size_t /*slot*/) {
             const size_t x0 = slab * slab_x;
             const size_t x1 = std::min(n, x0 + slab_x);
             SortByCenter(boxes, out.order, x0, x1, /*axis=*/1);
             for (size_t y0 = x0; y0 < x1; y0 += slab_y) {
               SortByCenter(boxes, out.order, y0, std::min(x1, y0 + slab_y),
                            /*axis=*/2);
             }
           },
           helpers);
  out.bucket_begin.push_back(0);
  for (size_t x0 = 0; x0 < n; x0 += slab_x) {
    const size_t x1 = std::min(n, x0 + slab_x);
    for (size_t y0 = x0; y0 < x1; y0 += slab_y) {
      const size_t y1 = std::min(x1, y0 + slab_y);
      for (size_t z0 = y0; z0 < y1; z0 += bucket_size) {
        const size_t z1 = std::min(y1, z0 + bucket_size);
        out.bucket_begin.push_back(static_cast<uint32_t>(z1));
      }
    }
  }
  return out;
}

Box BucketMbr(std::span<const Box> boxes, std::span<const uint32_t> ids) {
  Box mbr = Box::Empty();
  for (uint32_t id : ids) mbr.ExpandToContain(boxes[id]);
  return mbr;
}

}  // namespace touch
