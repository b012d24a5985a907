#include "index/str.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/worker_pool.h"

namespace touch {
namespace {

// Box `id`'s center along `axis` packed above the id, so that ascending
// keys are ascending (center, id): the float's bits are mapped to an
// unsigned integer of the same order (negatives flipped whole, positives
// with the sign bit set). -0.0 becomes +0.0 first; the two compare equal,
// so their tie is broken by id like any other.
uint64_t CenterKey(const Box& box, int axis, uint32_t id) {
  float center = box.lo[axis] + box.hi[axis];
  if (center == 0.0f) center = 0.0f;
  uint32_t bits = std::bit_cast<uint32_t>(center);
  bits = (bits & 0x80000000u) != 0 ? ~bits : bits | 0x80000000u;
  return uint64_t{bits} << 32 | id;
}

// Below this many keys a comparison sort beats the radix sort's histograms.
constexpr size_t kRadixMinKeys = 1024;

// Sorts `keys` ascending by their 8-bit digits first_digit..7 with a stable
// LSD radix sort, skipping every digit that is the same in all keys. `tmp`
// is scratch of the same size; returns whichever of the two holds the
// result.
std::span<const uint64_t> RadixSort(std::span<uint64_t> keys,
                                    std::span<uint64_t> tmp,
                                    int first_digit) {
  uint32_t counts[8][256] = {};
  for (const uint64_t key : keys) {
    for (int digit = first_digit; digit < 8; ++digit) {
      ++counts[digit][(key >> (8 * digit)) & 0xff];
    }
  }
  uint64_t* src = keys.data();
  uint64_t* dst = tmp.data();
  const size_t n = keys.size();
  for (int digit = first_digit; digit < 8; ++digit) {
    const int shift = 8 * digit;
    uint32_t* count = counts[digit];
    if (count[(src[0] >> shift) & 0xff] == n) continue;
    uint32_t sum = 0;
    for (int bucket = 0; bucket < 256; ++bucket) {
      const uint32_t c = count[bucket];
      count[bucket] = sum;
      sum += c;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[count[(src[i] >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  return std::span<const uint64_t>(src, n);
}

// Sorts `ids` by box center along `axis`, ties by id. `scratch` is reused
// across calls on one thread.
void SortByCenter(std::span<const Box> boxes, std::span<uint32_t> ids,
                  int axis, std::vector<uint64_t>& scratch) {
  const size_t n = ids.size();
  if (scratch.size() < 2 * n) scratch.resize(2 * n);
  const std::span<uint64_t> keys(scratch.data(), n);
  bool ids_ascending = true;
  for (size_t i = 0; i < n; ++i) {
    keys[i] = CenterKey(boxes[ids[i]], axis, ids[i]);
    ids_ascending = ids_ascending && (i == 0 || ids[i - 1] < ids[i]);
  }
  std::span<const uint64_t> sorted = keys;
  if (n < kRadixMinKeys) {
    std::sort(keys.begin(), keys.end());
  } else {
    // Keys already in id order need only a stable sort by center: the low
    // four (id) digits then sort nothing.
    sorted = RadixSort(keys, std::span<uint64_t>(scratch.data() + n, n),
                       ids_ascending ? 4 : 0);
  }
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<uint32_t>(sorted[i]);
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

  const bool fork = pool != nullptr && n >= kMinForkBoxes;
  std::vector<std::vector<uint64_t>> scratch(
      ForkJoinSlots(fork ? pool : nullptr));
  SortByCenter(boxes, out.order, /*axis=*/0, scratch[0]);
  // Each x-slab's y-sort and its tiles' z-sorts touch only the slab's own
  // range, so slabs are independent fork-join chunks; ids break ties, so
  // the order is the same however the slabs are spread over threads.
  const size_t slab_y = bucket_size * s;
  const size_t slabs = (n + slab_x - 1) / slab_x;
  const std::span<uint32_t> order(out.order);
  ForkJoin(fork ? pool : nullptr, slabs,
           [&](size_t slab, size_t slot) {
             const size_t x0 = slab * slab_x;
             const size_t x1 = std::min(n, x0 + slab_x);
             SortByCenter(boxes, order.subspan(x0, x1 - x0), /*axis=*/1,
                          scratch[slot]);
             for (size_t y0 = x0; y0 < x1; y0 += slab_y) {
               const size_t y1 = std::min(x1, y0 + slab_y);
               SortByCenter(boxes, order.subspan(y0, y1 - y0), /*axis=*/2,
                            scratch[slot]);
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
