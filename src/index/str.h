#ifndef TOUCH_INDEX_STR_H_
#define TOUCH_INDEX_STR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "geom/box.h"

namespace touch {

class HelperSet;
class WorkerPool;

/// Result of Sort-Tile-Recursive packing: a permutation of the input ids
/// grouped into consecutive buckets.
///
/// Bucket i consists of `order[bucket_begin[i] .. bucket_begin[i+1])`;
/// `bucket_begin` has NumBuckets()+1 entries (last one = input size).
struct StrPartitioning {
  std::vector<uint32_t> order;
  std::vector<uint32_t> bucket_begin;

  size_t NumBuckets() const {
    return bucket_begin.empty() ? 0 : bucket_begin.size() - 1;
  }

  /// Ids of bucket `i`.
  std::span<const uint32_t> Bucket(size_t i) const {
    return std::span<const uint32_t>(order).subspan(
        bucket_begin[i], bucket_begin[i + 1] - bucket_begin[i]);
  }
};

/// Sort-Tile-Recursive packing (Leutenegger et al., ICDE'97) of 3D boxes into
/// buckets of at most `bucket_size` objects.
///
/// Sorts by x-center into vertical slabs, re-sorts each slab by y-center into
/// tiles, re-sorts each tile by z-center and chops it into buckets. STR
/// "typically produces leaf nodes with the smallest MBRs" (paper section 5.1)
/// which is why both the R-tree bulk loader and TOUCH's partitioning phase
/// use it.
///
/// With a `pool`, the per-x-slab y/z sorts of large inputs run as
/// fork-join chunks on its idle workers (recorded in `helpers`); the
/// partitioning is identical either way.
StrPartitioning StrPartition(std::span<const Box> boxes, size_t bucket_size,
                             WorkerPool* pool = nullptr,
                             HelperSet* helpers = nullptr);

/// MBR of a bucket of object ids.
Box BucketMbr(std::span<const Box> boxes, std::span<const uint32_t> ids);

}  // namespace touch

#endif  // TOUCH_INDEX_STR_H_
