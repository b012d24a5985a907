#ifndef TOUCH_UTIL_MEMORY_H_
#define TOUCH_UTIL_MEMORY_H_

#include <cstddef>
#include <vector>

namespace touch {

/// Analytic memory-footprint helpers.
///
/// The paper compares algorithms by the memory their auxiliary structures
/// occupy. We account for this explicitly (capacity-based, deterministic)
/// instead of interposing on malloc, so numbers are comparable across
/// algorithms and runs.

/// Bytes held by a vector's heap allocation (capacity, not size).
template <typename T>
size_t VectorBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace touch

#endif  // TOUCH_UTIL_MEMORY_H_
