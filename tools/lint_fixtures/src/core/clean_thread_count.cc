// EXPECT-CLEAN
// Fixture: sizing work from the hardware thread count starts no thread, so
// static members of std::thread stay allowed outside the worker pool.
#include <algorithm>
#include <thread>

namespace touch {

int HelperCount(int requested) {
  const int hardware =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return std::clamp(requested, 1, hardware) - 1;
}

}  // namespace touch
