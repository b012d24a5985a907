// EXPECT-VIOLATION: emit-under-lock
// Fixture: a parallel join kernel whose workers flush their buffered pairs
// into the caller's collector under a kernel-local mutex. The collector is
// user code, so it runs with the kernel's lock held; kernels must instead
// hand the pairs to one emitting thread.
#include <utility>
#include <vector>

#include "util/thread_annotations.h"

namespace touch {

class ResultCollector {
 public:
  virtual ~ResultCollector() = default;
  virtual void Emit(int a, int b) = 0;
};

void FlushPending(std::vector<std::pair<int, int>>& pending, Mutex& out_mutex,
                  ResultCollector& out) {
  if (!pending.empty()) {
    const MutexLock lock(out_mutex);
    for (const auto& [a_id, b_id] : pending) out.Emit(a_id, b_id);
    pending.clear();
  }
}

}  // namespace touch
