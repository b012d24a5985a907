// EXPECT-VIOLATION: raw-thread
// Fixture: a slab join that spawns its own threads instead of borrowing a
// WorkerPool's. Its workers escape the pool's shutdown ordering and queue
// metrics, and several threads now emit into one collector.
#include <future>
#include <thread>
#include <vector>

namespace touch {

int SlabJoin(int slab);

int SpawningJoin(int slabs) {
  std::vector<std::thread> workers;
  std::vector<int> counts(slabs, 0);
  for (int s = 0; s < slabs; ++s) {
    workers.emplace_back([&counts, s] { counts[s] = SlabJoin(s); });
  }
  for (std::thread& worker : workers) worker.join();
  std::future<int> last = std::async(SlabJoin, slabs);
  int total = last.get();
  for (int count : counts) total += count;
  return total;
}

}  // namespace touch
