#include "engine/index_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace touch {
namespace {

/// Minimal artifact for cache-policy tests: a fixed byte size, a payload
/// identifying which build produced it, and an optional build cost driving
/// the cost-aware eviction weight.
struct TestArtifact : CachedArtifact {
  size_t bytes;
  int payload;

  TestArtifact(size_t bytes_in, int payload_in, double build_seconds_in = 0) {
    bytes = bytes_in;
    payload = payload_in;
    build_seconds = build_seconds_in;
  }
  size_t MemoryUsageBytes() const override { return bytes; }
};

IndexCacheKey Key(DatasetHandle dataset, float epsilon = 0.0f,
                  size_t shape_a = 1, size_t shape_b = 2,
                  ArtifactKind kind = ArtifactKind::kTouchTree,
                  uint64_t version = 0) {
  return IndexCacheKey{dataset, version, epsilon, shape_a, shape_b, kind};
}

IndexCache::Builder Build(size_t bytes, int payload, int* builds = nullptr,
                          double build_seconds = 0) {
  return [=]() -> IndexCache::ArtifactPtr {
    if (builds != nullptr) ++*builds;
    return std::make_shared<TestArtifact>(bytes, payload, build_seconds);
  };
}

int Payload(const IndexCache::ArtifactPtr& artifact) {
  return static_cast<const TestArtifact*>(artifact.get())->payload;
}

TEST(IndexCacheTest, HitReturnsSameArtifactAndCountsBytes) {
  IndexCache cache;
  const auto first = cache.GetOrBuild(Key(0), Build(100, 7));
  const auto second = cache.GetOrBuild(Key(0), Build(100, 8));
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(Payload(second), 7);  // the second builder never ran

  const IndexCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 100u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(IndexCacheTest, MixedKindsWithIdenticalFieldsNeverCollide) {
  IndexCache cache;
  // Same dataset, epsilon and shape — only the kind differs. Each kind must
  // get its own entry (a TOUCH tree is not an R-tree is not a directory).
  for (const ArtifactKind kind :
       {ArtifactKind::kTouchTree, ArtifactKind::kInlRTree,
        ArtifactKind::kPbsmDirectory}) {
    const auto artifact = cache.GetOrBuild(
        Key(3, 1.5f, 64, 2, kind), Build(10, static_cast<int>(kind)));
    EXPECT_EQ(Payload(artifact), static_cast<int>(kind));
  }
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().misses, 3u);

  // Re-requesting each kind hits its own entry with the right payload.
  for (const ArtifactKind kind :
       {ArtifactKind::kTouchTree, ArtifactKind::kInlRTree,
        ArtifactKind::kPbsmDirectory}) {
    const auto artifact =
        cache.GetOrBuild(Key(3, 1.5f, 64, 2, kind), Build(10, -1));
    EXPECT_EQ(Payload(artifact), static_cast<int>(kind));
  }
  EXPECT_EQ(cache.stats().hits, 3u);
}

TEST(IndexCacheTest, EvictsLeastRecentlyUsedFirst) {
  IndexCache cache(/*max_bytes=*/250);
  cache.GetOrBuild(Key(0), Build(100, 0));
  cache.GetOrBuild(Key(1), Build(100, 1));
  // Touch key 0 so key 1 becomes the LRU entry.
  cache.GetOrBuild(Key(0), Build(100, 99));

  // Inserting key 2 (total 300 > 250) must evict exactly key 1.
  cache.GetOrBuild(Key(2), Build(100, 2));
  IndexCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 200u);

  int builds_0 = 0;
  int builds_1 = 0;
  EXPECT_EQ(Payload(cache.GetOrBuild(Key(0), Build(100, -1, &builds_0))), 0);
  EXPECT_EQ(builds_0, 0);  // key 0 survived
  // Key 1 was evicted: this lookup is a miss and rebuilds (evicting key 2,
  // now the LRU entry, to stay under the cap).
  EXPECT_EQ(Payload(cache.GetOrBuild(Key(1), Build(100, 11, &builds_1))), 11);
  EXPECT_EQ(builds_1, 1);
  stats = cache.stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_LE(stats.bytes, 250u);
}

TEST(IndexCacheTest, OversizedArtifactServesItsQueryButIsNotRetained) {
  IndexCache cache(/*max_bytes=*/100);
  const auto artifact = cache.GetOrBuild(Key(0), Build(500, 42));
  EXPECT_EQ(Payload(artifact), 42);  // the requesting query still runs
  const IndexCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(IndexCacheTest, UnboundedCacheNeverEvicts) {
  IndexCache cache;  // max_bytes = 0
  for (uint32_t i = 0; i < 32; ++i) {
    cache.GetOrBuild(Key(i), Build(1 << 20, static_cast<int>(i)));
  }
  const IndexCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 32u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.capacity_bytes, 0u);
}

TEST(IndexCacheTest, FailedBuildUnpoisonsTheKey) {
  IndexCache cache;
  EXPECT_THROW(cache.GetOrBuild(Key(0),
                                []() -> IndexCache::ArtifactPtr {
                                  throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  EXPECT_EQ(cache.stats().entries, 0u);
  // The key is retryable and byte accounting was untouched.
  EXPECT_EQ(Payload(cache.GetOrBuild(Key(0), Build(50, 5))), 5);
  EXPECT_EQ(cache.stats().bytes, 50u);
}

TEST(IndexCacheTest, ConcurrentGetOrBuildKeepsByteAccountingExact) {
  constexpr size_t kMaxBytes = 4 * 64;  // room for 4 of 8 distinct keys
  constexpr int kThreads = 8;
  constexpr int kIterations = 200;
  IndexCache cache(kMaxBytes);
  std::atomic<int> total_builds{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &total_builds, t] {
      for (int i = 0; i < kIterations; ++i) {
        const uint32_t dataset = static_cast<uint32_t>((i * 7 + t) % 8);
        const auto artifact = cache.GetOrBuild(
            Key(dataset), [&total_builds, dataset]() -> IndexCache::ArtifactPtr {
              total_builds.fetch_add(1, std::memory_order_relaxed);
              return std::make_shared<TestArtifact>(
                  64, static_cast<int>(dataset));
            });
        ASSERT_EQ(Payload(artifact), static_cast<int>(dataset));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const IndexCache::Stats stats = cache.stats();
  // Bytes must equal exactly 64 per resident entry — no drift from the
  // concurrent insert/evict traffic — and never exceed the cap.
  EXPECT_EQ(stats.bytes, stats.entries * 64u);
  EXPECT_LE(stats.bytes, kMaxBytes);
  // Every miss built exactly once; hits + misses = every lookup.
  EXPECT_EQ(stats.misses, static_cast<uint64_t>(total_builds.load()));
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kIterations);
  // Evictions happened (8 keys cannot fit in 4 slots) and are counted.
  EXPECT_GT(stats.evictions, 0u);
}

TEST(IndexCacheTest, CostAwareEvictionKeepsExpensiveBuildsOverRecentCheapOnes) {
  // Same bytes, different build cost. Pure LRU would evict the *expensive*
  // artifact (it is the least recently used); the cost-aware weight
  // (build_seconds / bytes) evicts the cheap one instead — it can be
  // rebuilt for free, the expensive one cannot.
  IndexCache cache(/*max_bytes=*/250);
  cache.GetOrBuild(Key(0), Build(100, 0, nullptr, /*build_seconds=*/1.0));
  cache.GetOrBuild(Key(1), Build(100, 1, nullptr, /*build_seconds=*/0.0));
  cache.GetOrBuild(Key(1), Build(100, -1));  // touch: key 0 is now LRU

  cache.GetOrBuild(Key(2), Build(100, 2, nullptr, /*build_seconds=*/0.5));
  EXPECT_EQ(cache.stats().evictions, 1u);

  int builds_0 = 0;
  int builds_1 = 0;
  // The expensive key 0 survived despite being least recently used...
  EXPECT_EQ(Payload(cache.GetOrBuild(Key(0), Build(100, -1, &builds_0))), 0);
  EXPECT_EQ(builds_0, 0);
  // ...and the zero-cost key 1 was the victim.
  EXPECT_EQ(Payload(cache.GetOrBuild(Key(1), Build(100, 11, &builds_1))), 11);
  EXPECT_EQ(builds_1, 1);
}

TEST(IndexCacheTest, HitsAccumulateCostSavedTelemetry) {
  IndexCache cache;
  cache.GetOrBuild(Key(0), Build(100, 0, nullptr, /*build_seconds=*/2.0));
  EXPECT_DOUBLE_EQ(cache.stats().cost_saved_seconds, 0.0);
  cache.GetOrBuild(Key(0), Build(100, -1));
  cache.GetOrBuild(Key(0), Build(100, -1));
  EXPECT_DOUBLE_EQ(cache.stats().cost_saved_seconds, 4.0);
}

TEST(IndexCacheTest, ClearDropsEverythingWithoutCountingEvictions) {
  IndexCache cache(/*max_bytes=*/1000);
  cache.GetOrBuild(Key(0), Build(100, 0));
  cache.GetOrBuild(Key(1), Build(100, 1));
  cache.Clear();
  const IndexCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  // Lookups after Clear rebuild cleanly.
  EXPECT_EQ(Payload(cache.GetOrBuild(Key(0), Build(100, 9))), 9);
}

}  // namespace
}  // namespace touch
