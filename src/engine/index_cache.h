#ifndef TOUCH_ENGINE_INDEX_CACHE_H_
#define TOUCH_ENGINE_INDEX_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "engine/catalog.h"
#include "util/thread_annotations.h"

namespace touch {

class MetricsRegistry;

/// What kind of build artifact a cache entry holds. Distinct kinds never
/// share entries even when every other key field agrees: the TOUCH tree and
/// the INL index over the same dataset are both STR-packed RTrees, but of
/// different shapes (TOUCH's leaf capacity follows its partition count), and
/// the INL index carries an item slab too.
enum class ArtifactKind : uint8_t {
  /// An RTree serving as TOUCH's data-oriented partitioning hierarchy.
  kTouchTree = 0,
  /// A bulk-loaded STR RTree plus a slab of its items in item_ids order,
  /// for the indexed-nested-loop join.
  kInlRTree = 1,
  /// A PBSM cell directory: one dataset's sorted cell-placement list.
  kPbsmDirectory = 2,
};

/// Short stable name ("touch", "inl", "pbsm") for logs and telemetry.
const char* ArtifactKindName(ArtifactKind kind);

/// Identity of one cached artifact: the dataset it was built over *and that
/// dataset's version at build time*, the epsilon its boxes were enlarged by
/// before building (0 when the probe side carries the enlargement), the
/// artifact kind, and two kind-specific shape parameters:
///   kTouchTree / kInlRTree: (leaf capacity, fanout)
///   kPbsmDirectory:         (grid resolution, domain signature — a hash of
///                            the joint grid domain, so directories built for
///                            different partner datasets never alias)
/// Two queries that agree on every field can share the same built artifact.
/// The version field is what makes mutation safe: a post-mutation query
/// carries the bumped version, misses every stale artifact, and the stale
/// entries are reclaimed by InvalidateDataset (counted as evictions).
struct IndexCacheKey {
  DatasetHandle dataset = 0;
  /// DatasetSnapshot::version the artifact was built against.
  uint64_t version = 0;
  float epsilon = 0.0f;
  size_t shape_a = 0;
  size_t shape_b = 0;
  ArtifactKind kind = ArtifactKind::kTouchTree;

  bool operator<(const IndexCacheKey& other) const {
    return std::tie(dataset, version, epsilon, shape_a, shape_b, kind) <
           std::tie(other.dataset, other.version, other.epsilon,
                    other.shape_a, other.shape_b, other.kind);
  }
  bool operator==(const IndexCacheKey& other) const {
    return !(*this < other) && !(other < *this);
  }
};

/// Base class of everything the cache can hold. Concrete artifacts (one per
/// row of the engine's artifact-family table) are defined next to that
/// table in engine.cc; the cache only needs a size and a virtual
/// destructor. Artifacts are immutable once built and shared across
/// threads, so implementations must be safe for concurrent const access.
struct CachedArtifact {
  virtual ~CachedArtifact() = default;

  /// Exact bytes the artifact occupies (structures plus any owned box
  /// copies). Drives the byte accounting and the eviction weight's
  /// denominator; must not change after the builder returns.
  virtual size_t MemoryUsageBytes() const = 0;

  /// Wall-clock seconds the build cost (reported as build_seconds by the
  /// query that missed; cache hits report 0, the productized form of the
  /// paper's section-4.3 prebuilt-index shortcut). Also the eviction
  /// weight's numerator and the unit of Stats::cost_saved_seconds.
  double build_seconds = 0;
};

/// Thread-safe cache of built index artifacts, shared by all queries of an
/// engine. Concurrent requests for the same key build once: the first miss
/// installs a future the others block on.
///
/// Capacity: with `max_bytes > 0` the cache evicts *completed* entries once
/// the total exceeds the cap (entries still being built are never evicted).
/// The victim is the entry with the lowest build-cost density —
/// `build_seconds / MemoryUsageBytes()`, i.e. the artifact that is cheapest
/// to rebuild per byte it occupies — with ties broken least-recently-used
/// first, so equal-cost artifacts degrade to plain byte-LRU. An artifact
/// larger than the whole cap is evicted immediately after being returned:
/// it serves its one query but is not retained. Eviction only drops the
/// cache's reference — queries holding the shared_ptr keep using the
/// artifact safely.
class IndexCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// Entries dropped by the capacity policy (Clear() is not counted).
    uint64_t evictions = 0;
    size_t entries = 0;
    /// Bytes of all completed entries currently resident.
    size_t bytes = 0;
    /// The configured cap (0 = unbounded).
    size_t capacity_bytes = 0;
    /// Accumulated build_seconds of every hit: the wall-clock rebuild work
    /// the cache saved its queries so far.
    double cost_saved_seconds = 0;

    /// Hits over lookups, 0 when nothing was looked up yet.
    double HitRate() const {
      const uint64_t lookups = hits + misses;
      return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
    }
  };

  using ArtifactPtr = std::shared_ptr<const CachedArtifact>;
  using Builder = std::function<ArtifactPtr()>;

  /// `max_bytes` caps resident artifact bytes (0 = unbounded).
  explicit IndexCache(size_t max_bytes = 0) : max_bytes_(max_bytes) {}

  /// Returns the artifact for `key`, invoking `build` on a miss. `build`
  /// runs outside the cache lock, so independent keys build concurrently.
  /// The caller contract is that one key always maps to one artifact type;
  /// callers downcast with static_pointer_cast keyed on `key.kind`.
  ArtifactPtr GetOrBuild(const IndexCacheKey& key, const Builder& build)
      EXCLUDES(mutex_);

  Stats stats() const EXCLUDES(mutex_);

  /// Re-exposes the Stats snapshot through a metrics registry as sampled
  /// providers named `<prefix>hits_total`, `<prefix>misses_total`,
  /// `<prefix>evictions_total`, `<prefix>entries`, `<prefix>bytes`,
  /// `<prefix>cost_saved_seconds_total`. Providers sample
  /// at export time, so the scrape always sees current values. The caller
  /// owning both objects must RemoveProvidersWithPrefix(prefix) before this
  /// cache is destroyed (the engine does this in its destructor).
  void RegisterMetricProviders(MetricsRegistry& registry,
                               const std::string& prefix) const;

  /// Drops every *completed* artifact of `dataset` whose key version is
  /// below `current_version` — the post-mutation invalidation hook. Stale
  /// in-flight builds are left to finish (their waiters still need them)
  /// and are reclaimed by a later invalidation or capacity eviction. Each
  /// dropped entry counts as an eviction in stats()/telemetry.
  void InvalidateDataset(DatasetHandle dataset, uint64_t current_version)
      EXCLUDES(mutex_);

  /// Drops every entry.
  void Clear() EXCLUDES(mutex_);

 private:
  struct Entry {
    std::shared_future<ArtifactPtr> future;
    /// MemoryUsageBytes() of the finished artifact; 0 while building.
    size_t bytes = 0;
    /// Eviction weight: build_seconds / bytes of the finished artifact.
    double cost_density = 0;
    /// False while the builder is still running; such entries are skipped
    /// by eviction and by the completion bookkeeping of stale builders.
    bool ready = false;
    /// Guards against a builder finishing after Clear() re-created its key:
    /// completion bookkeeping only applies when the ticket still matches.
    uint64_t ticket = 0;
    std::list<IndexCacheKey>::iterator lru_pos;
  };

  /// Drops lowest-cost-density completed entries until bytes_ <= max_bytes.
  /// Lock held.
  void EvictOverCapLocked() REQUIRES(mutex_);

  const size_t max_bytes_;
  mutable Mutex mutex_;
  std::map<IndexCacheKey, Entry> entries_ GUARDED_BY(mutex_);
  /// Front = most recently used. Every map entry owns one list node.
  std::list<IndexCacheKey> lru_ GUARDED_BY(mutex_);
  uint64_t next_ticket_ GUARDED_BY(mutex_) = 0;
  uint64_t hits_ GUARDED_BY(mutex_) = 0;
  uint64_t misses_ GUARDED_BY(mutex_) = 0;
  uint64_t evictions_ GUARDED_BY(mutex_) = 0;
  double cost_saved_seconds_ GUARDED_BY(mutex_) = 0;
  size_t bytes_ GUARDED_BY(mutex_) = 0;
};

}  // namespace touch

#endif  // TOUCH_ENGINE_INDEX_CACHE_H_
