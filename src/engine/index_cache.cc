#include "engine/index_cache.h"

#include <algorithm>
#include <vector>

#include "obs/metrics.h"

namespace touch {

const char* ArtifactKindName(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kTouchTree:
      return "touch";
    case ArtifactKind::kInlRTree:
      return "inl";
    case ArtifactKind::kPbsmDirectory:
      return "pbsm";
  }
  return "unknown";
}

IndexCache::ArtifactPtr IndexCache::GetOrBuild(const IndexCacheKey& key,
                                               const Builder& build) {
  std::promise<ArtifactPtr> promise;
  std::shared_future<ArtifactPtr> future;
  uint64_t ticket = 0;
  bool hit = false;
  bool was_ready = false;
  {
    MutexLock lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      hit = true;
      // Only a hit on a *completed* entry saved its build time; a
      // single-flight waiter on an in-flight build spends the build's
      // wall-clock blocked on the future and saves nothing.
      was_ready = it->second.ready;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      future = it->second.future;
    } else {
      ++misses_;
      ticket = next_ticket_++;
      future = promise.get_future().share();
      lru_.push_front(key);
      Entry entry;
      entry.future = future;
      entry.ticket = ticket;
      entry.lru_pos = lru_.begin();
      entries_.emplace(key, std::move(entry));
    }
  }
  if (hit) {
    ArtifactPtr artifact = future.get();  // blocks while another builds
    if (was_ready) {
      MutexLock lock(mutex_);
      cost_saved_seconds_ += artifact->build_seconds;
    }
    return artifact;
  }

  ArtifactPtr artifact;
  try {
    artifact = build();
  } catch (...) {
    // Un-poison the key so later requests can retry the build; waiters
    // blocked on the future rethrow this exception. The ticket check keeps
    // us from erasing a fresh entry installed after a concurrent Clear().
    {
      MutexLock lock(mutex_);
      auto it = entries_.find(key);
      if (it != entries_.end() && it->second.ticket == ticket) {
        lru_.erase(it->second.lru_pos);
        entries_.erase(it);
      }
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  promise.set_value(artifact);
  {
    MutexLock lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.ticket == ticket) {
      it->second.bytes = artifact->MemoryUsageBytes();
      it->second.cost_density =
          artifact->build_seconds /
          static_cast<double>(std::max<size_t>(1, it->second.bytes));
      it->second.ready = true;
      bytes_ += it->second.bytes;
      EvictOverCapLocked();
    }
  }
  return artifact;
}

void IndexCache::EvictOverCapLocked() {
  if (max_bytes_ == 0 || bytes_ <= max_bytes_) return;
  // Victims: completed entries, cheapest-to-rebuild-per-byte first, ties
  // least-recently-used first. One scan + one sort under the lock, however
  // many entries the overshoot costs (an eviction burst must not rescan
  // the table per victim while every lookup waits on the mutex).
  struct Candidate {
    double cost_density;
    std::map<IndexCacheKey, Entry>::iterator entry;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(entries_.size());
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {  // LRU-tail first
    const auto entry = entries_.find(*it);
    if (entry->second.ready) {
      candidates.push_back({entry->second.cost_density, entry});
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& x, const Candidate& y) {
                     return x.cost_density < y.cost_density;
                   });
  for (const Candidate& victim : candidates) {
    if (bytes_ <= max_bytes_) return;
    bytes_ -= victim.entry->second.bytes;
    ++evictions_;
    lru_.erase(victim.entry->second.lru_pos);
    entries_.erase(victim.entry);
  }
}

IndexCache::Stats IndexCache::stats() const {
  MutexLock lock(mutex_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.entries = entries_.size();
  stats.bytes = bytes_;
  stats.capacity_bytes = max_bytes_;
  stats.cost_saved_seconds = cost_saved_seconds_;
  return stats;
}

void IndexCache::RegisterMetricProviders(MetricsRegistry& registry,
                                         const std::string& prefix) const {
  // Each provider samples a fresh Stats snapshot at export time. One
  // snapshot per metric costs a few mutex hops per scrape — nothing against
  // a scrape interval — and keeps this method a pure registration.
  const auto sample = [this](auto field) {
    return [this, field]() { return static_cast<double>(field(stats())); };
  };
  registry.SetProvider(prefix + "hits_total", MetricType::kCounter,
                       sample([](const Stats& s) { return s.hits; }));
  registry.SetProvider(prefix + "misses_total", MetricType::kCounter,
                       sample([](const Stats& s) { return s.misses; }));
  registry.SetProvider(prefix + "evictions_total", MetricType::kCounter,
                       sample([](const Stats& s) { return s.evictions; }));
  registry.SetProvider(prefix + "entries", MetricType::kGauge,
                       sample([](const Stats& s) { return s.entries; }));
  registry.SetProvider(prefix + "bytes", MetricType::kGauge,
                       sample([](const Stats& s) { return s.bytes; }));
  registry.SetProvider(
      prefix + "cost_saved_seconds_total", MetricType::kCounter,
      sample([](const Stats& s) { return s.cost_saved_seconds; }));
}

void IndexCache::InvalidateDataset(DatasetHandle dataset,
                                   uint64_t current_version) {
  MutexLock lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    const IndexCacheKey& key = it->first;
    if (key.dataset == dataset && key.version < current_version &&
        it->second.ready) {
      bytes_ -= it->second.bytes;
      ++evictions_;
      lru_.erase(it->second.lru_pos);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void IndexCache::Clear() {
  MutexLock lock(mutex_);
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
}

}  // namespace touch
