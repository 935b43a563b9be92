// OnceCache: a process-wide, thread-safe build-once/share-forever cache.
//
// The campaign layer derives several expensive immutable artifacts whose
// identity is fully captured by a string key: golden traces (analysis/
// golden_cache.h), flow stage prefixes (core/flow.h) and per-mutant results
// (analysis/mutant_cache.h). Sweep points that agree on a key must share one
// artifact; concurrent executor tasks racing for the same key must build it
// exactly once, with the losers blocking on the winner rather than
// duplicating work.
//
// Concurrency model: one mutex guards the key -> entry map and every
// entry's state — empty, building or built. The first caller to find an
// entry empty marks it building and runs the build OUTSIDE the lock, so
// builds for *different* keys proceed in parallel; callers for the *same*
// key wait on the entry's condition variable until that build finishes. A
// build that throws resets the entry to empty and wakes the waiters, so one
// of them retries instead of caching the failure. (The retry is plain
// mutex/condvar code on purpose: std::call_once cannot re-run a callable
// that threw under ThreadSanitizer's pthread_once interceptor.)
//
// Capacity: setCapacity(n) bounds the entry count with LRU eviction (a
// long-lived service sweeping an unbounded key set must not grow without
// limit — the ROADMAP eviction item). Eviction only drops completed
// entries; an in-flight build keeps its entry alive through the builder's
// own shared_ptr, so exactly-once still holds per *residency* — an evicted
// key rebuilds on its next request. Layer util::ArtifactStore underneath
// (util/artifact_store.h, getOrBuildWithStore) to turn those rebuilds into
// disk loads shared across processes.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace xlv::util {

struct OnceCacheStats {
  std::size_t hits = 0;    ///< requests served from an already-present entry
  std::size_t misses = 0;  ///< requests that inserted the entry (and built it)
  std::size_t evictions = 0;  ///< completed entries dropped by the LRU cap
  double hitRate() const noexcept {
    const std::size_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

template <class V>
class OnceCache {
 public:
  /// Return the cached value for `key`, building it via `build` on first
  /// request. `wasHit`, when non-null, reports whether this call's work was
  /// served by a build it did not run itself (a waiter on an in-flight
  /// build counts as a hit: the work is not repeated). A caller that
  /// re-runs the build because an earlier attempt threw counts as a miss.
  std::shared_ptr<const V> getOrBuild(const std::string& key,
                                      const std::function<V()>& build,
                                      bool* wasHit = nullptr) {
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      it = entries_.emplace(key, std::make_shared<Entry>()).first;
    }
    const std::shared_ptr<Entry> entry = it->second;
    entry->lastUse = ++tick_;
    // Entries with callers inside getOrBuild (the builder and its waiters)
    // are never eviction victims; the count is dropped on every exit path,
    // so a failed entry with no remaining callers becomes evictable instead
    // of pinning the map above its capacity forever.
    ++entry->activeCallers;
    entry->done.wait(lock, [&] { return !entry->building; });
    if (entry->value != nullptr) {
      --entry->activeCallers;
      ++hits_;
      entry->lastUse = ++tick_;
      if (wasHit != nullptr) *wasHit = true;
      return entry->value;
    }

    entry->building = true;
    lock.unlock();
    std::shared_ptr<const V> value;
    try {
      value = std::make_shared<const V>(build());
    } catch (...) {
      lock.lock();
      entry->building = false;
      --entry->activeCallers;
      entry->done.notify_all();
      // A failed build still inserted an entry: enforce the cap here too,
      // or a stream of distinct always-throwing keys would grow the map
      // unboundedly until some unrelated build succeeds.
      evictOverCapacityLocked(nullptr);
      throw;
    }
    lock.lock();
    entry->value = std::move(value);
    entry->building = false;
    --entry->activeCallers;
    ++misses_;
    entry->lastUse = ++tick_;
    entry->done.notify_all();
    evictOverCapacityLocked(entry);
    if (wasHit != nullptr) *wasHit = false;
    return entry->value;
  }

  /// Peek without building; null when absent or still being built.
  std::shared_ptr<const V> find(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : it->second->value;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

  /// Bound the entry count (0 = unlimited, the default). Shrinking below the
  /// current size evicts immediately, least recently used first.
  void setCapacity(std::size_t maxEntries) {
    std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = maxEntries;
    evictOverCapacityLocked(nullptr);
  }

  OnceCacheStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return OnceCacheStats{hits_, misses_, evictions_};
  }

  /// Drop all entries and reset the counters. Not linearizable with respect
  /// to concurrent getOrBuild calls (in-flight builds complete against the
  /// old entries); intended for test/bench isolation between phases.
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
  }

 private:
  /// Empty (no value, not building), building, or built (value set).
  struct Entry {
    std::shared_ptr<const V> value;
    bool building = false;
    std::condition_variable done;  ///< signalled when a build ends
    std::uint64_t lastUse = 0;
    int activeCallers = 0;  ///< callers currently inside getOrBuild
  };

  /// Drop least-recently-used entries until within capacity. `keep` (the
  /// entry just built/requested) and entries with active callers (an
  /// in-flight build, or waiters about to read the value) are never
  /// victims; if only those remain, the cache temporarily exceeds the cap
  /// rather than corrupting an in-flight build. An idle entry whose build
  /// threw (value still null, nobody inside) IS evictable — the next
  /// request re-inserts and retries it.
  void evictOverCapacityLocked(const std::shared_ptr<Entry>& keep) {
    if (capacity_ == 0) return;
    while (entries_.size() > capacity_) {
      auto victim = entries_.end();
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->second == keep || it->second->activeCallers > 0) continue;
        if (victim == entries_.end() || it->second->lastUse < victim->second->lastUse) {
          victim = it;
        }
      }
      if (victim == entries_.end()) break;
      entries_.erase(victim);
      ++evictions_;
    }
  }

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> entries_;
  std::size_t capacity_ = 0;
  std::uint64_t tick_ = 0;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
};

}  // namespace xlv::util
