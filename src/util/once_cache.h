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
// A caller with other work to do need not wait: getOrBuild's `busy` probe
// returns null at once when another caller is building the key — nothing
// built, nothing counted — so the caller can set the key aside, do that
// other work and ask again (blocking) later, when the key is most likely
// built. The mutation analysis walks its mutant classes this way
// (analysis/mutation_analysis.cpp).
//
// stats() counts hits and misses, and the calls that blocked on a build in
// flight with the time they spent blocked, so a caller can see how long its
// threads waited without patching the cache.
//
// Entries live until clear(). Layer util::ArtifactStore underneath
// (util/artifact_store.h, getOrBuildWithStore) to share builds across
// processes.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "util/timer.h"

namespace xlv::util {

struct OnceCacheStats {
  std::size_t hits = 0;    ///< requests served from an already-present entry
  std::size_t misses = 0;  ///< requests that inserted the entry (and built it)
  /// Requests that found their key building and blocked until the build
  /// ended, and the seconds they spent blocked. A hit on a built key and a
  /// busy probe count nothing here.
  std::size_t waits = 0;
  double waitSeconds = 0.0;
};

template <class V>
class OnceCache {
 public:
  /// Return the cached value for `key`, building it via `build` on first
  /// request. `wasHit`, when non-null, reports whether this call's work was
  /// served by a build it did not run itself (a waiter on an in-flight
  /// build counts as a hit: the work is not repeated). A caller that
  /// re-runs the build because an earlier attempt threw counts as a miss.
  /// Either way, a call that blocked on a build in flight also counts one
  /// wait.
  ///
  /// `busy`, when non-null, makes the call a probe that never waits: if
  /// another caller is building `key`, it sets *busy and returns null at
  /// once, without building and without counting a hit, a miss or a wait.
  /// Otherwise it clears *busy and serves the key as above.
  std::shared_ptr<const V> getOrBuild(const std::string& key,
                                      const std::function<V()>& build,
                                      bool* wasHit = nullptr, bool* busy = nullptr) {
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      it = entries_.emplace(key, std::make_shared<Entry>()).first;
    }
    const std::shared_ptr<Entry> entry = it->second;
    if (busy != nullptr) {
      *busy = entry->building;
      if (*busy) return nullptr;
    }
    if (entry->building) {
      const Timer blocked;
      entry->done.wait(lock, [&] { return !entry->building; });
      ++waits_;
      waitSeconds_ += blocked.seconds();
    }
    if (entry->value != nullptr) {
      ++hits_;
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
      entry->done.notify_all();
      throw;
    }
    lock.lock();
    entry->value = std::move(value);
    entry->building = false;
    ++misses_;
    entry->done.notify_all();
    if (wasHit != nullptr) *wasHit = false;
    return entry->value;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

  OnceCacheStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return OnceCacheStats{hits_, misses_, waits_, waitSeconds_};
  }

  /// Drop all entries and reset the counters. Not linearizable with respect
  /// to concurrent getOrBuild calls (in-flight builds complete against the
  /// old entries); intended for test/bench isolation between phases.
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    hits_ = 0;
    misses_ = 0;
    waits_ = 0;
    waitSeconds_ = 0.0;
  }

 private:
  /// Empty (no value, not building), building, or built (value set).
  struct Entry {
    std::shared_ptr<const V> value;
    bool building = false;
    std::condition_variable done;  ///< signalled when a build ends
  };

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> entries_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t waits_ = 0;
  double waitSeconds_ = 0.0;
};

}  // namespace xlv::util
