// OnceCache under contention: N threads x M keys hammering getOrBuild with
// a throwing first build per key — exactly-once successful builds,
// retry-after-throw, and ledger consistency (hits + misses == successful
// calls). And the busy probe: a key another thread is building returns
// null at once, builds nothing, counts nothing and touches no store. A
// caller that blocks on a build in flight counts one wait; a hit and a
// probe count none.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/artifact_store.h"
#include "util/once_cache.h"

namespace xlv::util {
namespace {

TEST(OnceCacheStress, ExactlyOnceBuildsWithThrowingFirstAttempt) {
  constexpr int kThreads = 8;
  constexpr int kKeys = 24;
  constexpr int kRounds = 3;

  OnceCache<int> cache;
  std::vector<std::unique_ptr<std::atomic<int>>> attempts;     // builds started
  std::vector<std::unique_ptr<std::atomic<int>>> successes;    // builds returned
  std::vector<std::unique_ptr<std::atomic<bool>>> threwOnce;   // first-attempt poison
  for (int k = 0; k < kKeys; ++k) {
    attempts.push_back(std::make_unique<std::atomic<int>>(0));
    successes.push_back(std::make_unique<std::atomic<int>>(0));
    threwOnce.push_back(std::make_unique<std::atomic<bool>>(false));
  }

  std::atomic<int> successfulCalls{0};
  std::atomic<int> caughtThrows{0};
  std::atomic<int> wrongValues{0};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kKeys; ++i) {
          // Different traversal order per thread maximizes cross-key races.
          const int k = (i * 7 + t * 3 + round) % kKeys;
          const std::string key = "key-" + std::to_string(k);
          // Retry until served: the first build of each key throws, and
          // call_once must hand the build to a later caller, never cache
          // the failure.
          for (;;) {
            try {
              auto v = cache.getOrBuild(key, [&]() -> int {
                attempts[k]->fetch_add(1);
                if (!threwOnce[k]->exchange(true)) {
                  throw std::runtime_error("first build of " + key + " fails");
                }
                successes[k]->fetch_add(1);
                return 1000 + k;
              });
              successfulCalls.fetch_add(1);
              if (v == nullptr || *v != 1000 + k) wrongValues.fetch_add(1);
              break;
            } catch (const std::runtime_error&) {
              caughtThrows.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(0, wrongValues.load());
  int totalAttempts = 0;
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(1, successes[k]->load()) << "key " << k << " must build exactly once";
    // One throwing attempt + one successful retry, no more.
    EXPECT_EQ(2, attempts[k]->load()) << "key " << k;
    totalAttempts += attempts[k]->load();
  }
  EXPECT_EQ(kKeys, caughtThrows.load()) << "each key throws exactly one caller";

  // Ledger consistency: every *successful* call is exactly one hit or one
  // miss; misses == successful builds (throwing attempts count neither).
  const OnceCacheStats stats = cache.stats();
  EXPECT_EQ(static_cast<std::size_t>(kKeys), stats.misses);
  EXPECT_EQ(static_cast<std::size_t>(successfulCalls.load()), stats.hits + stats.misses);
  EXPECT_EQ(static_cast<std::size_t>(kThreads * kRounds * kKeys), stats.hits + stats.misses);
  EXPECT_EQ(static_cast<std::size_t>(kKeys), cache.size());
  (void)totalAttempts;
}

/// Holds one key in flight: a thread runs getOrBuild(key) with a build
/// that reports it has started, then waits on a latch until finish() and
/// returns `value` (or throws, with `fails`). The constructor returns once
/// the build is running.
class HeldBuild {
 public:
  HeldBuild(OnceCache<int>& cache, const std::string& key, int value, bool fails = false)
      : thread_([this, &cache, key, value, fails] {
          try {
            cache.getOrBuild(key, [&]() -> int {
              std::unique_lock<std::mutex> lock(mu_);
              started_ = true;
              cv_.notify_all();
              cv_.wait(lock, [&] { return released_; });
              if (fails) throw std::runtime_error("held build fails");
              return value;
            });
          } catch (const std::runtime_error&) {
          }
        }) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return started_; });
  }
  ~HeldBuild() {
    if (thread_.joinable()) finish();
  }
  HeldBuild(const HeldBuild&) = delete;
  HeldBuild& operator=(const HeldBuild&) = delete;

  /// Opens the latch and waits until the build has returned or thrown.
  void finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool started_ = false;
  bool released_ = false;
  std::thread thread_;  // last: starts once the members above exist
};

TEST(OnceCacheProbe, ABusyKeyReturnsNullWithoutWaitingBuildingOrCounting) {
  OnceCache<int> cache;
  HeldBuild held(cache, "k", 7);
  int builds = 0;
  const auto build = [&] { return ++builds; };
  bool wasHit = true, busy = false;
  EXPECT_EQ(nullptr, cache.getOrBuild("k", build, &wasHit, &busy));
  EXPECT_TRUE(busy);
  EXPECT_EQ(0, builds);
  EXPECT_EQ(0u, cache.stats().hits);
  EXPECT_EQ(0u, cache.stats().misses);

  // A free key is no different under the probe: it is built, as a miss.
  const auto other = cache.getOrBuild("other", build, &wasHit, &busy);
  ASSERT_NE(nullptr, other);
  EXPECT_FALSE(busy);
  EXPECT_FALSE(wasHit);
  EXPECT_EQ(1, builds);
  EXPECT_EQ(1u, cache.stats().misses);
}

TEST(OnceCacheProbe, AfterTheBuildFinishesTheProbeIsAHit) {
  OnceCache<int> cache;
  HeldBuild held(cache, "k", 7);
  held.finish();
  int builds = 0;
  bool wasHit = false, busy = true;
  const auto v = cache.getOrBuild("k", [&] { return ++builds; }, &wasHit, &busy);
  ASSERT_NE(nullptr, v);
  EXPECT_EQ(7, *v);
  EXPECT_FALSE(busy);
  EXPECT_TRUE(wasHit);
  EXPECT_EQ(0, builds);
  EXPECT_EQ(1u, cache.stats().hits);
  EXPECT_EQ(1u, cache.stats().misses);
}

TEST(OnceCacheProbe, AfterABuildThrowsTheProbeClaimsTheKeyAsAMiss) {
  OnceCache<int> cache;
  HeldBuild held(cache, "k", 7, /*fails=*/true);
  bool wasHit = true, busy = false;
  EXPECT_EQ(nullptr, cache.getOrBuild("k", [] { return 0; }, &wasHit, &busy));
  EXPECT_TRUE(busy);
  held.finish();

  int builds = 0;
  const auto v = cache.getOrBuild("k", [&] { return ++builds, 9; }, &wasHit, &busy);
  ASSERT_NE(nullptr, v);
  EXPECT_EQ(9, *v);
  EXPECT_FALSE(busy);
  EXPECT_FALSE(wasHit);
  EXPECT_EQ(1, builds);
  EXPECT_EQ(0u, cache.stats().hits);
  EXPECT_EQ(1u, cache.stats().misses);
}

TEST(OnceCacheWaits, ACallerThatBlocksOnABuildInFlightCountsOneWait) {
  OnceCache<int> cache;
  HeldBuild held(cache, "k", 7);
  std::atomic<bool> calling{false};
  std::shared_ptr<const int> served;
  bool wasHit = false;
  std::thread waiter([&] {
    calling = true;
    served = cache.getOrBuild("k", [] { return 0; }, &wasHit);
  });
  while (!calling) std::this_thread::yield();
  // The waiter only has to take the cache's lock to find the key building.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(0u, cache.stats().waits);
  held.finish();
  waiter.join();
  ASSERT_NE(nullptr, served);
  EXPECT_EQ(7, *served);
  EXPECT_TRUE(wasHit);
  OnceCacheStats stats = cache.stats();
  EXPECT_EQ(1u, stats.waits);
  EXPECT_GT(stats.waitSeconds, 0.0);
  EXPECT_EQ(1u, stats.hits);
  EXPECT_EQ(1u, stats.misses);

  // A hit on the built key and a busy probe on another key in flight block
  // on nothing and count no wait.
  ASSERT_NE(nullptr, cache.getOrBuild("k", [] { return 0; }));
  HeldBuild other(cache, "other", 8);
  bool busy = false;
  EXPECT_EQ(nullptr, cache.getOrBuild("other", [] { return 0; }, nullptr, &busy));
  EXPECT_TRUE(busy);
  other.finish();
  stats = cache.stats();
  EXPECT_EQ(1u, stats.waits);
  EXPECT_EQ(2u, stats.hits);
  EXPECT_EQ(2u, stats.misses);

  cache.clear();
  EXPECT_EQ(0u, cache.stats().waits);
  EXPECT_EQ(0.0, cache.stats().waitSeconds);
}

TEST(OnceCacheProbe, ABusyKeyReadsAndWritesNothingInTheStore) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("xlv-once-probe-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  {
    ArtifactStore store(ArtifactStoreConfig{dir.string(), 0});
    // The key is on disk, so a read would show as a store hit.
    store.store("d", "k", "5");
    store.resetStats();
    OnceCache<int> mem;
    HeldBuild held(mem, "k", 7);

    int builds = 0, encodes = 0, decodes = 0;
    const std::function<int()> build = [&] { return ++builds; };
    const std::function<std::string(const int&)> encode = [&](const int& v) {
      ++encodes;
      return std::to_string(v);
    };
    const std::function<int(std::string_view)> decode = [&](std::string_view bytes) {
      ++decodes;
      return std::stoi(std::string(bytes));
    };
    bool wasHit = true, diskHit = true, busy = false;
    EXPECT_EQ(nullptr, getOrBuildWithStore<int>(mem, &store, "d", "k", build, encode, decode,
                                                &wasHit, &diskHit, &busy));
    EXPECT_TRUE(busy);
    EXPECT_FALSE(diskHit);
    EXPECT_EQ(0, builds);
    EXPECT_EQ(0, encodes);
    EXPECT_EQ(0, decodes);
    const ArtifactStoreStats s = store.stats();
    EXPECT_EQ(0u, s.hits);
    EXPECT_EQ(0u, s.misses);
    EXPECT_EQ(0u, s.stores);
    EXPECT_EQ(0u, mem.stats().hits + mem.stats().misses);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace xlv::util
