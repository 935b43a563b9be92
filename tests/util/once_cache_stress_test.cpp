// OnceCache under contention: N threads x M keys hammering getOrBuild with
// a throwing first build per key — exactly-once successful builds,
// retry-after-throw, and ledger consistency (hits + misses == successful
// calls).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

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

}  // namespace
}  // namespace xlv::util
