// The sensor module caches under concurrent first use: campaign threads
// insert sensors in parallel, so the first calls for one key race. Every
// caller must get the same module instance (and the cache must not tear —
// run this binary under -fsanitize=thread to see the race it guards).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "sensors/counter_monitor.h"
#include "sensors/razor.h"

namespace xlv::sensors {
namespace {

constexpr int kThreads = 8;

/// Release kThreads threads at once into `build` and collect what each got.
template <class Build>
std::vector<const ir::Module*> concurrentFirstCalls(Build build) {
  std::vector<const ir::Module*> got(kThreads, nullptr);
  std::vector<std::shared_ptr<const ir::Module>> keep(kThreads);
  std::atomic<int> waiting{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      keep[t] = build();
      got[t] = keep[t].get();
    });
  }
  for (auto& th : threads) th.join();
  return got;
}

TEST(SensorModuleCache, ConcurrentFirstRazorCallsShareOneInstance) {
  // A width no other test builds, so these really are the first calls.
  const auto got = concurrentFirstCalls([] { return buildRazor(37); });
  for (const ir::Module* m : got) {
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m, got.front());
  }
  EXPECT_EQ(buildRazor(37).get(), got.front());
}

TEST(SensorModuleCache, ConcurrentFirstCounterCallsShareOneInstance) {
  const CounterConfig cfg{11, 5, 3};
  const auto got = concurrentFirstCalls([&] { return buildCounterMonitor(cfg); });
  for (const ir::Module* m : got) {
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m, got.front());
  }
  EXPECT_EQ(buildCounterMonitor(cfg).get(), got.front());
}

}  // namespace
}  // namespace xlv::sensors
