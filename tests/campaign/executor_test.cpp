// Executor unit tests: task coverage, deterministic merge order, serial
// purity, exception propagation, thread-count resolution, and nested runs
// sharing the outermost run's pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/executor.h"
#include "util/once_cache.h"

namespace xlv::campaign {
namespace {

TEST(Executor, RunsEveryTaskExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    Executor ex(ExecutorConfig{threads});
    constexpr std::size_t kTasks = 250;
    std::vector<std::atomic<int>> hits(kTasks);
    ex.run(kTasks, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kTasks; ++i) {
      EXPECT_EQ(1, hits[i].load()) << "task " << i << " with " << threads << " threads";
    }
  }
}

TEST(Executor, MapMergesInTaskIdOrder) {
  for (int threads : {1, 3, 8}) {
    Executor ex(ExecutorConfig{threads});
    const std::vector<int> out =
        ex.map<int>(100, [](std::size_t i) { return static_cast<int>(i) * 7; });
    ASSERT_EQ(100u, out.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(static_cast<int>(i) * 7, out[i]) << threads << " threads";
    }
  }
}

TEST(Executor, SingleThreadRunsInlineInIndexOrder) {
  Executor ex(ExecutorConfig{1});
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  ex.run(20, [&](std::size_t i) {
    EXPECT_EQ(caller, std::this_thread::get_id());
    order.push_back(i);
  });
  ASSERT_EQ(20u, order.size());
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(i, order[i]);
}

TEST(Executor, EmptyRunIsANoop) {
  Executor ex(ExecutorConfig{4});
  bool called = false;
  ex.run(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Executor, PropagatesTaskException) {
  for (int threads : {1, 4}) {
    Executor ex(ExecutorConfig{threads});
    EXPECT_THROW(
        ex.run(16,
               [](std::size_t i) {
                 if (i == 5) throw std::runtime_error("task 5 failed");
               }),
        std::runtime_error)
        << threads << " threads";
  }
}

TEST(Executor, RethrowsLowestIndexExceptionAtAnyThreadCount) {
  // Tasks 3 and 11 both fail; the reported failure must be task 3's,
  // matching what the serial loop would throw first.
  for (int threads : {1, 2, 8}) {
    Executor ex(ExecutorConfig{threads});
    std::string message;
    try {
      ex.run(16, [](std::size_t i) {
        if (i == 3) throw std::runtime_error("task 3 failed");
        if (i == 11) throw std::runtime_error("task 11 failed");
      });
      FAIL() << "expected an exception with " << threads << " threads";
    } catch (const std::runtime_error& e) {
      message = e.what();
    }
    EXPECT_EQ("task 3 failed", message) << threads << " threads";
  }
}

TEST(Executor, ExplicitThreadCountWins) {
  EXPECT_EQ(3, Executor(ExecutorConfig{3}).threads());
  EXPECT_EQ(1, Executor(ExecutorConfig{1}).threads());
}

TEST(Executor, EnvOverrideDrivesAutoThreadCount) {
  ASSERT_EQ(0, setenv("XLV_THREADS", "5", 1));
  EXPECT_EQ(5, resolveThreadCount(0));
  EXPECT_EQ(2, resolveThreadCount(2)) << "explicit request beats the env override";

  ASSERT_EQ(0, setenv("XLV_THREADS", "not-a-number", 1));
  EXPECT_THROW(resolveThreadCount(0), std::invalid_argument) << "garbage env must not run";
  EXPECT_EQ(2, resolveThreadCount(2)) << "an explicit request never reads the env";

  ASSERT_EQ(0, unsetenv("XLV_THREADS"));
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  EXPECT_EQ(hw == 0 ? 1 : hw, resolveThreadCount(0));
}

TEST(Executor, MalformedEnvOverrideThrows) {
  // Strict parsing: "4abc" must not silently run on 4 threads, and no
  // malformed or out-of-range value degrades to auto — each one stops the
  // run with a message naming the variable. An empty variable is unset.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  ASSERT_EQ(0, setenv("XLV_THREADS", "", 1));
  EXPECT_EQ(hw == 0 ? 1 : hw, resolveThreadCount(0));
  for (const char* value : {"0", "-3", "foo", "99999", "4abc"}) {
    ASSERT_EQ(0, setenv("XLV_THREADS", value, 1));
    try {
      resolveThreadCount(0);
      ADD_FAILURE() << "accepted XLV_THREADS='" << value << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string::npos, std::string(e.what()).find("XLV_THREADS")) << e.what();
    }
  }
  ASSERT_EQ(0, unsetenv("XLV_THREADS"));
}

// --- nested runs -------------------------------------------------------------

TEST(Executor, NestedRunsStayWithinTheOutermostThreadBudget) {
  // Each nested run asks for 4 threads of its own; sharing the outer pool,
  // at most 4 tasks may run at once however deep they are nested.
  std::atomic<int> running{0};
  std::atomic<int> highWater{0};
  std::atomic<int> done{0};
  Executor(ExecutorConfig{4}).run(4, [&](std::size_t) {
    Executor(ExecutorConfig{4}).run(16, [&](std::size_t) {
      const int now = running.fetch_add(1) + 1;
      int seen = highWater.load();
      while (now > seen && !highWater.compare_exchange_weak(seen, now)) {
      }
      // Long enough that tasks of different nested runs overlap.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      running.fetch_sub(1);
      done.fetch_add(1);
    });
  });
  EXPECT_EQ(64, done.load());
  EXPECT_GE(highWater.load(), 1);
  EXPECT_LE(highWater.load(), 4);
}

TEST(Executor, IdleWorkersHelpANestedRun) {
  // Two outer tasks on four threads leave workers idle. Outer task 0 runs a
  // nested run that asks for one thread; its two tasks each wait for the
  // other, so they only meet when an idle worker claims the second one.
  std::mutex mutex;
  std::condition_variable cv;
  int arrived = 0;
  std::set<std::thread::id> nestedThreads;
  std::atomic<int> metInTime{0};
  Executor(ExecutorConfig{4}).run(2, [&](std::size_t outer) {
    if (outer != 0) return;
    Executor(ExecutorConfig{1}).run(2, [&](std::size_t) {
      std::unique_lock<std::mutex> lock(mutex);
      nestedThreads.insert(std::this_thread::get_id());
      ++arrived;
      cv.notify_all();
      if (cv.wait_for(lock, std::chrono::seconds(10), [&] { return arrived >= 2; })) {
        metInTime.fetch_add(1);
      }
    });
  });
  EXPECT_EQ(2, metInTime.load()) << "the nested tasks never ran side by side";
  EXPECT_GT(nestedThreads.size(), 1u);
}

TEST(Executor, NestedExceptionReachesItsCallerThenTheOuterRuleApplies) {
  // Nested tasks 3 and 5 throw in every nested run. Outer task 1 catches
  // its nested run's exception, outer task 2 lets it escape, outer task 3
  // throws its own: each nested caller sees its own lowest-index failure,
  // and the outer run rethrows the lowest failing outer task's.
  for (int threads : {1, 4}) {
    std::string caughtByTask1;
    std::string outerMessage;
    try {
      Executor(ExecutorConfig{threads}).run(4, [&](std::size_t outer) {
        if (outer == 3) throw std::runtime_error("outer 3");
        if (outer == 0) return;
        auto nested = [outer] {
          Executor(ExecutorConfig{4}).run(8, [outer](std::size_t i) {
            if (i == 3 || i == 5) {
              throw std::runtime_error("outer " + std::to_string(outer) + " nested " +
                                       std::to_string(i));
            }
          });
        };
        if (outer == 1) {
          try {
            nested();
          } catch (const std::runtime_error& e) {
            caughtByTask1 = e.what();
          }
        } else {
          nested();
        }
      });
      ADD_FAILURE() << "expected an exception with " << threads << " threads";
    } catch (const std::runtime_error& e) {
      outerMessage = e.what();
    }
    EXPECT_EQ("outer 1 nested 3", caughtByTask1) << threads << " threads";
    EXPECT_EQ("outer 2 nested 3", outerMessage) << threads << " threads";
  }
}

TEST(Executor, SerialOutermostRunKeepsNestedRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::pair<std::size_t, std::size_t>> order;
  Executor(ExecutorConfig{1}).run(3, [&](std::size_t outer) {
    const Executor nested(ExecutorConfig{4});
    EXPECT_EQ(1, nested.effectiveThreads(5));
    nested.run(5, [&](std::size_t i) {
      EXPECT_EQ(caller, std::this_thread::get_id());
      order.emplace_back(outer, i);
    });
  });
  ASSERT_EQ(15u, order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    EXPECT_EQ(k / 5, order[k].first) << k;
    EXPECT_EQ(k % 5, order[k].second) << k;
  }
}

TEST(Executor, NestedRunReportsTheEnclosingPoolSize) {
  std::atomic<int> nestedThreads{0};
  Executor(ExecutorConfig{3}).run(1, [&](std::size_t) {
    const Executor nested(ExecutorConfig{1});
    nestedThreads = nested.effectiveThreads(10);
    EXPECT_EQ(2, nested.effectiveThreads(2)) << "capped at the task count";
  });
  EXPECT_EQ(3, nestedThreads.load());
  EXPECT_EQ(1, Executor(ExecutorConfig{1}).effectiveThreads(10));
}

std::size_t threadCount() {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

/// threadCount() once it has held still for 20 ms. pthread_join returns
/// once the kernel clears the exiting thread's tid, which can happen before
/// that thread leaves /proc/self/task, so a count taken right after a join
/// may still include the joined thread.
std::size_t settledThreadCount() {
  std::size_t n = threadCount();
  for (int stable = 0; stable < 20;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::size_t m = threadCount();
    stable = m == n ? stable + 1 : 0;
    n = m;
  }
  return n;
}

TEST(Executor, NoThreadOutlivesTheOutermostRun) {
  // A first pooled run lets a runtime that starts a thread of its own on
  // the first thread creation (ThreadSanitizer does) do so uncounted.
  Executor(ExecutorConfig{2}).run(2, [](std::size_t) {});
  const std::size_t before = settledThreadCount();
  std::atomic<int> done{0};
  Executor(ExecutorConfig{4}).run(3, [&](std::size_t) {
    Executor(ExecutorConfig{4}).run(8, [&](std::size_t) { done.fetch_add(1); });
  });
  EXPECT_EQ(24, done.load());
  // The run's joined threads can linger in the listing too (see
  // settledThreadCount); poll until it catches up, and fail only if it
  // never does.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::size_t after = threadCount();
  while (after != before && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    after = threadCount();
  }
  EXPECT_EQ(before, after);
}

TEST(Executor, NestedTasksWaitingOnAOnceCacheBuildComplete) {
  // Every nested task of every outer task asks for the same key; one of
  // them builds it while the rest — on the caller and on helping workers —
  // block on that build. Build lambdas never call run() (executor.h), so
  // each round must complete with exactly one build.
  util::OnceCache<int> cache;
  constexpr int kRounds = 25;
  std::atomic<int> builds{0};
  for (int round = 0; round < kRounds; ++round) {
    const std::string key = "key-" + std::to_string(round);
    std::atomic<long> sum{0};
    Executor(ExecutorConfig{4}).run(4, [&](std::size_t) {
      Executor(ExecutorConfig{4}).run(16, [&](std::size_t) {
        const auto value = cache.getOrBuild(key, [&] {
          builds.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          return round;
        });
        sum.fetch_add(*value);
      });
    });
    EXPECT_EQ(64L * round, sum.load()) << "round " << round;
  }
  EXPECT_EQ(kRounds, builds.load());
}

}  // namespace
}  // namespace xlv::campaign
