// Executor unit tests: task coverage, deterministic merge order, serial
// purity, exception propagation, and thread-count resolution.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "campaign/executor.h"

namespace xlv::campaign {
namespace {

TEST(Executor, RunsEveryTaskExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    Executor ex(ExecutorConfig{threads, 0});
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
    Executor ex(ExecutorConfig{threads, 2});
    const std::vector<int> out =
        ex.map<int>(100, [](std::size_t i) { return static_cast<int>(i) * 7; });
    ASSERT_EQ(100u, out.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(static_cast<int>(i) * 7, out[i]) << threads << " threads";
    }
  }
}

TEST(Executor, SingleThreadRunsInlineInIndexOrder) {
  Executor ex(ExecutorConfig{1, 0});
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
  Executor ex(ExecutorConfig{4, 0});
  bool called = false;
  ex.run(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Executor, PropagatesTaskException) {
  for (int threads : {1, 4}) {
    Executor ex(ExecutorConfig{threads, 1});
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
    Executor ex(ExecutorConfig{threads, 1});
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
  EXPECT_EQ(3, Executor(ExecutorConfig{3, 0}).threads());
  EXPECT_EQ(1, Executor(ExecutorConfig{1, 0}).threads());
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

}  // namespace
}  // namespace xlv::campaign
