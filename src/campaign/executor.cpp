#include "campaign/executor.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "util/env.h"
#include "util/log.h"

namespace xlv::campaign {

int resolveThreadCount(int requested) {
  // Only 0 means auto; a negative count (stray sentinel, arithmetic bug)
  // degrades to serial rather than silently fanning out.
  if (requested > 0) return requested;
  if (requested < 0) return 1;
  const int env = static_cast<int>(util::envLongStrict("XLV_THREADS", 0, 1, 4096));
  const unsigned hwRaw = std::thread::hardware_concurrency();
  const int hw = hwRaw == 0 ? 1 : static_cast<int>(hwRaw);
  static std::once_flag logged;
  std::call_once(logged, [&] {
    XLV_INFO("campaign") << "thread pool default: " << (env > 0 ? env : hw)
                         << (env > 0 ? " (XLV_THREADS override)" : " (hardware_concurrency)")
                         << ", hardware=" << hw;
  });
  return env > 0 ? env : hw;
}

Executor::Executor(ExecutorConfig cfg)
    : threads_(resolveThreadCount(cfg.threads)), chunkSize_(std::max(0, cfg.chunkSize)) {}

void Executor::run(std::size_t n, const std::function<void(std::size_t)>& task) const {
  if (n == 0) return;

  const int workers = effectiveThreads(n);
  if (workers <= 1) {
    // Serial path: index order, caller's thread, no pool machinery.
    for (std::size_t i = 0; i < n; ++i) task(i);
    return;
  }

  std::size_t chunk = static_cast<std::size_t>(chunkSize_);
  if (chunk == 0) {
    chunk = std::clamp<std::size_t>(n / (static_cast<std::size_t>(workers) * 8), 1, 64);
  }

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> lowestFailure{std::numeric_limits<std::size_t>::max()};
  std::mutex errMutex;
  std::exception_ptr firstError;
  std::size_t firstErrorIndex = std::numeric_limits<std::size_t>::max();

  // Fail fast without losing determinism: chunk claims are monotonic, so
  // every index below a failing one was already claimed (and will finish);
  // chunks claimed entirely above the lowest failure so far can never
  // lower it and are safe to skip. The rethrown exception is therefore the
  // lowest-index one — what the serial loop would have thrown first.
  auto worker = [&] {
    while (true) {
      const std::size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) return;
      if (begin > lowestFailure.load(std::memory_order_relaxed)) return;
      const std::size_t end = std::min(n, begin + chunk);
      for (std::size_t i = begin; i < end; ++i) {
        try {
          task(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(errMutex);
          if (i < firstErrorIndex) {
            firstErrorIndex = i;
            firstError = std::current_exception();
            lowestFailure.store(i, std::memory_order_relaxed);
          }
        }
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (auto& t : pool) t.join();

  if (firstError) std::rethrow_exception(firstError);
}

}  // namespace xlv::campaign
