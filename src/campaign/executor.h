// Chunked thread-pool executor for mutation campaigns.
//
// The paper's mutation analysis (Section 7) is embarrassingly parallel: every
// delay mutant is an independent golden-vs-injected TLM co-simulation. This
// executor turns an index space [0, n) into dynamically claimed chunks served
// by a pool of worker threads, with three properties the campaign layer
// relies on:
//
//   * determinism   — tasks are identified by their index; callers write
//     results into pre-sized slots, so the merged output is bit-identical to
//     the serial path regardless of thread count or claim order;
//   * serial purity — threads == 1 runs every task inline on the calling
//     thread in index order, byte-for-byte today's serial behavior (no pool,
//     no atomics on the hot path);
//   * deterministic failure — when tasks throw, the exception of the
//     LOWEST-indexed failing task is rethrown after all workers have
//     stopped, so a campaign fails the same way at any thread count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

namespace xlv::campaign {

struct ExecutorConfig {
  /// Worker threads. 0 = auto: the XLV_THREADS environment variable when set
  /// (see resolveThreadCount), otherwise std::thread::hardware_concurrency().
  /// Negative values degrade to 1 (serial), never to auto.
  int threads = 0;
  /// Task indices claimed per atomic fetch. 0 = auto (n / (threads * 8),
  /// clamped to [1, 64]); larger chunks amortize contention for short tasks.
  int chunkSize = 0;
};

/// Resolve a requested thread count against the XLV_THREADS override and the
/// hardware concurrency (logged once per process via util/log, component
/// "campaign"). Only auto (0) reads the override, strictly
/// (util::envLongStrict): anything but an integer in [1, 4096] throws
/// std::invalid_argument.
int resolveThreadCount(int requested);

class Executor {
 public:
  explicit Executor(ExecutorConfig cfg = {});

  /// The resolved worker count this executor launches for large-enough runs.
  int threads() const noexcept { return threads_; }

  /// Workers actually engaged for an n-task run (never more than n, at
  /// least 1). The single source of truth for reported thread counts.
  int effectiveThreads(std::size_t n) const noexcept {
    if (n == 0) return 1;
    return static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(threads_), n));
  }

  /// Run task(0) .. task(n-1), blocking until all complete. `task` must be
  /// safe to invoke concurrently from multiple threads for distinct indices.
  /// Rethrows the lowest-index task exception, if any (what the serial
  /// order would throw first); later tasks may be skipped after a failure.
  void run(std::size_t n, const std::function<void(std::size_t)>& task) const;

  /// Convenience: materialize `fn(i)` for i in [0, n) in index order.
  template <class T, class F>
  std::vector<T> map(std::size_t n, F&& fn) const {
    static_assert(!std::is_same_v<T, bool>,
                  "map<bool> would race on std::vector<bool>'s packed bits; use char");
    std::vector<T> out(n);
    run(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  int threads_ = 1;
  int chunkSize_ = 0;
};

}  // namespace xlv::campaign
