// Chunked thread-pool executor for mutation campaigns.
//
// The paper's mutation analysis (Section 7) is embarrassingly parallel: every
// delay mutant is an independent golden-vs-injected TLM co-simulation. This
// executor turns an index space [0, n) into dynamically claimed chunks served
// by a pool of worker threads (a chunk is n / (threads * 8) consecutive
// indices, clamped to [1, 64]), with three properties the campaign layer
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
//
// Nesting: one pool per outermost run. A campaign item runs a mutation
// analysis, which runs its own executor — the two levels share ONE pool:
//
//   * the outermost run() (a thread not inside any run's task) with
//     threads > 1 starts `threads` workers, the caller included, and joins
//     them before it returns: no thread outlives it, so a process that
//     forks between runs (the daemon spawning its workers) forks with no
//     pool thread left;
//   * a run() called from inside one of that pool's tasks starts no thread
//     and ignores its own ExecutorConfig::threads: it posts its indices as a
//     job on the enclosing pool, drains the job on the calling thread, and
//     idle workers claim chunks of it. A few-item campaign thus spreads each
//     item's mutants over whichever workers have no item left;
//   * thread budget: at no nesting depth do more than the outermost run's
//     `threads` tasks run at once. Under an outermost threads == 1 run every
//     nested run is inline on the caller, in index order;
//   * each job keeps the guarantees above: results go into index slots and
//     the job's lowest-index exception is rethrown to the job's own caller;
//   * a nested caller whose job has no unclaimed chunks left waits for the
//     in-flight ones; it never starts another job's work, which could hold
//     up its own return. The outermost caller helps while it waits: every
//     other job in the pool is nested under its own.
//
// Rule for util::OnceCache users: a build lambda must not call run().
// Otherwise the thread building a key can wait on its own nested job while
// a helper of that job waits for the same key. Every build in the codebase
// (stage prefix, golden trace, checkpoints, mutant result, native library)
// is serial. The mutation analysis's set-aside walk keeps to the rule: its
// busy probe never waits, and its second pass waits for a key only from a
// task, never from inside a build, so the key's builder is always a serial
// build that finishes on its own.
#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

namespace xlv::campaign {

struct ExecutorConfig {
  /// Worker threads of an outermost run (a nested run uses the enclosing
  /// pool instead). 0 = auto: the XLV_THREADS environment variable when set
  /// (see resolveThreadCount), otherwise std::thread::hardware_concurrency().
  /// Negative values degrade to 1 (serial), never to auto.
  int threads = 0;
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

  /// The resolved worker count this executor starts as an outermost run.
  int threads() const noexcept { return threads_; }

  /// Workers an n-task run called from this thread can engage: the
  /// enclosing pool's size inside a run's task, threads() outside, capped
  /// at n (at least 1). The single source of truth for reported thread
  /// counts.
  int effectiveThreads(std::size_t n) const noexcept;

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
};

}  // namespace xlv::campaign
