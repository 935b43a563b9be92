#include "campaign/executor.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
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

namespace {

constexpr std::size_t kNoFailure = std::numeric_limits<std::size_t>::max();

struct Pool;

/// The pool whose task this thread is running (null outside every run).
thread_local Pool* tlsPool = nullptr;

/// Points tlsPool at `pool` for one scope.
class PoolScope {
 public:
  explicit PoolScope(Pool* pool) : saved_(tlsPool) { tlsPool = pool; }
  ~PoolScope() { tlsPool = saved_; }
  PoolScope(const PoolScope&) = delete;
  PoolScope& operator=(const PoolScope&) = delete;

 private:
  Pool* saved_;
};

/// One run()'s index space: claimed chunk by chunk by its caller and by any
/// pool worker that helps.
struct Job {
  Job(std::size_t n, std::size_t chunk, const std::function<void(std::size_t)>& task)
      : n(n), chunk(chunk), task(task) {}

  const std::size_t n;
  const std::size_t chunk;
  const std::function<void(std::size_t)>& task;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> lowestFailure{kNoFailure};
  std::mutex errMutex;
  std::exception_ptr firstError;
  int helpers = 0;  ///< workers other than the caller inside drain(); Pool::mutex

  bool hasUnclaimed() const noexcept { return next.load(std::memory_order_relaxed) < n; }

  /// Claim and run chunks until none is left. Fail fast without losing
  /// determinism: chunk claims are monotonic, so every index below a
  /// failing one was already claimed (and will finish); chunks claimed
  /// entirely above the lowest failure so far can never lower it and are
  /// skipped. The recorded exception is therefore the lowest-index one —
  /// what the serial loop would have thrown first.
  void drain() {
    while (true) {
      const std::size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) return;
      if (begin > lowestFailure.load(std::memory_order_relaxed)) {
        next.store(n, std::memory_order_relaxed);  // the rest is skipped too
        return;
      }
      const std::size_t end = std::min(n, begin + chunk);
      for (std::size_t i = begin; i < end; ++i) {
        try {
          task(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(errMutex);
          if (i < lowestFailure.load(std::memory_order_relaxed)) {
            firstError = std::current_exception();
            lowestFailure.store(i, std::memory_order_relaxed);
          }
        }
      }
    }
  }

  void rethrowFirstError() const {
    if (firstError) std::rethrow_exception(firstError);
  }
};

/// The workers of one outermost run and the jobs posted to them. The
/// destructor stops and joins the workers, also after a failed start().
struct Pool {
  explicit Pool(int threads) : threads(threads) {}
  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      stopping = true;
    }
    cv.notify_all();
    for (auto& t : workers) t.join();
  }
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Start the workers besides the calling thread.
  void start() {
    workers.reserve(static_cast<std::size_t>(threads - 1));
    for (int w = 1; w < threads; ++w) {
      workers.emplace_back([this] {
        PoolScope scope(this);
        workerLoop();
      });
    }
  }

  /// The oldest job with unclaimed chunks: an idle worker starts another
  /// campaign item before it helps with one item's mutants.
  Job* findWork() const {
    for (Job* j : jobs) {
      if (j->hasUnclaimed()) return j;
    }
    return nullptr;
  }

  /// Drain `job` as a helper. Called and returns with `lock` held.
  void help(Job& job, std::unique_lock<std::mutex>& lock) {
    ++job.helpers;
    lock.unlock();
    job.drain();
    lock.lock();
    if (--job.helpers == 0) cv.notify_all();
  }

  /// Post `job`, drain it on the calling thread, wait until its in-flight
  /// chunks are done and retire it. `outermost` also helps other jobs while
  /// it waits (they are all nested under its own).
  void runJob(Job& job, bool outermost) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      jobs.push_back(&job);
    }
    cv.notify_all();
    job.drain();
    std::unique_lock<std::mutex> lock(mutex);
    while (job.helpers != 0) {
      Job* other = outermost ? findWork() : nullptr;
      if (other != nullptr) {
        help(*other, lock);
      } else {
        cv.wait(lock);
      }
    }
    jobs.erase(std::find(jobs.begin(), jobs.end(), &job));
  }

  /// Body of a worker: help whichever job has unclaimed chunks until the
  /// pool stops.
  void workerLoop() {
    std::unique_lock<std::mutex> lock(mutex);
    while (!stopping) {
      if (Job* job = findWork()) {
        help(*job, lock);
      } else {
        cv.wait(lock);
      }
    }
  }

  const int threads;
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Job*> jobs;  ///< posted and not yet retired, oldest first; mutex
  bool stopping = false;   ///< mutex
  std::vector<std::thread> workers;  ///< last: the threads use the members above
};

}  // namespace

Executor::Executor(ExecutorConfig cfg)
    : threads_(resolveThreadCount(cfg.threads)) {}

int Executor::effectiveThreads(std::size_t n) const noexcept {
  if (n == 0) return 1;
  const int pool = tlsPool != nullptr ? tlsPool->threads : threads_;
  return static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(pool), n));
}

void Executor::run(std::size_t n, const std::function<void(std::size_t)>& task) const {
  if (n == 0) return;

  Pool* const enclosing = tlsPool;
  const int threads = enclosing != nullptr ? enclosing->threads : threads_;
  if (threads <= 1) {
    // Serial path: index order, caller's thread, no workers. The scope
    // keeps nested runs serial too.
    Pool serial(1);
    PoolScope scope(enclosing != nullptr ? enclosing : &serial);
    for (std::size_t i = 0; i < n; ++i) task(i);
    return;
  }

  const std::size_t chunk =
      std::clamp<std::size_t>(n / (static_cast<std::size_t>(threads) * 8), 1, 64);
  Job job(n, chunk, task);
  if (enclosing != nullptr) {
    enclosing->runJob(job, false);
  } else {
    Pool pool(threads);  // joins its workers when it goes out of scope
    PoolScope scope(&pool);
    pool.start();
    pool.runJob(job, true);
  }
  job.rethrowFirstError();
}

}  // namespace xlv::campaign
