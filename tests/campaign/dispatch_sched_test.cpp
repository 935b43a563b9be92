// Deterministic unit tests of the dispatcher's scheduling layer
// (campaign/dispatch.h): the work-stealing TaskQueue under seeded
// adversarial weights, the frame transport, and the worker-count
// resolution. No processes are spawned here — the queue is pure state, so
// every property is checked by direct simulation (the daemon end-to-end
// paths live in dispatch_fault_test.cpp).
#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "campaign/dispatch.h"
#include "campaign/serialize.h"
#include "util/codec.h"
#include "util/env.h"
#include "util/subprocess.h"

namespace xlv::campaign {
namespace {

/// Adversarial unit plan: one 100x-heavy fragment buried mid-list among
/// many tiny units — the shape that wrecks a static weight balance when
/// the heavy unit lands late in a shard.
DispatchUnitPlan adversarialPlan(std::size_t tiny, std::uint64_t heavyWeight) {
  DispatchUnitPlan plan;
  plan.specFnv = 0x5EED;
  for (std::size_t i = 0; i < tiny + 1; ++i) {
    plan.units.push_back(ShardUnit{i, 0, 0});
    plan.weights.push_back(i == tiny / 2 ? heavyWeight : 1);
  }
  return plan;
}

struct SimEvent {
  std::uint64_t time = 0;
  std::size_t worker = 0;
  std::size_t task = 0;
  bool operator==(const SimEvent&) const = default;
};

struct SimRun {
  std::vector<SimEvent> claims;   ///< in claim order
  std::uint64_t makespan = 0;
  std::uint64_t idleWhilePending = 0;  ///< worker-steps idle with work queued
};

/// Discrete-event simulation of the dispatcher's claim loop: each worker
/// runs its claimed task for exactly `weight` ticks, then steals the next.
/// Deterministic by construction — ties go to the lower worker index.
SimRun simulate(TaskQueue& queue, std::size_t workers) {
  SimRun run;
  std::vector<std::uint64_t> freeAt(workers, 0);
  std::vector<bool> busy(workers, false);
  std::vector<std::size_t> taskOf(workers, 0);
  std::uint64_t now = 0;
  while (!queue.done()) {
    for (std::size_t w = 0; w < workers; ++w) {
      if (busy[w] || !queue.hasPending()) continue;
      const DispatchTask& t = queue.claim();
      run.claims.push_back(SimEvent{now, w, t.index});
      busy[w] = true;
      taskOf[w] = t.index;
      freeAt[w] = now + t.weight;
    }
    // A worker idle at this instant while the queue still has work would be
    // a scheduling hole; the claim loop above makes it impossible, and the
    // counter proves it stayed zero.
    for (std::size_t w = 0; w < workers; ++w) {
      if (!busy[w] && queue.hasPending()) ++run.idleWhilePending;
    }
    std::uint64_t nextFree = 0;
    bool any = false;
    for (std::size_t w = 0; w < workers; ++w) {
      if (busy[w] && (!any || freeAt[w] < nextFree)) {
        nextFree = freeAt[w];
        any = true;
      }
    }
    if (!any) break;  // nothing running and nothing pending: queue must be done
    now = nextFree;
    for (std::size_t w = 0; w < workers; ++w) {
      if (busy[w] && freeAt[w] == now) {
        busy[w] = false;
        queue.complete(taskOf[w]);
      }
    }
    run.makespan = now;
  }
  return run;
}

TEST(DispatchSched, QueueOrdersHeaviestFirst) {
  const DispatchUnitPlan plan = adversarialPlan(12, 100);
  TaskQueue queue(plan);
  ASSERT_EQ(queue.taskCount(), 13u);
  // The 100x fragment is claimed FIRST despite sitting mid-list; ties
  // resolve by ascending index.
  EXPECT_EQ(queue.claim().index, 6u);
  EXPECT_EQ(queue.claim().index, 0u);
  EXPECT_EQ(queue.claim().index, 1u);
}

TEST(DispatchSched, WorkStealingKeepsAllWorkersBusyAcrossPoolSizes) {
  for (const std::size_t workers : {2u, 3u, 5u}) {
    const DispatchUnitPlan plan = adversarialPlan(40, 100);
    TaskQueue queue(plan);
    const SimRun run = simulate(queue, workers);
    EXPECT_TRUE(queue.done()) << workers << " workers";
    // Starvation-freedom: every task claimed exactly once.
    std::vector<int> claimed(plan.units.size(), 0);
    for (const SimEvent& e : run.claims) ++claimed[e.task];
    EXPECT_TRUE(std::all_of(claimed.begin(), claimed.end(), [](int c) { return c == 1; }))
        << workers << " workers";
    // No worker ever idled while the queue held work.
    EXPECT_EQ(run.idleWhilePending, 0u) << workers << " workers";
    // LPT's classic bound: makespan <= totalWeight/workers + maxWeight.
    const std::uint64_t total =
        std::accumulate(plan.weights.begin(), plan.weights.end(), std::uint64_t{0});
    const std::uint64_t maxW = *std::max_element(plan.weights.begin(), plan.weights.end());
    EXPECT_LE(run.makespan, total / workers + maxW) << workers << " workers";
    // With the heavy fragment started first, the adversarial plan's
    // makespan is exactly the heavy weight — the tiny units pack around it.
    EXPECT_EQ(run.makespan, 100u) << workers << " workers";
  }
}

TEST(DispatchSched, SimulationIsDeterministic) {
  const DispatchUnitPlan plan = adversarialPlan(25, 100);
  TaskQueue qa(plan);
  TaskQueue qb(plan);
  const SimRun a = simulate(qa, 3);
  const SimRun b = simulate(qb, 3);
  EXPECT_EQ(a.claims, b.claims);
  EXPECT_EQ(a.makespan, b.makespan);
}

TEST(DispatchSched, RequeueGoesToTheFrontAndCountsAttempts) {
  const DispatchUnitPlan plan = adversarialPlan(6, 100);
  TaskQueue queue(plan);
  const std::size_t heavy = queue.claim().index;
  EXPECT_EQ(queue.task(heavy).attempts, 1u);
  const std::size_t other = queue.claim().index;
  // The heavy unit's worker died: the retry outranks everything pending.
  queue.requeue(heavy);
  EXPECT_EQ(queue.claim().index, heavy);
  EXPECT_EQ(queue.task(heavy).attempts, 2u);
  EXPECT_TRUE(queue.complete(heavy));
  EXPECT_TRUE(queue.complete(other));
  // A raced duplicate result is reported, not double-counted.
  EXPECT_FALSE(queue.complete(heavy));
  while (queue.hasPending()) queue.complete(queue.claim().index);
  EXPECT_TRUE(queue.done());
}

TEST(DispatchSched, DrainedResultCompletesARequeuedTask) {
  // A SIGKILLed worker's result can still be sitting in the pipe and be
  // drained AFTER the dispatcher re-queued the task: completing a PENDING
  // task must pull it back out of the queue.
  const DispatchUnitPlan plan = adversarialPlan(3, 10);
  TaskQueue queue(plan);
  const std::size_t first = queue.claim().index;
  queue.requeue(first);
  EXPECT_TRUE(queue.complete(first));  // drained from the dead worker's pipe
  std::vector<std::size_t> rest;
  while (queue.hasPending()) rest.push_back(queue.claim().index);
  EXPECT_EQ(std::count(rest.begin(), rest.end(), first), 0);
  for (const std::size_t t : rest) queue.complete(t);
  EXPECT_TRUE(queue.done());
}

TEST(DispatchSched, QueueRejectsInvalidTransitions) {
  const DispatchUnitPlan plan = adversarialPlan(2, 5);
  TaskQueue queue(plan);
  EXPECT_THROW(queue.requeue(0), std::logic_error);  // not in flight
  const std::size_t t = queue.claim().index;
  queue.complete(t);
  EXPECT_THROW(queue.requeue(t), std::logic_error);  // already completed
  TaskQueue empty;
  EXPECT_THROW(empty.claim(), std::logic_error);
  EXPECT_TRUE(empty.done());
}

// --- frame transport ---------------------------------------------------------

TEST(DispatchSched, FrameReaderReassemblesArbitraryChunking) {
  SubmitFrame submit;
  submit.specFnv = 7;
  submit.seq = 1;
  submit.taskIndex = 3;
  submit.taskCount = 9;
  submit.unit = ShardUnit{3, 2, 4};
  HeartbeatFrame beat;
  beat.workerIndex = 1;
  beat.seq = 1;
  const std::string wire =
      frameWire(encodeSubmitFrame(submit)) + frameWire(encodeHeartbeatFrame(beat));
  // Feed byte-by-byte: frames must pop exactly when complete, in order.
  FrameReader reader;
  std::vector<std::string> docs;
  std::string doc;
  for (char c : wire) {
    reader.feed(std::string_view(&c, 1));
    while (reader.next(doc)) docs.push_back(doc);
  }
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_EQ(decodeSubmitFrame(docs[0]), submit);
  EXPECT_EQ(decodeHeartbeatFrame(docs[1]), beat);
  EXPECT_EQ(reader.pendingBytes(), 0u);

  // One big feed yields the same two documents.
  FrameReader big;
  big.feed(wire);
  std::vector<std::string> bigDocs;
  while (big.next(doc)) bigDocs.push_back(doc);
  EXPECT_EQ(bigDocs, docs);
}

TEST(DispatchSched, FrameReaderRejectsCorruptFraming) {
  FrameReader badMagic;
  badMagic.feed("xlvq 5\nhello");
  std::string doc;
  EXPECT_THROW(badMagic.next(doc), util::DecodeError);

  FrameReader badLen;
  badLen.feed("xlvf 12a\npayload");
  EXPECT_THROW(badLen.next(doc), util::DecodeError);

  FrameReader hugeLen;
  hugeLen.feed("xlvf 99999999999999999999\n");
  EXPECT_THROW(hugeLen.next(doc), util::DecodeError);

  // A partial frame is not an error — it is just not ready yet.
  FrameReader partial;
  partial.feed("xlvf 10\nabc");
  EXPECT_FALSE(partial.next(doc));
  partial.feed("defghij");
  ASSERT_TRUE(partial.next(doc));
  EXPECT_EQ(doc, "abcdefghij");
}

// --- blocking frame reads ----------------------------------------------------

TEST(DispatchSched, ReadFrameBlockingDistinguishesEofFromError) {
  // Clean EOF: the peer closed the pipe with nothing buffered.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[1]);
  FrameReader reader;
  std::string doc;
  int err = -1;
  EXPECT_EQ(readFrameBlocking(fds[0], reader, doc, &err), FrameRead::Eof);
  ::close(fds[0]);

  // A real read(2) failure must NOT masquerade as EOF — it surfaces as
  // FrameRead::Error with the errno preserved for the caller's log line.
  FrameReader reader2;
  err = 0;
  EXPECT_EQ(readFrameBlocking(-1, reader2, doc, &err), FrameRead::Error);
  EXPECT_EQ(err, EBADF);

  // And a complete frame still round-trips through the same entry point.
  ASSERT_EQ(::pipe(fds), 0);
  HeartbeatFrame beat;
  beat.workerIndex = 2;
  beat.seq = 9;
  const std::string wire = frameWire(encodeHeartbeatFrame(beat));
  ASSERT_EQ(::write(fds[1], wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  ::close(fds[1]);
  FrameReader reader3;
  EXPECT_EQ(readFrameBlocking(fds[0], reader3, doc, nullptr), FrameRead::Frame);
  EXPECT_EQ(decodeHeartbeatFrame(doc), beat);
  EXPECT_EQ(readFrameBlocking(fds[0], reader3, doc, nullptr), FrameRead::Eof);
  ::close(fds[0]);
}

// --- non-blocking outbound buffers -------------------------------------------

#ifdef F_SETPIPE_SZ
TEST(DispatchSched, OutboundBufferSurvivesTinyPipeBackpressure) {
  // Regression test for the dispatcher write deadlock: a worker stdin pipe
  // shrunk to one page fills instantly under a burst of submit frames. The
  // old blocking writeAll would wedge the poll loop right there; the
  // OutboundBuffer must instead take the EAGAIN, keep the overflow queued,
  // and drain as the reader makes room.
  ::signal(SIGPIPE, SIG_IGN);
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_GT(::fcntl(fds[1], F_SETPIPE_SZ, 4096), 0);
  ASSERT_TRUE(util::setNonBlocking(fds[1]));

  // Far more than one page of framed submissions.
  std::string payload;
  SubmitFrame submit;
  submit.specFnv = 0x5EED;
  submit.campaignId = 1;
  for (std::size_t i = 0; i < 256; ++i) {
    submit.seq = i;
    submit.taskIndex = i;
    submit.taskCount = 256;
    submit.unit = ShardUnit{i, 0, 0};
    payload += frameWire(encodeSubmitFrame(submit));
  }
  ASSERT_GT(payload.size(), 32u * 1024u);

  OutboundBuffer out;
  out.enqueue(payload);
  ASSERT_TRUE(out.flushTo(fds[1]));  // pipe full is not fatal...
  EXPECT_GT(out.pendingBytes(), 0u);  // ...and the overflow stays queued
  EXPECT_LT(out.pendingBytes(), payload.size());

  // Alternate reader-drain with flush, the way the poll loop's POLLOUT
  // handler does, until every byte crossed the one-page pipe intact.
  std::string received;
  char buf[4096];
  while (!out.empty() || received.size() < payload.size()) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n > 0) received.append(buf, static_cast<std::size_t>(n));
    ASSERT_TRUE(out.flushTo(fds[1]));
    if (n <= 0 && out.empty()) break;
  }
  EXPECT_EQ(received, payload);
  EXPECT_TRUE(out.empty());

  // A closed read end is the fatal case: flushTo reports it instead of
  // retrying forever.
  ::close(fds[0]);
  out.enqueue("straggler");
  EXPECT_FALSE(out.flushTo(fds[1]));
  ::close(fds[1]);
}
#endif  // F_SETPIPE_SZ

// --- worker-count resolution -------------------------------------------------

struct EnvGuard {
  std::string name;
  std::string saved;
  bool had = false;
  EnvGuard(const char* n, const char* value) : name(n) {
    const char* old = std::getenv(n);
    if (old != nullptr) {
      had = true;
      saved = old;
    }
    ::setenv(n, value, 1);
  }
  ~EnvGuard() {
    if (had) {
      ::setenv(name.c_str(), saved.c_str(), 1);
    } else {
      ::unsetenv(name.c_str());
    }
  }
};

TEST(DispatchSched, ResolveWorkerCountPrefersExplicitThenEnv) {
  {
    EnvGuard env("XLV_WORKERS", "7");
    EXPECT_EQ(resolveWorkerCount(3), 3);  // explicit wins
    EXPECT_EQ(resolveWorkerCount(0), 7);  // env fills the default
  }
  {
    // Strict parse: a typo'd pool size stops the daemon instead of
    // silently fanning out differently.
    EnvGuard env("XLV_WORKERS", "3abc");
    EXPECT_THROW(resolveWorkerCount(0), std::invalid_argument);
  }
  {
    EnvGuard env("XLV_WORKERS", "0");
    EXPECT_THROW(resolveWorkerCount(0), std::invalid_argument);
  }
  ::unsetenv("XLV_WORKERS");
  EXPECT_GE(resolveWorkerCount(0), 1);  // hardware fallback
}

TEST(DispatchSched, EnvLongStrictThrowsOnMalformedValues) {
  // The timing knobs (XLV_HEARTBEAT_MS, XLV_HEARTBEAT_TIMEOUT_MS, the fault
  // hooks) all parse through envLongStrict: unset or empty means the
  // fallback, anything else must parse COMPLETELY. The old lenient parser
  // silently fell back on a typo — a daemon run with a mistyped heartbeat
  // timeout used the default and nobody noticed.
  ::unsetenv("XLV_TEST_ENV_LONG");
  EXPECT_EQ(util::envLongStrict("XLV_TEST_ENV_LONG", 42), 42);
  {
    EnvGuard env("XLV_TEST_ENV_LONG", "");
    EXPECT_EQ(util::envLongStrict("XLV_TEST_ENV_LONG", 42), 42);
  }
  {
    EnvGuard env("XLV_TEST_ENV_LONG", "250");
    EXPECT_EQ(util::envLongStrict("XLV_TEST_ENV_LONG", 42), 250);
  }
  {
    EnvGuard env("XLV_TEST_ENV_LONG", "-3");
    EXPECT_EQ(util::envLongStrict("XLV_TEST_ENV_LONG", 42), -3);
  }
  const char* bad[] = {"250ms", "abc", "1.5", "99999999999999999999"};
  for (const char* value : bad) {
    EnvGuard env("XLV_TEST_ENV_LONG", value);
    try {
      util::envLongStrict("XLV_TEST_ENV_LONG", 42);
      FAIL() << "accepted '" << value << "'";
    } catch (const std::invalid_argument& e) {
      // The message names the variable AND the offending value, so the
      // operator can see what to fix without strace.
      EXPECT_NE(std::string(e.what()).find("XLV_TEST_ENV_LONG"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find(value), std::string::npos);
    }
  }
}

// --- ledger JSON -------------------------------------------------------------

TEST(DispatchSched, LedgerJsonCarriesRequeueRecords) {
  ServeLedger ledger;
  ledger.tasksTotal = 5;
  ledger.tasksCompleted = 5;
  ledger.submissions = 6;
  RequeueRecord rec;
  rec.taskIndex = 2;
  rec.unit = ShardUnit{0, 4, 8};
  rec.attempt = 1;
  rec.reason = "heartbeat-timeout";
  rec.workerIndex = 1;
  ledger.requeuedShards.push_back(rec);
  const std::string json = encodeServeLedgerJson(ledger);
  EXPECT_NE(json.find("\"tasksTotal\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"reason\": \"heartbeat-timeout\""), std::string::npos);
  EXPECT_NE(json.find("\"mutantBegin\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"taskIndex\": 2"), std::string::npos);
}

}  // namespace
}  // namespace xlv::campaign
