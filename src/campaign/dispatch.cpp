#include "campaign/dispatch.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <numeric>
#include <thread>

#include "campaign/serialize.h"
#include "util/codec.h"
#include "util/env.h"
#include "util/fault_point.h"
#include "util/log.h"

namespace xlv::campaign {

// --- frame transport ---------------------------------------------------------

namespace {

constexpr std::string_view kFrameMagic = "xlvf ";
/// A frame bigger than this is certainly a corrupted length, not a result
/// (the largest real document is one shard's campaign result).
constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 30;

}  // namespace

std::string frameWire(std::string_view doc) {
  std::string out(kFrameMagic);
  out += std::to_string(doc.size());
  out += '\n';
  out.append(doc);
  return out;
}

void FrameReader::feed(std::string_view data) { buffer_.append(data); }

bool FrameReader::next(std::string& doc) {
  // Reclaim consumed prefix once it dominates the buffer, so a long-lived
  // worker stream does not grow without bound.
  if (pos_ > 4096 && pos_ > buffer_.size() / 2) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  const std::string_view rest = std::string_view(buffer_).substr(pos_);
  if (rest.empty()) return false;
  const std::size_t nl = rest.find('\n');
  if (nl == std::string_view::npos) {
    // "xlvf " + a 20-digit length is the longest legal header.
    if (rest.size() > kFrameMagic.size() + 20) {
      throw util::DecodeError("frame: unterminated header");
    }
    // Reject a wrong magic as soon as enough bytes exist to know.
    if (rest.substr(0, kFrameMagic.size()) !=
        kFrameMagic.substr(0, std::min(rest.size(), kFrameMagic.size()))) {
      throw util::DecodeError("frame: bad magic");
    }
    return false;
  }
  const std::string_view header = rest.substr(0, nl);
  if (header.substr(0, kFrameMagic.size()) != kFrameMagic) {
    throw util::DecodeError("frame: bad magic in header '" + std::string(header) + "'");
  }
  const std::string_view digits = header.substr(kFrameMagic.size());
  if (digits.empty()) throw util::DecodeError("frame: missing length");
  std::size_t len = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') {
      throw util::DecodeError("frame: non-numeric length '" + std::string(digits) + "'");
    }
    len = len * 10 + static_cast<std::size_t>(c - '0');
    if (len > kMaxFrameBytes) {
      throw util::DecodeError("frame: implausible length " + std::string(digits));
    }
  }
  // The per-connection cap rejects the frame from its header alone — an
  // untrusted client cannot make the server buffer the body first.
  if (len > maxFrameBytes_) throw FrameCapExceeded(len, maxFrameBytes_);
  if (rest.size() - nl - 1 < len) return false;
  doc.assign(rest.substr(nl + 1, len));
  pos_ += nl + 1 + len;
  return true;
}

// --- work-stealing task queue ------------------------------------------------

TaskQueue::TaskQueue(const DispatchUnitPlan& plan) {
  tasks_.reserve(plan.units.size());
  for (std::size_t i = 0; i < plan.units.size(); ++i) {
    DispatchTask t;
    t.index = i;
    t.unit = plan.units[i];
    t.weight = i < plan.weights.size() ? std::max<std::uint64_t>(plan.weights[i], 1) : 1;
    tasks_.push_back(t);
  }
  states_.assign(tasks_.size(), State::Pending);
  pending_.resize(tasks_.size());
  std::iota(pending_.begin(), pending_.end(), std::size_t{0});
  // Heaviest-first (LPT): the classic work-stealing order — mispredicting a
  // big fragment late is what wrecks a static plan, so big ones go first
  // and small ones backfill. Index-ascending tie-break keeps the order a
  // pure function of the plan.
  std::stable_sort(pending_.begin(), pending_.end(), [&](std::size_t a, std::size_t b) {
    if (tasks_[a].weight != tasks_[b].weight) return tasks_[a].weight > tasks_[b].weight;
    return a < b;
  });
}

const DispatchTask& TaskQueue::claim() {
  if (pending_.empty()) throw std::logic_error("TaskQueue::claim: nothing pending");
  const std::size_t idx = pending_.front();
  pending_.erase(pending_.begin());
  states_[idx] = State::InFlight;
  ++tasks_[idx].attempts;
  return tasks_[idx];
}

void TaskQueue::requeue(std::size_t taskIndex) {
  if (taskIndex >= tasks_.size() || states_[taskIndex] != State::InFlight) {
    throw std::logic_error("TaskQueue::requeue: task " + std::to_string(taskIndex) +
                           " is not in flight");
  }
  states_[taskIndex] = State::Pending;
  // Front of the queue: the lost unit already waited a full turn, and it is
  // statistically the heaviest thing outstanding (it was claimed earliest).
  pending_.insert(pending_.begin(), taskIndex);
}

bool TaskQueue::complete(std::size_t taskIndex) {
  if (taskIndex >= tasks_.size()) {
    throw std::logic_error("TaskQueue::complete: task " + std::to_string(taskIndex) +
                           " out of range");
  }
  // A retired task's late genuine result reads as a duplicate: its slot is
  // already represented (quarantine synthesis or bisected halves).
  if (states_[taskIndex] == State::Completed || states_[taskIndex] == State::Retired) {
    return false;
  }
  if (states_[taskIndex] == State::Pending) {
    // A dead worker's drained result completed a unit that was already
    // re-queued; pull it back out of the pending order.
    pending_.erase(std::remove(pending_.begin(), pending_.end(), taskIndex),
                   pending_.end());
  }
  states_[taskIndex] = State::Completed;
  ++completed_;
  return true;
}

bool TaskQueue::isCompleted(std::size_t taskIndex) const {
  return taskIndex < states_.size() && states_[taskIndex] == State::Completed;
}

std::size_t TaskQueue::addTask(const ShardUnit& unit, std::uint64_t weight) {
  DispatchTask t;
  t.index = tasks_.size();
  t.unit = unit;
  t.weight = std::max<std::uint64_t>(weight, 1);
  tasks_.push_back(t);
  states_.push_back(State::Pending);
  // Front of the queue, like a requeue: the parent fragment this half came
  // from already waited its full turns.
  pending_.insert(pending_.begin(), t.index);
  return tasks_.back().index;
}

void TaskQueue::retire(std::size_t taskIndex) {
  if (taskIndex >= tasks_.size() || states_[taskIndex] == State::Completed ||
      states_[taskIndex] == State::Retired) {
    throw std::logic_error("TaskQueue::retire: task " + std::to_string(taskIndex) +
                           " is not retirable");
  }
  if (states_[taskIndex] == State::Pending) {
    pending_.erase(std::remove(pending_.begin(), pending_.end(), taskIndex),
                   pending_.end());
  }
  states_[taskIndex] = State::Retired;
  ++retired_;
}

bool TaskQueue::isRetired(std::size_t taskIndex) const {
  return taskIndex < states_.size() && states_[taskIndex] == State::Retired;
}

// --- shared helpers ----------------------------------------------------------

namespace {

bool writeFd(int fd, std::string_view data) noexcept {
  // Chaos hook on the worker-side frame write: a "fail" loses the frame
  // outright, a "short" delivers a prefix (the peer's FrameReader sees a
  // truncated stream). Either way writeFd reports failure, so the worker
  // takes its real pipe-write-failed exit path.
  switch (util::faultPoint("frame.write")) {
    case util::FaultAction::Fail:
      return false;
    case util::FaultAction::Short:
      writeAll(fd, data.substr(0, data.size() / 2));
      return false;
    case util::FaultAction::None:
      break;
  }
  return writeAll(fd, data);
}

}  // namespace

bool writeAll(int fd, std::string_view data) noexcept {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void ignoreSigpipe() { ::signal(SIGPIPE, SIG_IGN); }

FrameRead readFrameBlocking(int fd, FrameReader& reader, std::string& doc,
                            int* errnoOut) {
  if (errnoOut != nullptr) *errnoOut = 0;
  if (reader.next(doc)) return FrameRead::Frame;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      // NOT an EOF: a failed read means the bytes may still be in flight
      // somewhere, and pretending the peer finished cleanly silently drops
      // whatever unit was riding this stream.
      if (errnoOut != nullptr) *errnoOut = errno;
      return FrameRead::Error;
    }
    if (n == 0) return FrameRead::Eof;
    reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    if (reader.next(doc)) return FrameRead::Frame;
  }
}

void OutboundBuffer::enqueue(std::string_view data) {
  // Reclaim the consumed prefix once it dominates, same policy as
  // FrameReader: a long-lived connection must not grow without bound.
  if (pos_ > 4096 && pos_ > buffer_.size() / 2) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(data);
}

bool OutboundBuffer::flushTo(int fd) noexcept {
  // Chaos hook on the pool-side frame write: "fail" reports
  // the connection dead without writing; "short" delivers half of what is
  // queued first, so the peer sees a truncated stream. Both exercise the
  // same recovery the real EPIPE path takes.
  util::FaultAction fault = util::FaultAction::None;
  std::size_t shortBudget = 0;
  if (pos_ < buffer_.size()) {
    fault = util::faultPoint("frame.write");
    if (fault == util::FaultAction::Fail) return false;
    if (fault == util::FaultAction::Short) shortBudget = (buffer_.size() - pos_) / 2;
  }
  while (pos_ < buffer_.size()) {
    if (fault == util::FaultAction::Short && shortBudget == 0) return false;
    std::size_t want = buffer_.size() - pos_;
    if (fault == util::FaultAction::Short) want = std::min(want, shortBudget);
    const ssize_t n = ::write(fd, buffer_.data() + pos_, want);
    if (n > 0) {
      pos_ += static_cast<std::size_t>(n);
      if (fault == util::FaultAction::Short) shortBudget -= static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;  // EPIPE (dead peer) or another fatal write error
  }
  buffer_.clear();
  pos_ = 0;
  return true;
}

int resolveWorkerCount(int requested) {
  if (requested > 0) return requested;
  if (requested < 0) return 1;
  // Strict: a worker pool is what the user explicitly asked the daemon for,
  // so a typo stops the run instead of silently fanning out differently.
  const long env = util::envLongStrict("XLV_WORKERS", 0, 1, 1024);
  if (env > 0) return static_cast<int>(env);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// --- worker ------------------------------------------------------------------

namespace {

/// Fault hooks are armed only for one worker slot's ORIGINAL process: the
/// respawned generation must recover, which is exactly what the fault test
/// asserts.
bool faultHookArmed(int workerIndex, int generation) {
  if (generation != 0) return false;
  return util::envLongStrict("XLV_TEST_FAULT_WORKER", 0) == static_cast<long>(workerIndex);
}

/// Poison-unit hook: unlike the per-slot hooks above this one is armed for
/// EVERY worker and every generation, because a poison unit by definition
/// kills whoever runs it.  The server's quarantine path is what the matching
/// test asserts, so the hook must survive respawns and work stealing.
void maybeInjectPoison(const ShardUnit& unit) {
  const long item = util::envLongStrict("XLV_TEST_POISON_ITEM", -1);
  if (item < 0 || unit.taskId != static_cast<std::size_t>(item)) return;
  const long mutant = util::envLongStrict("XLV_TEST_POISON_MUTANT", -1);
  if (mutant < 0) return;
  const bool hit = unit.wholeItem() ||
                   (unit.mutantBegin <= static_cast<std::size_t>(mutant) &&
                    static_cast<std::size_t>(mutant) < unit.mutantEnd);
  if (hit) ::raise(SIGKILL);
}

void maybeInjectFault(int workerIndex, int generation, std::uint64_t itemsDone) {
  if (!faultHookArmed(workerIndex, generation)) return;
  const long dieAfter = util::envLongStrict("XLV_TEST_DIE_AFTER_ITEMS", -1);
  if (dieAfter >= 0 && itemsDone >= static_cast<std::uint64_t>(dieAfter)) {
    ::raise(SIGKILL);  // crash mid-shard, no unwinding, no result
  }
  const long exitAfter = util::envLongStrict("XLV_TEST_EXIT_AFTER_ITEMS", -1);
  if (exitAfter >= 0 && itemsDone >= static_cast<std::uint64_t>(exitAfter)) {
    ::_exit(9);  // orderly-looking nonzero exit without a result
  }
  const long hangAfter = util::envLongStrict("XLV_TEST_HANG_AFTER_ITEMS", -1);
  if (hangAfter >= 0 && itemsDone >= static_cast<std::uint64_t>(hangAfter)) {
    for (;;) ::pause();  // silent: no heartbeats, no result, never returns
  }
}

}  // namespace

int runDispatchWorker(const DispatchWorkerOptions& opt) {
  ignoreSigpipe();
  const std::uint64_t index = static_cast<std::uint64_t>(opt.workerIndex);
  const std::uint64_t generation = static_cast<std::uint64_t>(opt.generation);
  FrameReader reader;
  std::uint64_t itemsDone = 0;

  auto sendStatus = [&](const char* state) {
    StatusFrame st;
    st.workerIndex = index;
    st.generation = generation;
    st.itemsDone = itemsDone;
    st.state = state;
    return writeFd(opt.outFd, frameWire(encodeStatusFrame(st)));
  };

  if (!sendStatus("ready")) return 6;

  for (;;) {
    std::string doc;
    FrameRead got = FrameRead::Eof;
    int readErrno = 0;
    try {
      got = readFrameBlocking(opt.inFd, reader, doc, &readErrno);
    } catch (const util::DecodeError& e) {
      XLV_ERROR("campaignd") << "worker " << index << ": corrupt frame stream: " << e.what();
      return 7;
    }
    if (got == FrameRead::Eof) return 0;  // the pool closed our stdin: clean shutdown
    if (got == FrameRead::Error) {
      XLV_ERROR("campaignd") << "worker " << index
                             << ": stdin read failed: " << std::strerror(readErrno);
      return 11;
    }

    SubmitFrame submit;
    try {
      submit = decodeSubmitFrame(doc);
    } catch (const util::DecodeError& e) {
      // Version skew, an unknown case study or an unexpected frame kind;
      // refusing to talk beats running a unit from a different schema.
      XLV_ERROR("campaignd") << "worker " << index << ": bad submit frame: " << e.what();
      return 7;
    }
    if (submit.shutdown) return 0;

    maybeInjectPoison(submit.unit);
    maybeInjectFault(opt.workerIndex, opt.generation, itemsDone);

    if (!sendStatus("working")) return 6;

    // Heartbeats ride a helper thread for the duration of the unit; it is
    // the only stdout writer while it lives (joined before the result goes
    // out), so no write interleaving is possible.
    std::mutex beatMutex;
    std::condition_variable beatCv;
    bool beatStop = false;
    std::thread beater([&] {
      std::unique_lock<std::mutex> lock(beatMutex);
      const auto interval = std::chrono::milliseconds(std::max(1, opt.heartbeatIntervalMs));
      while (!beatCv.wait_for(lock, interval, [&] { return beatStop; })) {
        HeartbeatFrame beat;
        beat.workerIndex = index;
        beat.generation = generation;
        beat.seq = submit.seq;
        beat.itemsDone = itemsDone;
        lock.unlock();
        writeFd(opt.outFd, frameWire(encodeHeartbeatFrame(beat)));
        lock.lock();
      }
    });
    auto stopBeater = [&] {
      {
        std::lock_guard<std::mutex> lock(beatMutex);
        beatStop = true;
      }
      beatCv.notify_all();
      beater.join();
    };

    ResultFrame result;
    result.campaignId = submit.campaignId;
    result.seq = submit.seq;
    result.taskIndex = submit.taskIndex;
    result.attempt = submit.attempt;
    try {
      result.output = runUnitFrame(submit);
    } catch (const std::exception& e) {
      stopBeater();
      // Item-level failures travel INSIDE the result; reaching here means
      // the frame itself was malformed (not exactly one item). The pool
      // sees the death and re-queues; the attempt budget then quarantines
      // an unrunnable unit instead of looping forever.
      XLV_ERROR("campaignd") << "worker " << index << ": unit failed: " << e.what();
      return 10;
    }
    stopBeater();

    if (!writeFd(opt.outFd, frameWire(encodeResultFrame(result)))) return 6;
    ++itemsDone;
    if (!sendStatus("ready")) return 6;
  }
}

}  // namespace xlv::campaign
