// Campaign worker pool: work-stealing units with crash recovery.
//
// Static sharding (campaign/shard.h) splits a campaign into N
// weight-balanced slices up front — good enough when every fragment costs
// what the planner guessed, and useless when a worker dies. The pool is the
// dynamic counterpart. One event loop (campaign/server.cpp) owns it for
// both `xlv_campaignd serve` and `run`, which is one in-process campaign on
// that loop (runDispatcher below). The loop
//
//   * splits each spec into STEALABLE UNITS (planDispatchUnits — the flat
//     unit/weight list underneath planShards, mutant-range fragments and
//     all) and queues them heaviest-first (TaskQueue),
//   * spawns a pool of worker subprocesses (util/subprocess.h) that each
//     loop { recv unit, run it via runShardUnits, stream the ShardOutput
//     back } (runDispatchWorker),
//   * schedules by WORK-STEALING: a worker that finishes early just claims
//     the next queued unit, so one mispredicted 100x fragment delays one
//     worker, not the whole static plan, and
//   * RE-QUEUES the in-flight unit of any worker that dies (exit, signal)
//     or goes silent past the heartbeat timeout (SIGKILLed first). Retries
//     are safe because unit results are bit-identical by construction —
//     mergeShards deduplicates a retry that raced its dead predecessor's
//     delivered result.
//
// Wire protocol: length-framed util/codec documents over the workers'
// stdin/stdout pipes (frameWire / FrameReader below; frame schemas in
// campaign/serialize.h). Everything is versioned, so a mixed-version
// pool/worker pair refuses to talk instead of skewing results.
//
// The loop is deliberately SINGLE-THREADED (one poll(2) loop): every
// scheduling decision is a deterministic function of the event order, which
// is what the scheduler unit tests pin down.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/shard.h"
#include "util/codec.h"

namespace xlv::campaign {

/// A frame header declared a length above the reader's configured cap.
/// Distinct from a generic framing DecodeError so the campaign service can
/// answer an untrusted client's oversized frame with a structured reject
/// instead of silently dropping the connection.
class FrameCapExceeded : public util::DecodeError {
 public:
  FrameCapExceeded(std::size_t declared, std::size_t cap)
      : util::DecodeError("frame: length " + std::to_string(declared) +
                          " exceeds connection cap " + std::to_string(cap)),
        declaredBytes(declared),
        capBytes(cap) {}
  std::size_t declaredBytes;
  std::size_t capBytes;
};

// --- frame transport ---------------------------------------------------------

/// Wrap one codec document for the pipe: "xlvf <len>\n" + document. The
/// prefix is the only framing layer; the document's own header/version
/// checks still apply after deframing.
std::string frameWire(std::string_view doc);

/// Incremental deframer for a pipe byte stream: feed() arbitrary chunks,
/// next() yields complete documents in order. Malformed framing (bad magic,
/// non-numeric or absurd length) throws util::DecodeError — a corrupted
/// stream must kill the connection, never resync silently.
class FrameReader {
 public:
  /// Append raw bytes from the pipe.
  void feed(std::string_view data);
  /// Extract the next complete document into `doc`; false when the buffer
  /// holds only a partial frame.
  bool next(std::string& doc);
  /// Bytes buffered but not yet returned (0 on a clean EOF boundary).
  std::size_t pendingBytes() const noexcept { return buffer_.size() - pos_; }
  /// Lower the acceptable frame size for this connection (an untrusted
  /// client socket, vs. the default 1 GiB trusted worker-pipe cap). A
  /// header declaring more throws FrameCapExceeded from next().
  void setMaxFrameBytes(std::size_t cap) noexcept { maxFrameBytes_ = cap; }
  std::size_t maxFrameBytes() const noexcept { return maxFrameBytes_; }

 private:
  std::string buffer_;
  std::size_t pos_ = 0;
  std::size_t maxFrameBytes_ = std::size_t{1} << 30;
};

/// Outcome of readFrameBlocking. Eof (peer closed the stream cleanly) and
/// Error (read(2) failed; see the errnoOut parameter) are DISTINCT: treating
/// an I/O failure as "peer finished" silently drops in-flight work.
enum class FrameRead { Frame, Eof, Error };

/// Blocking read of the next complete frame from `fd` into `doc`. Retries
/// EINTR; any other read error yields FrameRead::Error with the errno in
/// *errnoOut (when non-null). Propagates FrameReader's util::DecodeError on
/// a corrupt stream.
FrameRead readFrameBlocking(int fd, FrameReader& reader, std::string& doc,
                            int* errnoOut = nullptr);

/// Per-connection outbound byte queue for a non-blocking fd. The
/// single-threaded event loop never issues a blocking write:
/// frames are enqueue()d here and flushTo() drains as much as the fd
/// accepts, with POLLOUT re-arming the rest. This is the fix for the
/// submit-path deadlock (a worker with a full stdin pipe while itself
/// blocked writing a large result would wedge a blocking dispatcher
/// forever).
class OutboundBuffer {
 public:
  /// Append bytes to the queue (no I/O).
  void enqueue(std::string_view data);
  /// Write as much as `fd` currently accepts. True on progress or EAGAIN
  /// (remaining bytes stay queued for the next POLLOUT); false on a fatal
  /// write error (EPIPE — dead peer), after which the connection is gone.
  bool flushTo(int fd) noexcept;
  bool empty() const noexcept { return buffer_.size() == pos_; }
  /// Bytes enqueued but not yet written.
  std::size_t pendingBytes() const noexcept { return buffer_.size() - pos_; }

 private:
  std::string buffer_;
  std::size_t pos_ = 0;
};

// --- work-stealing task queue ------------------------------------------------

/// One stealable unit with its scheduling state.
struct DispatchTask {
  std::size_t index = 0;  ///< position in the dispatch unit list (== merge shardIndex)
  ShardUnit unit;
  std::uint64_t weight = 1;    ///< planner weight (mutant count)
  std::uint64_t attempts = 0;  ///< submissions so far (1 = first run underway/done)
};

/// Deterministic central queue the workers steal from. Pending tasks are
/// ordered heaviest-first (weight desc, index asc — LPT scheduling), so the
/// expensive fragments start first and the small ones backfill idle
/// workers; a re-queued task goes to the FRONT (it already waited once).
/// Single-threaded by design: only the pool's event loop touches it.
class TaskQueue {
 public:
  TaskQueue() = default;
  explicit TaskQueue(const DispatchUnitPlan& plan);

  std::size_t taskCount() const noexcept { return tasks_.size(); }
  std::size_t pendingCount() const noexcept { return pending_.size(); }
  bool hasPending() const noexcept { return !pending_.empty(); }
  /// True once every task completed or retired.
  bool done() const noexcept { return completed_ + retired_ == tasks_.size(); }
  std::size_t completedCount() const noexcept { return completed_; }
  std::size_t retiredCount() const noexcept { return retired_; }

  /// Pop the heaviest pending task, marking it in flight and counting the
  /// submission attempt. Throws std::logic_error when nothing is pending.
  const DispatchTask& claim();
  /// Return an in-flight task to the front of the queue (lost worker).
  /// Throws std::logic_error unless the task is currently in flight.
  void requeue(std::size_t taskIndex);
  /// Mark a task finished (accepted while in flight OR pending — a killed
  /// worker's already-piped result can land after its task was re-queued).
  /// False (and no state change) when the task already completed — a
  /// duplicate result from a raced retry.
  bool complete(std::size_t taskIndex);
  bool isCompleted(std::size_t taskIndex) const;

  /// Append a NEW pending task (poison-unit bisection: the halves of a
  /// retired fragment). The task gets the next free index — indices are
  /// stable, never reused — a fresh attempt budget, and the front of the
  /// pending order (its parent already waited its turns). Returns the new
  /// task's index.
  std::size_t addTask(const ShardUnit& unit, std::uint64_t weight);

  /// Take an in-flight or pending task out of scheduling WITHOUT counting
  /// it completed: the bisected parent (replaced by its halves) and the
  /// quarantined unit (replaced by a synthesized errored result) both end
  /// here. A retired task counts toward done() but not completedCount(),
  /// and a late genuine result for it reads as a duplicate. Throws
  /// std::logic_error when the task is already completed or retired.
  void retire(std::size_t taskIndex);
  bool isRetired(std::size_t taskIndex) const;

  const DispatchTask& task(std::size_t taskIndex) const { return tasks_.at(taskIndex); }

 private:
  enum class State : unsigned char { Pending, InFlight, Completed, Retired };
  std::vector<DispatchTask> tasks_;
  std::vector<State> states_;
  std::vector<std::size_t> pending_;  ///< task indices, front = next claim
  std::size_t completed_ = 0;
  std::size_t retired_ = 0;
};

// --- worker pool -------------------------------------------------------------

/// Scheduling failed in a way retries cannot fix: the worker pool could not
/// be spawned at all, or every worker slot died with work pending.
/// (Campaign ITEM errors are not dispatch errors — they travel inside the
/// merged result like everywhere else, and so does a quarantined unit.)
class DispatchError : public std::runtime_error {
 public:
  explicit DispatchError(const std::string& what)
      : std::runtime_error("dispatch: " + what) {}
};

/// Worker-pool settings shared by `xlv_campaignd run` (runDispatcher) and
/// `serve` (ServeOptions in campaign/server.h extends this).
struct PoolOptions {
  /// Worker pool size; 0 = resolveWorkerCount(0) (XLV_WORKERS or hardware).
  int workers = 0;
  /// Stealable-unit granularity, as ShardPlanOptions::maxFragmentMutants
  /// (a served submission may override it per campaign).
  std::size_t maxFragmentMutants = 0;
  /// Command prefix that execs ONE WORKER speaking the frame protocol on
  /// stdin/stdout; the pool appends "--index <i> --generation <g>
  /// --heartbeat-ms <n>". Required.
  std::vector<std::string> workerCommand;
  /// Milliseconds between worker heartbeats while a unit runs.
  int heartbeatIntervalMs = 200;
  /// A busy worker silent this long is presumed hung: SIGKILL + re-queue.
  int heartbeatTimeoutMs = 10000;
  /// Submission budget per task (first run + retries). An exhausted
  /// multi-mutant fragment is bisected, an exhausted irreducible unit is
  /// quarantined (its item carries a structured error).
  int maxTaskAttempts = 3;
  /// Respawn budget per worker slot after a crash/kill.
  int maxWorkerRespawns = 2;
};

/// Run mode needs nothing beyond the pool settings.
using DispatchOptions = PoolOptions;

/// One crash-recovery re-queue, as surfaced in the ledger (a killed
/// worker's unit must show up here AND in the merged result).
struct RequeueRecord {
  std::uint64_t campaignId = 0;
  std::uint64_t taskIndex = 0;
  ShardUnit unit;
  std::uint64_t attempt = 0;  ///< 1-based submission attempt that was lost
  std::string reason;  ///< "worker-exit" | "worker-signal" | "heartbeat-timeout" | "submit-write-failed" | "protocol-error"
  std::uint64_t workerIndex = 0;
  std::uint64_t generation = 0;
};

/// One campaign's scheduling record (a served submission, or run mode's
/// single in-process campaign).
struct CampaignLedgerEntry {
  std::uint64_t campaignId = 0;
  std::string name;  ///< ClientSubmitFrame::clientName (run mode: the spec name)
  std::uint64_t unitsTotal = 0;
  std::uint64_t unitsCompleted = 0;
  /// Crash-recovery re-queues attributed to this campaign (its units lost
  /// to dead/hung workers).
  std::uint64_t requeues = 0;
  /// Results that arrived after this campaign was cancelled and were
  /// dropped instead of forwarded.
  std::uint64_t discardedResults = 0;
  bool cancelled = false;
  std::string error;  ///< non-empty when dispatch gave up on the campaign
  /// Poison-unit splits: a multi-mutant fragment that exhausted its attempt
  /// budget is split in half and both halves re-queued, isolating the
  /// poison mutant instead of failing the campaign.
  std::uint64_t bisections = 0;
  /// Task indices of quarantined units — irreducible (whole-item or
  /// single-mutant) units that exhausted their attempts. Their items carry
  /// structured errors; the rest of the campaign completed normally.
  std::vector<std::uint64_t> quarantined;
  /// True when the campaign was still in flight as a drain began and the
  /// server finished it before exiting (informational).
  bool drained = false;
};

/// The worker pool's ledger, the same for both modes.
struct ServeLedger {
  std::uint64_t campaignsAccepted = 0;
  std::uint64_t campaignsRejected = 0;
  std::uint64_t campaignsCompleted = 0;
  std::uint64_t campaignsCancelled = 0;
  /// Units of every finished campaign (final counts: bisection halves
  /// included) and how many of them completed with a genuine result.
  std::uint64_t tasksTotal = 0;
  std::uint64_t tasksCompleted = 0;
  std::uint64_t submissions = 0;       ///< submit frames queued to workers
  std::uint64_t duplicateResults = 0;  ///< retry raced its predecessor's result
  std::uint64_t discardedResults = 0;  ///< results of cancelled campaigns
  std::uint64_t workersRequested = 0;
  std::uint64_t workersSpawned = 0;  ///< processes ever spawned (incl. respawns)
  std::uint64_t workerRespawns = 0;
  std::uint64_t workersKilled = 0;  ///< heartbeat-timeout SIGKILLs
  std::uint64_t heartbeats = 0;
  std::uint64_t quarantinedUnits = 0;  ///< irreducible poison units isolated
  std::uint64_t bisections = 0;        ///< poison-fragment splits
  std::uint64_t deadlineFailures = 0;  ///< campaigns failed past their deadline
  std::uint64_t clientReadTimeouts = 0;  ///< half-open clients closed
  std::uint64_t frameCapRejects = 0;   ///< oversize client frames rejected
  std::uint64_t drainRequests = 0;     ///< drain signals received
  bool drained = false;  ///< the run ended via a drain signal, not quota
  /// Every crash-recovery re-queue, in order.
  std::vector<RequeueRecord> requeuedShards;
  /// Every admitted campaign, in admission order (live ones are finalized
  /// into here when the server stops).
  std::vector<CampaignLedgerEntry> campaigns;
};

/// The ledger as a JSON object (`--ledger`; CI uploads it next to the
/// BENCH_*.json artifacts). Keys are the field names; requeuedShards and
/// campaigns are arrays of objects.
std::string encodeServeLedgerJson(const ServeLedger& ledger);

struct DispatchResult {
  CampaignResult result;  ///< mergeShards output, bit-identical to runCampaign
  ServeLedger ledger;
};

/// Run one campaign through a worker pool: an in-process campaign on the
/// campaign server's event loop (campaign/server.cpp), with no listener.
/// Blocks until every unit completed, was bisected or was quarantined,
/// then merges the collected unit outputs. Throws DispatchError when the
/// pool cannot be spawned or is lost; std::invalid_argument on a malformed
/// request (empty workerCommand, non-positive timeouts).
DispatchResult runDispatcher(const CampaignSpec& spec, const DispatchOptions& opt);

struct DispatchWorkerOptions {
  int workerIndex = 0;
  int generation = 0;
  int heartbeatIntervalMs = 200;
  int inFd = 0;    ///< frames from the pool (stdin)
  int outFd = 1;   ///< frames to the pool (stdout)
};

/// Worker main loop (the "worker" subcommand of tools/xlv_campaignd): recv
/// SubmitFrames, run each unit via runShardUnits, stream StatusFrame /
/// HeartbeatFrame / ResultFrame back. Returns the process exit code: 0
/// after a clean shutdown frame or pool EOF, nonzero on protocol errors
/// (codec version skew, spec fingerprint mismatch, stdin I/O failure).
///
/// Every submit names its campaign's spec handoff file (specPath); the
/// worker loads and caches it keyed by path, which is how one pool serves
/// many campaigns at once. The SubmitFrame's specFnv must match the spec
/// actually loaded, or the worker refuses with exit 8.
///
/// Fault-injection hooks (tests/campaign/dispatch_fault_test.cpp), honored
/// only when XLV_TEST_FAULT_WORKER (default 0) names this workerIndex AND
/// generation == 0, so the respawned worker recovers:
///   XLV_TEST_DIE_AFTER_ITEMS=N   raise(SIGKILL) on accepting a unit once
///                                itemsDone >= N (crash mid-shard);
///   XLV_TEST_HANG_AFTER_ITEMS=N  stop heartbeating and sleep forever
///                                (exercises the heartbeat timeout);
///   XLV_TEST_EXIT_AFTER_ITEMS=N  _exit(9) (orderly-looking failure).
/// XLV_TEST_POISON_ITEM=I with XLV_TEST_POISON_MUTANT=M makes EVERY worker
/// SIGKILL itself on a unit covering item I's mutant M (a poison unit).
int runDispatchWorker(const DispatchWorkerOptions& opt);

/// Worker pool size: `requested` when > 0, else strict-parsed XLV_WORKERS
/// (an integer in [1, 1024], else std::invalid_argument), else
/// hardware_concurrency (>= 1).
int resolveWorkerCount(int requested);

}  // namespace xlv::campaign
