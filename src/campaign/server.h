// Campaign service: the worker pool's event loop, with a socket front end.
//
// One single-threaded poll(2) loop owns the worker pool of
// campaign/dispatch.h and multiplexes campaigns over it. `xlv_campaignd
// serve` listens on a Unix-domain socket (optionally loopback TCP), accepts
// campaign submissions from many concurrent clients, and runs them over a
// single worker pool and one shared artifact store. `xlv_campaignd run`
// (runDispatcher) starts the same loop without a listener and one
// in-process campaign whose unit outputs collect in memory instead of
// streaming to a socket. The wire protocol is the same length-framed
// codec-document stream the workers speak — FrameReader is transport-
// agnostic, so a socket fd and a pipe are read alike. Client-facing frame
// schemas live in campaign/serialize: ClientSubmitFrame -> AcceptFrame |
// RejectFrame, then streamed ItemResultFrames and a final
// CampaignDoneFrame.
//
// Scheduling is ROUND-ROBIN FAIR ACROSS campaigns and HEAVIEST-FIRST WITHIN
// a campaign: each idle worker takes the heaviest pending unit of the next
// campaign in admission order, so a one-item smoke submission finishes long
// before a million-mutant campaign's tail, while each campaign individually
// keeps the LPT order that makes work-stealing efficient.
//
// Backpressure is a bounded admission queue, never an unbounded buffer: a
// submission that would push the pending-unit total past maxPendingUnits
// (or the campaign count past maxCampaigns) is answered with a structured
// RejectFrame carrying retryAfterMs. An EMPTY server always accepts, so a
// single campaign bigger than the whole budget is still servable.
//
// Crash semantics, both directions:
//   * worker death  — salvage drained results, re-queue the lost unit
//     (attributed to its owning campaign's ledger entry), respawn the slot.
//     A unit exhausting its attempt budget is bisected or quarantined; it
//     costs its own item, never its campaign or the server.
//   * client death  — a dying client's campaign is cancelled: its pending
//     units leave the scheduler immediately, in-flight units run to
//     completion with their results discarded (counted, not merged), and
//     the cancellation lands in the per-campaign ledger.
//
// Every fd — listener, clients, worker pipes — is non-blocking with
// per-connection outbound buffers (OutboundBuffer), so no peer can wedge
// the loop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/dispatch.h"
#include "campaign/shard.h"

namespace xlv::campaign {

struct ServeOptions : PoolOptions {
  /// AF_UNIX listen path; takes precedence over tcpPort. The path is
  /// unlinked (if stale) before bind and removed on shutdown.
  std::string socketPath;
  /// Loopback (127.0.0.1) TCP listen port, used when socketPath is empty.
  int tcpPort = 0;
  /// Admission bound: a submission is rejected when the queued-unit total
  /// would exceed this — unless the server is idle (nothing pending), which
  /// always admits so an oversized single campaign still runs.
  std::size_t maxPendingUnits = 1024;
  /// Admission bound on concurrently live campaigns.
  std::size_t maxCampaigns = 64;
  /// retryAfterMs stamped into backpressure RejectFrames.
  std::uint64_t rejectRetryAfterMs = 1000;
  /// Stop once this many admitted campaigns have left the scheduler
  /// (completed, failed or cancelled) and none remain live; 0 = serve
  /// forever. Tests and the CI soak bound their runs with this.
  std::uint64_t maxCampaignsServed = 0;
  /// Per-CLIENT-connection frame-length cap. A submit frame declaring a
  /// bigger body is answered with a structured RejectFrame before any body
  /// byte is read. Worker pipes keep the trusted 1 GiB codec ceiling — this
  /// bound is about untrusted sockets, not the result stream.
  std::size_t maxClientFrameBytes = std::size_t{16} << 20;
  /// Close a client connection that has been admitted onto the poll set but
  /// has not delivered a complete submit frame within this budget (half-open
  /// or stalled clients). 0 disables the scan.
  int clientReadTimeoutMs = 30000;
  /// Install SIGTERM/SIGINT handlers (self-pipe) that drain the server:
  /// stop admitting, finish in-flight campaigns, flush ledgers, exit
  /// cleanly. A second signal stops immediately. Off by default because
  /// handlers are process-global — the `serve` tool turns it on; embedded
  /// test servers leave signal disposition alone.
  bool enableSignalDrain = false;
};

struct ServeResult {
  ServeLedger ledger;
};

/// Run the campaign server until maxCampaignsServed campaigns finished
/// (blocks forever when that is 0). Throws DispatchError when recovery is
/// impossible (listen/bind failure, the whole worker pool lost with work
/// pending); std::invalid_argument on a malformed request (no listen
/// address, empty workerCommand, non-positive timeouts).
ServeResult runCampaignServer(const ServeOptions& opt);

// --- client ------------------------------------------------------------------

struct SubmitOptions {
  /// AF_UNIX path of the server; takes precedence over tcpPort.
  std::string socketPath;
  /// Loopback TCP port, used when socketPath is empty.
  int tcpPort = 0;
  /// Label stored in the server's per-campaign ledger entry.
  std::string clientName = "xlv_campaign";
  /// Requested unit granularity (0 = the server's default).
  std::size_t maxFragmentMutants = 0;
  /// Test hook: hard-close the socket after receiving this many
  /// ItemResultFrames (-1 = never) — simulates a client dying mid-campaign
  /// so tests and the CI soak can exercise server-side cancellation.
  long disconnectAfterItems = -1;
  /// Server-enforced wall-clock budget for the campaign, measured from
  /// admission (ClientSubmitFrame::deadlineMs). 0 = no deadline.
  std::uint64_t deadlineMs = 0;
  /// Retry budget for RETRYABLE failures only: a structured backpressure
  /// reject (retryAfterMs > 0) or a refused connection. A mid-stream
  /// disconnect is NOT retried — the campaign may still be running
  /// server-side and a blind resubmit would double-run it. 0 = single shot.
  int maxRetries = 0;
  /// First-retry backoff; doubles per retry, floored by the server's
  /// retryAfterMs hint and jittered ±50% so synchronized clients spread out.
  std::uint64_t retryBaseMs = 200;
  /// Seed for the backoff jitter (deterministic tests); 0 derives one from
  /// the pid.
  std::uint64_t retryJitterSeed = 0;
};

/// Everything one submission produced. Exactly one of rejected /
/// disconnected / done is set on a non-error outcome; `error` is non-empty
/// when the transport or protocol failed (or the server's CampaignDoneFrame
/// carried a dispatch error).
struct SubmitOutcome {
  bool accepted = false;      ///< AcceptFrame received
  bool rejected = false;      ///< RejectFrame received (see reason/retryAfterMs)
  bool done = false;          ///< CampaignDoneFrame received
  bool disconnected = false;  ///< the disconnectAfterItems hook fired
  std::string rejectReason;
  std::uint64_t retryAfterMs = 0;
  std::string error;
  std::uint64_t campaignId = 0;
  std::uint64_t unitCount = 0;
  /// Rejected/refused submissions retried before this outcome.
  std::uint64_t retries = 0;
  /// Task indices the server quarantined (CampaignDoneFrame::quarantined).
  /// Non-empty means `result` holds per-item errors for the poisoned items
  /// while every other item merged normally.
  std::vector<std::uint64_t> quarantined;
  /// Streamed per-unit outputs, in arrival order.
  std::vector<ShardOutput> outputs;
  /// mergeShards over `outputs` — bit-identical (sameResults) to a local
  /// runCampaign(spec). Valid when done && error.empty().
  CampaignResult result;
};

/// Submit `spec` to a running server and stream the results back (blocking;
/// returns when the campaign finished, was rejected, or the connection
/// failed — never throws, errors land in SubmitOutcome::error).
SubmitOutcome submitCampaign(const CampaignSpec& spec, const SubmitOptions& opt);

}  // namespace xlv::campaign
