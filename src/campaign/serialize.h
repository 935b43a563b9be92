// Cross-process serialization of the campaign domain types.
//
// Process-level sharding (campaign/shard.h) ships a CampaignSpec to worker
// processes and ships their CampaignResults back; the codecs here are the
// wire layer for both, built on util/codec.h (versioned header,
// length-prefixed fields, strict field-order checking).
//
// Two deliberate asymmetries versus the in-memory structs:
//
//   * Case studies travel BY NAME. A CaseStudy owns an elaborated module and
//     a testbench closure — neither serializes — and every process links the
//     same IP builders, so the name ("Plasma", "DSP", "Filter", "Handshake")
//     is the complete, version-checked identity. decodeCampaignSpec rebuilds
//     the case study through buildCaseStudyByName and re-derives what the
//     builders own; an unknown name is a DecodeError.
//
//   * Results carry the PORTABLE subset of a FlowReport: every field
//     CampaignResult::sameResults compares (per-mutant analysis results,
//     mutant specs, inserted sensors, STA/LoC/area summary) plus the
//     timing/cache ledgers — but not the elaborated designs. A decoded
//     result therefore supports sameResults, ok(), find() and ledger
//     aggregation bit-exactly, which is all the merge and diff paths need.
//
// Every encoder is byte-stable: encode(decode(encode(x))) == encode(x)
// (doubles are hexfloat-rendered, so finite values round-trip exactly).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/shard.h"

namespace xlv::campaign {

/// Domain schema version shared by every campaign codec; bump on any field
/// change so stale shard artifacts are rejected instead of misread.
/// v2: FlowOptions::useMutantCache, the mutant/disk cache ledgers on
/// AnalysisReport and CampaignResult, and the flow-prefix artifact codec.
/// v3: the cyclesSimulated/cyclesSkipped ledgers of the divergence-driven
/// mutant simulation on AnalysisReport and CampaignResult.
/// v4: FlowOptions::backend/batch/measureTlm and the native-backend ledgers
/// (nativeCompiles/nativeCacheHits/batchedMutants) on AnalysisReport and
/// CampaignResult.
/// v5: the dispatcher daemon wire frames (submit/status/heartbeat/result,
/// campaign/dispatch.h) — mixed-version dispatcher/worker pairs must refuse
/// to talk, so the frame schema shares the campaign domain version.
/// v6: the socket service (campaign/server.h) — SubmitFrame/ResultFrame gain
/// the campaignId/specPath multiplexing coordinates, and the client-facing
/// frames (client-submit/accept/reject/item-result/done) join the schema.
/// v7: fault tolerance — ClientSubmitFrame gains the optional deadlineMs,
/// CampaignDoneFrame carries the quarantined unit indices (poison units
/// isolated by bisection instead of failing their campaign).
inline constexpr int kCampaignCodecVersion = 7;

/// Names accepted by buildCaseStudyByName (the spec wire format's case-study
/// identity space).
std::vector<std::string> knownCaseStudyNames();

/// Rebuild a case study from its wire name; throws util::DecodeError on an
/// unknown name.
ips::CaseStudy buildCaseStudyByName(const std::string& name);

std::string encodeCampaignSpec(const CampaignSpec& spec);
CampaignSpec decodeCampaignSpec(std::string_view data);

std::string encodeCampaignResult(const CampaignResult& result);
CampaignResult decodeCampaignResult(std::string_view data);

std::string encodeAnalysisReport(const analysis::AnalysisReport& report);
analysis::AnalysisReport decodeAnalysisReport(std::string_view data);

std::string encodeMutantResult(const analysis::MutantResult& result);
analysis::MutantResult decodeMutantResult(std::string_view data);

/// Disk-spill codec of a core::FlowPrefix (the elaborate+insertion result
/// shared by sweep points; util/artifact_store.h domain "prefix"). The
/// designs themselves do not serialize — the artifact carries the STA
/// report plus the inserted-sensor list, and decodeFlowPrefix re-derives
/// everything else deterministically via core::rebuildFlowPrefix against
/// the given (cs, opts). A stored artifact whose identity or rebuilt
/// sensors disagree with (cs, opts) throws util::DecodeError, which the
/// store treats as corruption: rebuild, never a wrong prefix.
std::string encodeFlowPrefix(const core::FlowPrefix& prefix);
core::FlowPrefix decodeFlowPrefix(std::string_view data, const ips::CaseStudy& cs,
                                  const core::FlowOptions& opts);

// --- dispatcher daemon wire frames (campaign/dispatch.h; codec v5) -----------
//
// The dispatcher and its worker subprocesses speak length-framed codec
// documents over pipes (later: sockets). Four frame kinds; every one is
// versioned with kCampaignCodecVersion, so a dispatcher never feeds work to
// a worker built against a different schema. util::peekDocumentTag picks
// the decoder; all four decoders are strict (DecodeError on truncation,
// corruption, reordering or version skew) and byte-stable.

/// Dispatcher -> worker: run one stealable unit (a whole campaign item or a
/// mutant-range fragment), or shut down cleanly.
struct SubmitFrame {
  std::uint64_t specFnv = 0;    ///< fingerprint of the spec the unit belongs to
  /// Which campaign the unit belongs to (the pool multiplexes several,
  /// campaign/server.h).
  std::uint64_t campaignId = 0;
  std::uint64_t seq = 0;        ///< dispatcher-wide submission sequence number
  std::uint64_t taskIndex = 0;  ///< index into the campaign's dispatch unit list
  std::uint64_t taskCount = 0;  ///< total units (the merge's shardCount)
  std::uint64_t attempt = 0;    ///< 0 = first run, >0 = crash-recovery retry
  ShardUnit unit;
  /// Spec handoff file for this unit's campaign: the worker loads (and
  /// caches by path) the spec from here, which is how one worker pool
  /// serves many campaigns. specFnv must match the loaded spec.
  std::string specPath;
  bool shutdown = false;  ///< true: no more work; unit/task fields ignored
  bool operator==(const SubmitFrame&) const = default;
};

/// Worker -> dispatcher: lifecycle announcement ("ready" after spawn and
/// after each completed unit; "working" right after accepting a submit).
struct StatusFrame {
  std::uint64_t workerIndex = 0;
  std::uint64_t generation = 0;  ///< respawn generation of the worker slot
  std::uint64_t itemsDone = 0;   ///< units completed by this worker process
  std::string state;             ///< "ready" | "working"
  bool operator==(const StatusFrame&) const = default;
};

/// Worker -> dispatcher: periodic liveness beat while a unit is running. A
/// busy worker silent past the dispatcher's heartbeat timeout is SIGKILLed
/// and its unit re-queued.
struct HeartbeatFrame {
  std::uint64_t workerIndex = 0;
  std::uint64_t generation = 0;
  std::uint64_t seq = 0;  ///< submission this beat is for
  std::uint64_t itemsDone = 0;
  bool operator==(const HeartbeatFrame&) const = default;
};

/// Worker -> dispatcher: one completed unit's ShardOutput (shardIndex =
/// taskIndex, shardCount = taskCount), streamed back as soon as it
/// finishes so the dispatcher can merge incrementally.
struct ResultFrame {
  std::uint64_t campaignId = 0;  ///< echoed from the SubmitFrame (0 in run mode)
  std::uint64_t seq = 0;
  std::uint64_t taskIndex = 0;
  std::uint64_t attempt = 0;
  ShardOutput output;
  bool operator==(const ResultFrame&) const;
};

std::string encodeSubmitFrame(const SubmitFrame& f);
SubmitFrame decodeSubmitFrame(std::string_view data);
std::string encodeStatusFrame(const StatusFrame& f);
StatusFrame decodeStatusFrame(std::string_view data);
std::string encodeHeartbeatFrame(const HeartbeatFrame& f);
HeartbeatFrame decodeHeartbeatFrame(std::string_view data);
std::string encodeResultFrame(const ResultFrame& f);
ResultFrame decodeResultFrame(std::string_view data);

// --- socket-service client frames (campaign/server.h; codec v6) --------------
//
// The same length-framed transport, pointed at a socket instead of a pipe:
// a client connection carries exactly one campaign. Sequence:
//
//   client: ClientSubmitFrame          (spec travels inline, by value)
//   server: AcceptFrame | RejectFrame  (reject = backpressure; retryAfterMs)
//   server: ItemResultFrame*           (one per completed unit, as finished)
//   server: CampaignDoneFrame          (then the server closes the socket)
//
// The client reassembles the streamed ItemResultFrames with mergeShards,
// which is what makes the served result sameResults-bit-identical to a
// local run.

/// Client -> server: submit one campaign for dispatch.
struct ClientSubmitFrame {
  std::string clientName;  ///< free-form label for the server's ledger
  std::string spec;        ///< encodeCampaignSpec document, by value
  /// Stealable-unit granularity for this campaign (ShardPlanOptions::
  /// maxFragmentMutants); 0 = the server's default.
  std::uint64_t maxFragmentMutants = 0;
  /// Server-enforced wall-clock budget for the whole campaign, in
  /// milliseconds since admission; 0 = no deadline. An overdue campaign
  /// fails with a structured error instead of occupying the pool forever.
  std::uint64_t deadlineMs = 0;
  bool operator==(const ClientSubmitFrame&) const = default;
};

/// Server -> client: the campaign was admitted and queued.
struct AcceptFrame {
  std::uint64_t campaignId = 0;  ///< server-assigned, nonzero
  std::uint64_t specFnv = 0;     ///< fingerprint the server will dispatch under
  std::uint64_t unitCount = 0;   ///< stealable units planned (the merge's shardCount)
  bool operator==(const AcceptFrame&) const = default;
};

/// Server -> client: the campaign was NOT admitted. Backpressure is a
/// structured frame, never an unbounded buffer: retryAfterMs > 0 means the
/// admission queue was full and the client should retry later; 0 means the
/// submission itself was invalid (malformed spec) and a retry is pointless.
struct RejectFrame {
  std::string reason;
  std::uint64_t retryAfterMs = 0;
  bool operator==(const RejectFrame&) const = default;
};

/// Server -> client: one completed unit's ShardOutput, streamed as soon as
/// it finishes (shardIndex = taskIndex, shardCount = taskCount).
struct ItemResultFrame {
  std::uint64_t campaignId = 0;
  std::uint64_t taskIndex = 0;
  std::uint64_t taskCount = 0;
  ShardOutput output;
  bool operator==(const ItemResultFrame&) const;
};

/// Server -> client: the campaign left the scheduler. error is empty on
/// success; non-empty when dispatch gave up (a unit exhausted its attempt
/// budget). cancelled is set when the server dropped the campaign (client
/// disconnect) — such a frame is only ever seen in the server's ledger,
/// since the client is gone.
struct CampaignDoneFrame {
  std::uint64_t campaignId = 0;
  std::uint64_t unitsTotal = 0;
  std::uint64_t unitsCompleted = 0;
  std::uint64_t requeues = 0;  ///< crash-recovery re-queues attributed to this campaign
  bool cancelled = false;
  std::string error;
  /// Task indices of quarantined units: poison units whose attempt budget
  /// exhausted even after bisection isolated them down to an irreducible
  /// fragment. Their items carry structured per-item errors in the streamed
  /// outputs; the rest of the campaign completed normally. unitsTotal is
  /// the FINAL unit count (bisection appends tasks), so the client must
  /// normalize its streamed outputs' shardCount to it before merging.
  std::vector<std::uint64_t> quarantined;
  bool operator==(const CampaignDoneFrame&) const = default;
};

std::string encodeClientSubmitFrame(const ClientSubmitFrame& f);
ClientSubmitFrame decodeClientSubmitFrame(std::string_view data);
std::string encodeAcceptFrame(const AcceptFrame& f);
AcceptFrame decodeAcceptFrame(std::string_view data);
std::string encodeRejectFrame(const RejectFrame& f);
RejectFrame decodeRejectFrame(std::string_view data);
std::string encodeItemResultFrame(const ItemResultFrame& f);
ItemResultFrame decodeItemResultFrame(std::string_view data);
std::string encodeCampaignDoneFrame(const CampaignDoneFrame& f);
CampaignDoneFrame decodeCampaignDoneFrame(std::string_view data);

/// The codec tags of the frames ("dispatch-submit" etc.), as
/// util::peekDocumentTag reports them.
extern const char* const kSubmitFrameTag;
extern const char* const kStatusFrameTag;
extern const char* const kHeartbeatFrameTag;
extern const char* const kResultFrameTag;
extern const char* const kClientSubmitFrameTag;
extern const char* const kAcceptFrameTag;
extern const char* const kRejectFrameTag;
extern const char* const kItemResultFrameTag;
extern const char* const kCampaignDoneFrameTag;

}  // namespace xlv::campaign
