#include "campaign/serialize.h"

#include "analysis/mutant_cache.h"
#include "util/codec.h"

namespace xlv::campaign {

using util::DecodeError;

const char* const kSubmitFrameTag = "dispatch-submit";
const char* const kStatusFrameTag = "dispatch-status";
const char* const kHeartbeatFrameTag = "dispatch-heartbeat";
const char* const kResultFrameTag = "dispatch-result";
const char* const kClientSubmitFrameTag = "client-submit";
const char* const kAcceptFrameTag = "dispatch-accept";
const char* const kRejectFrameTag = "dispatch-reject";
const char* const kItemResultFrameTag = "dispatch-item-result";
const char* const kCampaignDoneFrameTag = "dispatch-done";

namespace {

constexpr const char* kSpecTag = "campaign-spec";
constexpr const char* kResultTag = "campaign-result";
constexpr const char* kAnalysisTag = "analysis-report";
constexpr const char* kMutantTag = "mutant-result";
constexpr const char* kPrefixTag = "flow-prefix";
constexpr const char* kOutputTag = "shard-output";

// --- field lists (util/codec.h) ----------------------------------------------
// One visitor per record, its fields in wire order, drives both encode and
// decode. Enums travel as their canonical names (insertion::sensorKindName,
// core::mutantSetVariantName, mutation::mutantKindName,
// analysis::simBackendName), not raw integers: the reader rejects a name a
// different build would interpret differently, and documents stay
// human-readable.

template <class Ar>
void fields(Ar& ar, sta::Corner& c) {
  ar.str("corner.name", c.name);
  ar.f64("corner.process", c.processFactor);
  ar.f64("corner.voltage", c.voltageFactor);
  ar.f64("corner.temperature", c.temperatureFactor);
}

template <class Ar>
void fields(Ar& ar, core::FlowOptions& o) {
  ar.enumeration("opt.sensorKind", o.sensorKind, insertion::sensorKindName,
                 insertion::kSensorKinds);
  ar.u64("opt.testbenchCycles", o.testbenchCycles);
  if (ar.has("opt.hasCorner", o.staCorner)) fields(ar, *o.staCorner);
  if (ar.has("opt.hasThreshold", o.staThresholdFraction)) {
    ar.f64("opt.threshold", *o.staThresholdFraction);
  }
  if (ar.has("opt.hasSpread", o.staSpreadFraction)) ar.f64("opt.spread", *o.staSpreadFraction);
  if (ar.has("opt.hasHfRatio", o.hfRatio)) ar.i64("opt.hfRatio", *o.hfRatio);
  ar.enumeration("opt.mutantSet", o.mutantSet, core::mutantSetVariantName,
                 core::kMutantSetVariants);
  ar.u64("opt.mutantBegin", o.mutantBegin);
  ar.u64("opt.mutantEnd", o.mutantEnd);
  ar.boolean("opt.useGoldenCache", o.useGoldenCache);
  ar.boolean("opt.useMutantCache", o.useMutantCache);
  ar.i64("opt.timingRepetitions", o.timingRepetitions);
  ar.boolean("opt.measureRtl", o.measureRtl);
  ar.boolean("opt.measureOptimized", o.measureOptimized);
  ar.boolean("opt.runMutationAnalysis", o.runMutationAnalysis);
  ar.i64("opt.analysisThreads", o.analysisThreads);
  ar.enumeration("opt.backend", o.backend, analysis::simBackendName, analysis::kSimBackends);
  ar.i64("opt.batch", o.batch);
  ar.boolean("opt.measureTlm", o.measureTlm);
}

template <class Ar>
void fields(Ar& ar, mutation::MutantSpec& m) {
  ar.str("spec.target", m.targetSignal);
  ar.enumeration("spec.kind", m.kind, mutation::mutantKindName, mutation::kMutantKinds);
  ar.i64("spec.deltaTicks", m.deltaTicks);
}

// The content fields come from the ONE shared field list
// (analysis::mutantResultFields), so this wire codec and the disk artifact
// codec cannot drift apart; only the id — variant-local, excluded from
// artifacts — is added here.
template <class Ar>
void fields(Ar& ar, analysis::MutantResult& r) {
  ar.i64("mut.id", r.id);
  analysis::mutantResultFields(ar, "mut.", r);
}

template <class Ar>
void fields(Ar& ar, analysis::AnalysisReport& a) {
  ar.u64("an.cyclesPerRun", a.cyclesPerRun);
  ar.u64("an.cyclesSimulated", a.cyclesSimulated);
  ar.u64("an.cyclesSkipped", a.cyclesSkipped);
  ar.f64("an.simSeconds", a.simSeconds);
  ar.f64("an.wallSeconds", a.wallSeconds);
  ar.f64("an.goldenSeconds", a.goldenSeconds);
  ar.boolean("an.goldenFromCache", a.goldenFromCache);
  ar.boolean("an.goldenFromDisk", a.goldenFromDisk);
  ar.i64("an.mutantCacheHits", a.mutantCacheHits);
  ar.i64("an.threadsUsed", a.threadsUsed);
  ar.i64("an.nativeCompiles", a.nativeCompiles);
  ar.i64("an.nativeCacheHits", a.nativeCacheHits);
  ar.i64("an.batchedMutants", a.batchedMutants);
  ar.list("an.results", a.results, [&](auto& r) { fields(ar, r); });
}

template <class Ar>
void fields(Ar& ar, insertion::InsertedSensor& s) {
  ar.str("sensor.endpoint", s.endpointName);
  ar.str("sensor.instance", s.instanceName);
  ar.str("sensor.error", s.errorSignal);
  ar.str("sensor.q", s.qSignal);
  ar.str("sensor.measVal", s.measValSignal);
  ar.str("sensor.outOk", s.outOkSignal);
  ar.f64("sensor.arrivalPs", s.endpointArrivalPs);
}

// The portable FlowReport subset: every field sameResults compares plus the
// timing ledger — never the elaborated designs (see serialize.h).
template <class Ar>
void fields(Ar& ar, core::FlowReport& r) {
  ar.str("rep.ipName", r.ipName);
  ar.enumeration("rep.sensorKind", r.sensorKind, insertion::sensorKindName,
                 insertion::kSensorKinds);
  ar.i64("rep.hfRatio", r.hfRatio);
  ar.i64("rep.skippedEndpoints", r.skippedEndpoints);
  ar.f64("rep.sensorAreaGates", r.sensorAreaGates);
  ar.i64("rep.staCriticalCount", r.sta.criticalCount);
  ar.f64("rep.staThresholdPs", r.sta.thresholdPs);
  ar.f64("rep.staClockPeriodPs", r.sta.clockPeriodPs);
  ar.f64("rep.staMinSlackPs", r.sta.minSlackPs);
  ar.i64("rep.locRtlClean", r.loc.rtlClean);
  ar.i64("rep.locRtlAugmented", r.loc.rtlAugmented);
  ar.i64("rep.locTlm", r.loc.tlm);
  ar.i64("rep.locTlmInjected", r.loc.tlmInjected);
  ar.list("rep.sensors", r.sensors, [&](auto& s) { fields(ar, s); });
  ar.list("rep.mutantSpecs", r.mutantSpecs, [&](auto& m) { fields(ar, m); });
  fields(ar, r.analysis);
}

template <class Ar>
void fields(Ar& ar, CampaignItemResult& it) {
  ar.u64("item.taskId", it.taskId);
  ar.str("item.label", it.label);
  ar.str("item.error", it.error);
  ar.f64("item.taskSeconds", it.taskSeconds);
  ar.f64("item.goldenSeconds", it.goldenSeconds);
  ar.boolean("item.goldenFromCache", it.goldenFromCache);
  ar.boolean("item.prefixShared", it.prefixShared);
  fields(ar, it.report);
}

template <class Ar>
void fields(Ar& ar, CampaignItem& item) {
  ar.text("item.case", item.caseStudy, [](const ips::CaseStudy& cs) { return cs.name; },
          buildCaseStudyByName);
  ar.str("item.label", item.label);
  ar.str("item.prefixKey", item.prefixKey);
  fields(ar, item.options);
}

template <class Ar>
void fields(Ar& ar, CampaignSpec& spec) {
  ar.str("name", spec.name);
  ar.i64("executor.threads", spec.executor.threads);
  ar.list("items", spec.items, [&](auto& item) { fields(ar, item); });
}

template <class Ar>
void fields(Ar& ar, CampaignResult& r) {
  ar.str("name", r.name);
  ar.f64("simSeconds", r.simSeconds);
  ar.f64("goldenSeconds", r.goldenSeconds);
  ar.i64("goldenCacheHits", r.goldenCacheHits);
  ar.i64("prefixCacheHits", r.prefixCacheHits);
  ar.i64("mutantCacheHits", r.mutantCacheHits);
  ar.i64("diskHits", r.diskHits);
  ar.i64("diskStores", r.diskStores);
  ar.i64("diskEvictions", r.diskEvictions);
  ar.u64("cyclesSimulated", r.cyclesSimulated);
  ar.u64("cyclesSkipped", r.cyclesSkipped);
  ar.i64("nativeCompiles", r.nativeCompiles);
  ar.i64("nativeCacheHits", r.nativeCacheHits);
  ar.i64("batchedMutants", r.batchedMutants);
  ar.f64("wallSeconds", r.wallSeconds);
  ar.i64("threadsUsed", r.threadsUsed);
  ar.list("items", r.items, [&](auto& it) { fields(ar, it); });
}

/// What a flow-prefix artifact stores: the identity it was recorded for,
/// the STA report and the inserted sensors. The designs are re-derived
/// (decodeFlowPrefix).
struct PrefixRecord {
  std::string ip;
  insertion::SensorKind kind = insertion::SensorKind::Razor;
  sta::StaReport sta;
  std::vector<insertion::InsertedSensor> sensors;
};

template <class Ar>
void fields(Ar& ar, sta::PathRecord& p) {
  ar.i64("path.endpoint", p.endpoint);
  ar.str("path.endpointName", p.endpointName);
  ar.i64("path.startpoint", p.startpoint);
  ar.str("path.startpointName", p.startpointName);
  ar.f64("path.arrivalPs", p.arrivalPs);
  ar.f64("path.slackPs", p.slackPs);
  ar.f64("path.logicLevels", p.logicLevels);
  ar.boolean("path.critical", p.critical);
}

template <class Ar>
void fields(Ar& ar, PrefixRecord& p) {
  ar.str("ip", p.ip);
  ar.enumeration("kind", p.kind, insertion::sensorKindName, insertion::kSensorKinds);
  ar.f64("sta.thresholdPs", p.sta.thresholdPs);
  ar.f64("sta.clockPeriodPs", p.sta.clockPeriodPs);
  ar.i64("sta.criticalCount", p.sta.criticalCount);
  ar.f64("sta.minSlackPs", p.sta.minSlackPs);
  ar.list("sta.paths", p.sta.paths, [&](auto& path) { fields(ar, path); });
  ar.list("sensors", p.sensors, [&](auto& s) { fields(ar, s); });
}

template <class Ar>
void fields(Ar& ar, ShardUnit& u) {
  ar.u64("unit.taskId", u.taskId);
  ar.u64("unit.mutantBegin", u.mutantBegin);
  ar.u64("unit.mutantEnd", u.mutantEnd);
}

template <class Ar>
void fields(Ar& ar, ShardOutput& o) {
  ar.u64("specFnv", o.specFnv);
  ar.i64("shardIndex", o.shardIndex);
  ar.i64("shardCount", o.shardCount);
  ar.list("units", o.units, [&](auto& u) { fields(ar, u); });
  // The result travels as a nested campaign-result document; its own header
  // keeps the two schema versions independently checkable.
  ar.text("result", o.result, encodeCampaignResult, decodeCampaignResult);
}

template <class Ar>
void fields(Ar& ar, SubmitFrame& f) {
  ar.u64("specFnv", f.specFnv);
  ar.u64("campaignId", f.campaignId);
  ar.u64("seq", f.seq);
  ar.u64("taskIndex", f.taskIndex);
  ar.u64("taskCount", f.taskCount);
  ar.u64("attempt", f.attempt);
  fields(ar, f.unit);
  fields(ar, f.spec);
  ar.boolean("shutdown", f.shutdown);
}

template <class Ar>
void fields(Ar& ar, StatusFrame& f) {
  ar.u64("workerIndex", f.workerIndex);
  ar.u64("generation", f.generation);
  ar.u64("itemsDone", f.itemsDone);
  ar.str("state", f.state);
}

template <class Ar>
void fields(Ar& ar, HeartbeatFrame& f) {
  ar.u64("workerIndex", f.workerIndex);
  ar.u64("generation", f.generation);
  ar.u64("seq", f.seq);
  ar.u64("itemsDone", f.itemsDone);
}

template <class Ar>
void fields(Ar& ar, ResultFrame& f) {
  ar.u64("campaignId", f.campaignId);
  ar.u64("seq", f.seq);
  ar.u64("taskIndex", f.taskIndex);
  ar.u64("attempt", f.attempt);
  // A nested shard-output document, like the result inside ShardOutput.
  ar.text("output", f.output, encodeShardOutput, decodeShardOutput);
}

template <class Ar>
void fields(Ar& ar, ClientSubmitFrame& f) {
  ar.str("clientName", f.clientName);
  ar.str("spec", f.spec);
  ar.u64("maxFragmentMutants", f.maxFragmentMutants);
  ar.u64("deadlineMs", f.deadlineMs);
}

template <class Ar>
void fields(Ar& ar, AcceptFrame& f) {
  ar.u64("campaignId", f.campaignId);
  ar.u64("specFnv", f.specFnv);
  ar.u64("unitCount", f.unitCount);
}

template <class Ar>
void fields(Ar& ar, RejectFrame& f) {
  ar.str("reason", f.reason);
  ar.u64("retryAfterMs", f.retryAfterMs);
}

template <class Ar>
void fields(Ar& ar, ItemResultFrame& f) {
  ar.u64("campaignId", f.campaignId);
  ar.u64("taskIndex", f.taskIndex);
  ar.u64("taskCount", f.taskCount);
  ar.text("output", f.output, encodeShardOutput, decodeShardOutput);
}

template <class Ar>
void fields(Ar& ar, CampaignDoneFrame& f) {
  ar.u64("campaignId", f.campaignId);
  ar.u64("unitsTotal", f.unitsTotal);
  ar.u64("unitsCompleted", f.unitsCompleted);
  ar.u64("requeues", f.requeues);
  ar.boolean("cancelled", f.cancelled);
  ar.str("error", f.error);
  ar.list("quarantined", f.quarantined, [&](auto& q) { ar.u64("q", q); });
}

// Every document of this codec: its tag, kCampaignCodecVersion, then the
// record's field list.
constexpr auto kFields = [](auto& ar, auto& record) { fields(ar, record); };

template <class T>
std::string encodeDoc(const char* tag, const T& record) {
  return util::writeDocument(tag, kCampaignCodecVersion, record, kFields);
}

template <class T>
T decodeDoc(std::string_view data, const char* tag) {
  return util::readDocument<T>(data, tag, kCampaignCodecVersion, kFields);
}

}  // namespace

std::vector<std::string> knownCaseStudyNames() {
  return {"Plasma", "DSP", "Filter", "Handshake"};
}

ips::CaseStudy buildCaseStudyByName(const std::string& name) {
  if (name == "Plasma") return ips::buildPlasmaCase();
  if (name == "DSP") return ips::buildDspCase();
  if (name == "Filter") return ips::buildFilterCase();
  if (name == "Handshake") return ips::buildHandshakeCase();
  throw DecodeError("unknown case study '" + name + "' (known: Plasma, DSP, Filter, Handshake)");
}

std::string encodeCampaignSpec(const CampaignSpec& spec) { return encodeDoc(kSpecTag, spec); }

CampaignSpec decodeCampaignSpec(std::string_view data) {
  return decodeDoc<CampaignSpec>(data, kSpecTag);
}

std::string encodeCampaignResult(const CampaignResult& result) {
  return encodeDoc(kResultTag, result);
}

CampaignResult decodeCampaignResult(std::string_view data) {
  return decodeDoc<CampaignResult>(data, kResultTag);
}

std::string encodeAnalysisReport(const analysis::AnalysisReport& report) {
  return encodeDoc(kAnalysisTag, report);
}

analysis::AnalysisReport decodeAnalysisReport(std::string_view data) {
  return decodeDoc<analysis::AnalysisReport>(data, kAnalysisTag);
}

std::string encodeMutantResult(const analysis::MutantResult& result) {
  return encodeDoc(kMutantTag, result);
}

analysis::MutantResult decodeMutantResult(std::string_view data) {
  return decodeDoc<analysis::MutantResult>(data, kMutantTag);
}

std::string encodeShardOutput(const ShardOutput& output) {
  return encodeDoc(kOutputTag, output);
}

ShardOutput decodeShardOutput(std::string_view data) {
  return decodeDoc<ShardOutput>(data, kOutputTag);
}

// --- flow-prefix artifact ----------------------------------------------------

std::string encodeFlowPrefix(const core::FlowPrefix& prefix) {
  const core::FlowReport& r = prefix.report;
  return encodeDoc(kPrefixTag, PrefixRecord{r.ipName, r.sensorKind, r.sta, r.sensors});
}

core::FlowPrefix decodeFlowPrefix(std::string_view data, const ips::CaseStudy& cs,
                                  const core::FlowOptions& opts) {
  const PrefixRecord stored = decodeDoc<PrefixRecord>(data, kPrefixTag);
  if (stored.ip != cs.name || stored.kind != opts.sensorKind) {
    throw DecodeError("flow-prefix artifact was recorded for " + stored.ip + "/" +
                      insertion::sensorKindName(stored.kind) + ", requested " + cs.name +
                      "/" + insertion::sensorKindName(opts.sensorKind));
  }
  // Re-derive the designs deterministically from the stored STA report,
  // then cross-check the rebuilt sensor list against the stored one: a
  // mismatch means the artifact predates a code or model change (the key
  // failed to capture it) and must be rebuilt from scratch, never trusted.
  core::FlowPrefix prefix = core::rebuildFlowPrefix(cs, opts, stored.sta);
  const auto& rebuilt = prefix.report.sensors;
  bool consistent = rebuilt.size() == stored.sensors.size();
  for (std::size_t i = 0; consistent && i < rebuilt.size(); ++i) {
    consistent = rebuilt[i].endpointName == stored.sensors[i].endpointName &&
                 rebuilt[i].instanceName == stored.sensors[i].instanceName &&
                 rebuilt[i].endpointArrivalPs == stored.sensors[i].endpointArrivalPs;
  }
  if (!consistent) {
    throw DecodeError("flow-prefix artifact for " + cs.name +
                      " disagrees with the rebuilt insertion (stale artifact)");
  }
  return prefix;
}

// --- dispatcher daemon and socket-service frames -----------------------------

bool ResultFrame::operator==(const ResultFrame& other) const {
  // ShardOutput carries a nested CampaignResult with no memberwise
  // equality; the byte-stable canonical encoding IS its identity.
  return seq == other.seq && taskIndex == other.taskIndex && attempt == other.attempt &&
         encodeShardOutput(output) == encodeShardOutput(other.output);
}

bool SubmitFrame::operator==(const SubmitFrame& other) const {
  // The one-item spec holds a case study, which has no memberwise equality;
  // the canonical encoding is the frame's identity.
  return encodeSubmitFrame(*this) == encodeSubmitFrame(other);
}

bool ItemResultFrame::operator==(const ItemResultFrame& other) const {
  // Same rationale as ResultFrame: the canonical encoding is the nested
  // ShardOutput's identity.
  return campaignId == other.campaignId && taskIndex == other.taskIndex &&
         taskCount == other.taskCount &&
         encodeShardOutput(output) == encodeShardOutput(other.output);
}

std::string encodeSubmitFrame(const SubmitFrame& f) { return encodeDoc(kSubmitFrameTag, f); }

SubmitFrame decodeSubmitFrame(std::string_view data) {
  return decodeDoc<SubmitFrame>(data, kSubmitFrameTag);
}

std::string encodeStatusFrame(const StatusFrame& f) { return encodeDoc(kStatusFrameTag, f); }

StatusFrame decodeStatusFrame(std::string_view data) {
  StatusFrame f = decodeDoc<StatusFrame>(data, kStatusFrameTag);
  if (f.state != "ready" && f.state != "working") {
    throw DecodeError("status frame: unknown state '" + f.state + "'");
  }
  return f;
}

std::string encodeHeartbeatFrame(const HeartbeatFrame& f) {
  return encodeDoc(kHeartbeatFrameTag, f);
}

HeartbeatFrame decodeHeartbeatFrame(std::string_view data) {
  return decodeDoc<HeartbeatFrame>(data, kHeartbeatFrameTag);
}

std::string encodeResultFrame(const ResultFrame& f) { return encodeDoc(kResultFrameTag, f); }

ResultFrame decodeResultFrame(std::string_view data) {
  return decodeDoc<ResultFrame>(data, kResultFrameTag);
}

std::string encodeClientSubmitFrame(const ClientSubmitFrame& f) {
  return encodeDoc(kClientSubmitFrameTag, f);
}

ClientSubmitFrame decodeClientSubmitFrame(std::string_view data) {
  return decodeDoc<ClientSubmitFrame>(data, kClientSubmitFrameTag);
}

std::string encodeAcceptFrame(const AcceptFrame& f) { return encodeDoc(kAcceptFrameTag, f); }

AcceptFrame decodeAcceptFrame(std::string_view data) {
  AcceptFrame f = decodeDoc<AcceptFrame>(data, kAcceptFrameTag);
  if (f.campaignId == 0) throw DecodeError("accept frame: campaignId must be nonzero");
  return f;
}

std::string encodeRejectFrame(const RejectFrame& f) { return encodeDoc(kRejectFrameTag, f); }

RejectFrame decodeRejectFrame(std::string_view data) {
  return decodeDoc<RejectFrame>(data, kRejectFrameTag);
}

std::string encodeItemResultFrame(const ItemResultFrame& f) {
  return encodeDoc(kItemResultFrameTag, f);
}

ItemResultFrame decodeItemResultFrame(std::string_view data) {
  return decodeDoc<ItemResultFrame>(data, kItemResultFrameTag);
}

std::string encodeCampaignDoneFrame(const CampaignDoneFrame& f) {
  return encodeDoc(kCampaignDoneFrameTag, f);
}

CampaignDoneFrame decodeCampaignDoneFrame(std::string_view data) {
  return decodeDoc<CampaignDoneFrame>(data, kCampaignDoneFrameTag);
}

}  // namespace xlv::campaign
