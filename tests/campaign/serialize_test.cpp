// Wire-codec tests: byte-stable round trips for the campaign domain types,
// and strict rejection (with a diagnostic, never a crash or a silently
// skewed value) of truncated, version-mismatched and field-reordered inputs.
#include <gtest/gtest.h>

#include <string>

#include "campaign/serialize.h"
#include "campaign/shard.h"
#include "util/codec.h"

namespace xlv::campaign {
namespace {

using util::DecodeError;

CampaignSpec smokeSpec() { return builtinCampaignSpec("smoke"); }

/// A synthetic result exercising the awkward corners of the format:
/// separator bytes inside strings, exact doubles, empty lists, errors.
CampaignResult syntheticResult() {
  CampaignResult r;
  r.name = "synthetic=tricky:name\nwith newline";
  r.simSeconds = 1.0 / 3.0;
  r.goldenSeconds = 0.125;
  r.goldenCacheHits = 3;
  r.prefixCacheHits = 2;
  r.wallSeconds = 9.75e-3;
  r.threadsUsed = 8;

  CampaignItemResult it;
  it.taskId = 7;
  it.label = "Filter/razor/thr=0.25";
  it.error = "";
  it.taskSeconds = 0.75;
  it.goldenSeconds = 0.5;
  it.goldenFromCache = true;
  it.prefixShared = true;
  it.report.ipName = "Filter";
  it.report.sensorKind = insertion::SensorKind::Counter;
  it.report.hfRatio = 8;
  it.report.skippedEndpoints = 1;
  it.report.sensorAreaGates = 123.456;
  it.report.sta.criticalCount = 4;
  it.report.sta.thresholdPs = 250.5;
  it.report.sta.clockPeriodPs = 1000.0;
  it.report.sta.minSlackPs = -17.25;
  it.report.loc = {100, 140, 90, 110};
  it.report.sensors.push_back(insertion::InsertedSensor{
      "acc_reg", "sensor_0", "", "", "mv_0", "ok_0", 812.5});
  it.report.mutantSpecs.push_back(
      mutation::MutantSpec{"acc_reg", mutation::MutantKind::DeltaDelay, 3});
  it.report.analysis.cyclesPerRun = 120;
  it.report.analysis.simSeconds = 0.25;
  it.report.analysis.wallSeconds = 0.25;
  it.report.analysis.goldenSeconds = 0.1;
  it.report.analysis.goldenFromCache = false;
  it.report.analysis.threadsUsed = 2;
  analysis::MutantResult m;
  m.id = 5;
  m.endpoint = "acc_reg";
  m.kind = mutation::MutantKind::DeltaDelay;
  m.deltaTicks = 3;
  m.killed = true;
  m.detected = true;
  m.errorRisen = false;
  m.corrected = false;
  m.correctionChecked = false;
  m.measuredDelay = 42;
  it.report.analysis.results.push_back(m);
  r.items.push_back(it);

  CampaignItemResult failed;
  failed.taskId = 8;
  failed.label = "broken";
  failed.error = "flow: case study 'broken' has no module";
  r.items.push_back(failed);
  return r;
}

// --- round trips -------------------------------------------------------------

TEST(Serialize, CampaignSpecRoundTripIsByteStable) {
  const CampaignSpec spec = smokeSpec();
  const std::string wire = encodeCampaignSpec(spec);
  const CampaignSpec decoded = decodeCampaignSpec(wire);
  EXPECT_EQ(wire, encodeCampaignSpec(decoded));

  ASSERT_EQ(spec.items.size(), decoded.items.size());
  EXPECT_EQ(spec.name, decoded.name);
  EXPECT_EQ(spec.executor.threads, decoded.executor.threads);
  for (std::size_t i = 0; i < spec.items.size(); ++i) {
    const CampaignItem& a = spec.items[i];
    const CampaignItem& b = decoded.items[i];
    EXPECT_EQ(a.caseStudy.name, b.caseStudy.name);
    EXPECT_NE(nullptr, b.caseStudy.module) << "case study must be rebuilt by name";
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.prefixKey, b.prefixKey);
    EXPECT_EQ(a.options.sensorKind, b.options.sensorKind);
    EXPECT_EQ(a.options.testbenchCycles, b.options.testbenchCycles);
    EXPECT_EQ(a.options.staCorner.has_value(), b.options.staCorner.has_value());
    if (a.options.staCorner) {
      EXPECT_EQ(a.options.staCorner->name, b.options.staCorner->name);
      EXPECT_EQ(a.options.staCorner->processFactor, b.options.staCorner->processFactor);
    }
    EXPECT_EQ(a.options.mutantSet, b.options.mutantSet);
    EXPECT_EQ(a.options.useGoldenCache, b.options.useGoldenCache);
    EXPECT_EQ(a.options.analysisThreads, b.options.analysisThreads);
  }
  // Byte-stability is what makes the spec fingerprint process-portable.
  EXPECT_EQ(campaignSpecFnv(spec), campaignSpecFnv(decoded));
}

TEST(Serialize, CampaignResultRoundTripIsByteStable) {
  const CampaignResult r = syntheticResult();
  const std::string wire = encodeCampaignResult(r);
  const CampaignResult decoded = decodeCampaignResult(wire);
  EXPECT_EQ(wire, encodeCampaignResult(decoded));

  // sameResults covers labels, errors, and the whole compared report
  // subset; the ledger fields are checked explicitly.
  EXPECT_TRUE(r.sameResults(decoded));
  EXPECT_EQ(r.simSeconds, decoded.simSeconds);
  EXPECT_EQ(r.goldenSeconds, decoded.goldenSeconds);
  EXPECT_EQ(r.wallSeconds, decoded.wallSeconds);
  EXPECT_EQ(r.goldenCacheHits, decoded.goldenCacheHits);
  EXPECT_EQ(r.prefixCacheHits, decoded.prefixCacheHits);
  ASSERT_EQ(2u, decoded.items.size());
  EXPECT_EQ(7u, decoded.items[0].taskId);
  EXPECT_EQ(r.items[0].taskSeconds, decoded.items[0].taskSeconds);
  EXPECT_TRUE(decoded.items[0].goldenFromCache);
  EXPECT_EQ(r.items[0].report.sensorAreaGates, decoded.items[0].report.sensorAreaGates);
  EXPECT_EQ(r.items[0].report.sensors.size(), decoded.items[0].report.sensors.size());
  EXPECT_EQ("mv_0", decoded.items[0].report.sensors[0].measValSignal);
  EXPECT_EQ(r.items[0].report.analysis.results, decoded.items[0].report.analysis.results);
  EXPECT_EQ(r.items[1].error, decoded.items[1].error);
}

TEST(Serialize, MutantResultRoundTripIsByteStable) {
  analysis::MutantResult m;
  m.id = 11;
  m.endpoint = "pipe:reg=2";
  m.kind = mutation::MutantKind::MaxDelay;
  m.deltaTicks = -2;
  m.killed = true;
  m.correctionChecked = true;
  m.corrected = true;
  m.measuredDelay = ~0ULL;
  const std::string wire = encodeMutantResult(m);
  const analysis::MutantResult decoded = decodeMutantResult(wire);
  EXPECT_EQ(m, decoded);  // MutantResult has full-field operator==
  EXPECT_EQ(wire, encodeMutantResult(decoded));
}

TEST(Serialize, AnalysisReportRoundTripIsByteStable) {
  const analysis::AnalysisReport a = syntheticResult().items[0].report.analysis;
  const std::string wire = encodeAnalysisReport(a);
  const analysis::AnalysisReport decoded = decodeAnalysisReport(wire);
  EXPECT_TRUE(a.sameResults(decoded));
  EXPECT_EQ(a.simSeconds, decoded.simSeconds);
  EXPECT_EQ(wire, encodeAnalysisReport(decoded));
}

TEST(Serialize, ShardOutputRoundTrip) {
  ShardOutput out;
  out.specFnv = campaignSpecFnv(smokeSpec());
  out.shardIndex = 1;
  out.shardCount = 3;
  // A whole item and two mutant-range fragments of another.
  out.units = {ShardUnit{3}, ShardUnit{4, 0, 16}, ShardUnit{4, 16, 32}};
  out.result = syntheticResult();
  const ShardOutput outDecoded = decodeShardOutput(encodeShardOutput(out));
  EXPECT_EQ(out.units, outDecoded.units);
  EXPECT_TRUE(out.result.sameResults(outDecoded.result));
  EXPECT_EQ(encodeShardOutput(out), encodeShardOutput(outDecoded));
}

// --- strict rejection --------------------------------------------------------

TEST(Serialize, DecoderRejectsTruncatedInputs) {
  const std::string wire = encodeCampaignResult(syntheticResult());
  // Chop at several structurally different places: inside the header,
  // right after it, mid-field-name, mid-payload, and just before the final
  // newline. All must throw DecodeError, never crash or misparse.
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{3}, wire.find('\n') + 1, wire.find('\n') + 4,
        wire.size() / 2, wire.size() - 1}) {
    EXPECT_THROW(decodeCampaignResult(wire.substr(0, cut)), DecodeError)
        << "cut at " << cut << " of " << wire.size();
  }
}

TEST(Serialize, DecoderRejectsVersionMismatch) {
  const std::string wire = encodeCampaignSpec(smokeSpec());
  std::string bumped = wire;
  const std::string needle = " v" + std::to_string(kCampaignCodecVersion) + "\n";
  const std::size_t pos = bumped.find(needle);
  ASSERT_NE(std::string::npos, pos);
  bumped.replace(pos, needle.size(),
                 " v" + std::to_string(kCampaignCodecVersion + 1) + "\n");
  try {
    decodeCampaignSpec(bumped);
    FAIL() << "expected DecodeError";
  } catch (const DecodeError& e) {
    EXPECT_NE(nullptr, std::strstr(e.what(), "header mismatch")) << e.what();
  }
}

TEST(Serialize, DecoderRejectsWrongDocumentTag) {
  // A valid spec is not a valid result: the header tag check fires before
  // any field is interpreted.
  EXPECT_THROW(decodeCampaignResult(encodeCampaignSpec(smokeSpec())), DecodeError);
  EXPECT_THROW(decodeCampaignSpec(encodeCampaignResult(syntheticResult())), DecodeError);
}

TEST(Serialize, DecoderRejectsReorderedFields) {
  const std::string wire = encodeCampaignSpec(smokeSpec());
  // Swap the first two field lines after the header (name and
  // executor.threads). The smoke spec contains no newline payloads, so
  // line-swapping is a faithful "field reordering" corruption.
  const std::size_t l0 = wire.find('\n') + 1;
  const std::size_t l1 = wire.find('\n', l0) + 1;
  const std::size_t l2 = wire.find('\n', l1) + 1;
  const std::string reordered = wire.substr(0, l0) + wire.substr(l1, l2 - l1) +
                                wire.substr(l0, l1 - l0) + wire.substr(l2);
  try {
    decodeCampaignSpec(reordered);
    FAIL() << "expected DecodeError";
  } catch (const DecodeError& e) {
    EXPECT_NE(nullptr, std::strstr(e.what(), "field order mismatch")) << e.what();
  }
}

TEST(Serialize, DecoderRejectsUnknownCaseStudyAndEnums) {
  CampaignSpec spec;
  spec.name = "bad";
  CampaignItem item;
  item.caseStudy.name = "NoSuchIp";  // encoding only needs the name
  spec.items.push_back(item);
  const std::string wire = encodeCampaignSpec(spec);
  try {
    decodeCampaignSpec(wire);
    FAIL() << "expected DecodeError";
  } catch (const DecodeError& e) {
    EXPECT_NE(nullptr, std::strstr(e.what(), "NoSuchIp")) << e.what();
  }

  // Corrupt an enum payload in place ("razor" -> "blade", same length).
  std::string enumWire = encodeCampaignSpec(smokeSpec());
  const std::size_t pos = enumWire.find("opt.sensorKind=5:razor");
  ASSERT_NE(std::string::npos, pos);
  enumWire.replace(pos, std::strlen("opt.sensorKind=5:razor"), "opt.sensorKind=5:blade");
  EXPECT_THROW(decodeCampaignSpec(enumWire), DecodeError);
}

TEST(Serialize, DecoderRejectsNonCanonicalNumbers) {
  // strto* would skip leading whitespace and accept '+'; the canonical
  // encoder never emits either, and accepting them would break the
  // byte-stability the spec fingerprints rely on.
  for (const char* payload : {" 5", "\t5", "\n5", "+5", "", "007"}) {
    util::Encoder e("num", 1);
    e.str("v", payload);
    {
      util::Decoder d(e.out(), "num", 1);
      EXPECT_THROW(d.u64("v"), DecodeError) << "u64 '" << payload << "'";
    }
    {
      util::Decoder d(e.out(), "num", 1);
      EXPECT_THROW(d.i64("v"), DecodeError) << "i64 '" << payload << "'";
    }
  }
  // Doubles additionally reject anything that is not the exact "%a"
  // hexfloat rendering: decimal text, uppercase, and values strtod
  // saturates (1e999 -> inf) re-render differently.
  for (const char* payload : {" 5", "+5", "", "1.5", "1e999", "0X1.8P+0", "007"}) {
    util::Encoder e("num", 1);
    e.str("v", payload);
    util::Decoder d(e.out(), "num", 1);
    EXPECT_THROW(d.f64("v"), DecodeError) << "f64 '" << payload << "'";
  }
}

/// `doc` with the payload of its first field called `name` replaced.
std::string withField(std::string doc, const std::string& name, const std::string& payload) {
  const std::size_t start = doc.find("\n" + name + "=") + 1;
  EXPECT_NE(0u, start) << "no field " << name;
  const std::size_t end = doc.find('\n', start);
  doc.replace(start, end - start, name + "=" + std::to_string(payload.size()) + ":" + payload);
  return doc;
}

TEST(Serialize, IntegersDecodeStrictlyIntoTheirFieldType) {
  // A value outside its field's type is a DecodeError, never a wrapped
  // value that re-encodes to different bytes.
  const std::string single = encodeCampaignSpec(builtinCampaignSpec("single"));
  EXPECT_EQ(2147483647, decodeCampaignSpec(withField(single, "executor.threads", "2147483647"))
                            .executor.threads);
  EXPECT_THROW(decodeCampaignSpec(withField(single, "executor.threads", "4294967298")),
               DecodeError);
  EXPECT_THROW(decodeCampaignSpec(withField(single, "executor.threads", "-2147483649")),
               DecodeError);

  // "failing" carries hfRatio overrides (0 and -4).
  const std::string failing = encodeCampaignSpec(builtinCampaignSpec("failing"));
  EXPECT_THROW(decodeCampaignSpec(withField(failing, "opt.hfRatio", "2147483648")),
               DecodeError);

  ShardOutput out;
  out.shardIndex = 0;
  out.shardCount = 1;
  const std::string wire = encodeShardOutput(out);
  EXPECT_EQ(7, decodeShardOutput(withField(wire, "shardIndex", "7")).shardIndex);
  EXPECT_THROW(decodeShardOutput(withField(wire, "shardIndex", "4294967296")), DecodeError);
}

TEST(Serialize, DecoderRejectsImplausibleListCounts) {
  // A corrupted count must throw before any caller resizes a vector from
  // it (100000000 items cannot fit in a few bytes of remaining input).
  util::Encoder e("num", 1);
  e.beginList("items", 100000000);
  util::Decoder d(e.out(), "num", 1);
  EXPECT_THROW(d.beginList("items"), DecodeError);
}

TEST(Serialize, DecoderRejectsTrailingData) {
  std::string wire = encodeMutantResult(analysis::MutantResult{});
  wire += "extra=1:x\n";
  EXPECT_THROW(decodeMutantResult(wire), DecodeError);
}

}  // namespace
}  // namespace xlv::campaign
