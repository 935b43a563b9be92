// Fuzz-style (seeded, deterministic) conformance suite for the util/codec.h
// wire format through its real schemas: randomized specs/results round-trip
// byte-stably (encode -> decode -> encode reproduces the input bytes), every
// single-byte truncation raises DecodeError, and every single-byte
// corruption either raises DecodeError or decodes to a value whose
// re-encoding IS the corrupted input — i.e. the decoder is the exact
// inverse of the encoder and never maps non-canonical bytes onto a
// different value ("mis-decoding"). Byte-level corruption that survives
// decoding (e.g. a flipped character inside a string payload) is caught one
// layer up by the artifact store's payload fingerprint.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "analysis/checkpoint_cache.h"
#include "analysis/golden_cache.h"
#include "analysis/mutant_cache.h"
#include "campaign/serialize.h"
#include "campaign/shard.h"
#include "core/flow.h"
#include "util/codec.h"
#include "util/fnv.h"
#include "util/prng.h"

namespace xlv {
namespace {

using util::DecodeError;
using util::Prng;

// --- randomized domain values ------------------------------------------------

/// Random bytes including the format's structural characters ('=', ':',
/// '\n') and non-ASCII — string payloads are length-prefixed raw bytes, so
/// none of these may confuse the framing.
std::string randomString(Prng& rng) {
  static const char alphabet[] = "abcXYZ019=:\n|\t\\\"%a-+ ";
  const std::size_t len = rng.below(24);
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    if (rng.chance(0.15)) {
      s.push_back(static_cast<char>(rng.below(256)));
    } else {
      s.push_back(alphabet[rng.below(sizeof(alphabet) - 1)]);
    }
  }
  return s;
}

double randomDouble(Prng& rng) {
  switch (rng.below(8)) {
    case 0: return 0.0;
    case 1: return -0.0;
    case 2: return 1.0 / 3.0;
    case 3: return -1e300;
    case 4: return 5e-324;  // smallest denormal
    case 5: return static_cast<double>(rng.next()) * 1e-9;
    default: return rng.uniform() * (rng.chance(0.5) ? -1.0 : 1.0);
  }
}

mutation::MutantKind randomKind(Prng& rng) {
  switch (rng.below(3)) {
    case 0: return mutation::MutantKind::MinDelay;
    case 1: return mutation::MutantKind::MaxDelay;
    default: return mutation::MutantKind::DeltaDelay;
  }
}

analysis::MutantResult randomMutantResult(Prng& rng) {
  analysis::MutantResult m;
  m.id = static_cast<int>(rng.below(1000)) - 1;
  m.endpoint = randomString(rng);
  m.kind = randomKind(rng);
  m.deltaTicks = static_cast<int>(rng.range(-16, 16));
  m.killed = rng.chance(0.5);
  m.detected = rng.chance(0.5);
  m.errorRisen = rng.chance(0.5);
  m.corrected = rng.chance(0.5);
  m.correctionChecked = rng.chance(0.5);
  m.measuredDelay = rng.next();
  return m;
}

analysis::AnalysisReport randomAnalysisReport(Prng& rng) {
  analysis::AnalysisReport a;
  a.cyclesPerRun = rng.below(100000);
  a.cyclesSimulated = rng.below(100000);
  a.cyclesSkipped = rng.below(100000);
  a.simSeconds = randomDouble(rng);
  a.wallSeconds = randomDouble(rng);
  a.goldenSeconds = randomDouble(rng);
  a.goldenFromCache = rng.chance(0.5);
  a.goldenFromDisk = rng.chance(0.5);
  a.mutantCacheHits = static_cast<int>(rng.below(64));
  a.threadsUsed = 1 + static_cast<int>(rng.below(16));
  a.nativeCompiles = static_cast<int>(rng.below(8));
  a.nativeCacheHits = static_cast<int>(rng.below(8));
  a.batchedMutants = static_cast<int>(rng.below(256));
  const std::size_t n = rng.below(5);
  for (std::size_t i = 0; i < n; ++i) a.results.push_back(randomMutantResult(rng));
  return a;
}

campaign::CampaignResult randomCampaignResult(Prng& rng) {
  campaign::CampaignResult r;
  r.name = randomString(rng);
  r.simSeconds = randomDouble(rng);
  r.goldenSeconds = randomDouble(rng);
  r.goldenCacheHits = static_cast<int>(rng.below(16));
  r.prefixCacheHits = static_cast<int>(rng.below(16));
  r.mutantCacheHits = static_cast<int>(rng.below(64));
  r.diskHits = static_cast<int>(rng.below(64));
  r.diskStores = static_cast<int>(rng.below(64));
  r.diskEvictions = static_cast<int>(rng.below(64));
  r.cyclesSimulated = rng.below(1000000);
  r.cyclesSkipped = rng.below(1000000);
  r.nativeCompiles = static_cast<int>(rng.below(8));
  r.nativeCacheHits = static_cast<int>(rng.below(8));
  r.batchedMutants = static_cast<int>(rng.below(256));
  r.wallSeconds = randomDouble(rng);
  r.threadsUsed = 1 + static_cast<int>(rng.below(8));
  const std::size_t items = rng.below(3);
  for (std::size_t i = 0; i < items; ++i) {
    campaign::CampaignItemResult it;
    it.taskId = rng.below(100);
    it.label = randomString(rng);
    if (rng.chance(0.3)) it.error = randomString(rng);
    it.taskSeconds = randomDouble(rng);
    it.goldenSeconds = randomDouble(rng);
    it.goldenFromCache = rng.chance(0.5);
    it.prefixShared = rng.chance(0.5);
    it.report.ipName = randomString(rng);
    it.report.sensorKind = rng.chance(0.5) ? insertion::SensorKind::Razor
                                           : insertion::SensorKind::Counter;
    it.report.hfRatio = static_cast<int>(rng.below(16));
    it.report.skippedEndpoints = static_cast<int>(rng.below(8));
    it.report.sensorAreaGates = randomDouble(rng);
    it.report.sta.criticalCount = static_cast<int>(rng.below(32));
    it.report.sta.thresholdPs = randomDouble(rng);
    it.report.sta.clockPeriodPs = randomDouble(rng);
    it.report.sta.minSlackPs = randomDouble(rng);
    it.report.loc.rtlClean = static_cast<int>(rng.below(500));
    it.report.loc.rtlAugmented = static_cast<int>(rng.below(500));
    it.report.loc.tlm = static_cast<int>(rng.below(500));
    it.report.loc.tlmInjected = static_cast<int>(rng.below(500));
    const std::size_t sensors = rng.below(3);
    for (std::size_t s = 0; s < sensors; ++s) {
      it.report.sensors.push_back(insertion::InsertedSensor{
          randomString(rng), randomString(rng), randomString(rng), randomString(rng),
          randomString(rng), randomString(rng), randomDouble(rng)});
    }
    const std::size_t specs = rng.below(3);
    for (std::size_t s = 0; s < specs; ++s) {
      it.report.mutantSpecs.push_back(mutation::MutantSpec{
          randomString(rng), randomKind(rng), static_cast<int>(rng.range(-8, 8))});
    }
    it.report.analysis = randomAnalysisReport(rng);
    r.items.push_back(std::move(it));
  }
  return r;
}

core::FlowOptions randomFlowOptions(Prng& rng) {
  core::FlowOptions o;
  o.sensorKind = rng.chance(0.5) ? insertion::SensorKind::Razor
                                 : insertion::SensorKind::Counter;
  o.testbenchCycles = rng.below(4096);
  if (rng.chance(0.5)) {
    o.staCorner = sta::Corner{randomString(rng), randomDouble(rng), randomDouble(rng),
                              randomDouble(rng)};
  }
  if (rng.chance(0.5)) o.staThresholdFraction = randomDouble(rng);
  if (rng.chance(0.5)) o.staSpreadFraction = randomDouble(rng);
  if (rng.chance(0.5)) o.hfRatio = static_cast<int>(rng.below(16));
  switch (rng.below(3)) {
    case 0: o.mutantSet = core::MutantSetVariant::Full; break;
    case 1: o.mutantSet = core::MutantSetVariant::MinDelay; break;
    default: o.mutantSet = core::MutantSetVariant::MaxDelay; break;
  }
  o.mutantBegin = rng.below(64);
  o.mutantEnd = rng.below(64);
  o.useGoldenCache = rng.chance(0.5);
  o.useMutantCache = rng.chance(0.5);
  o.timingRepetitions = static_cast<int>(rng.below(8));
  o.measureRtl = rng.chance(0.5);
  o.measureTlm = rng.chance(0.5);
  o.measureOptimized = rng.chance(0.5);
  o.runMutationAnalysis = rng.chance(0.5);
  o.analysisThreads = static_cast<int>(rng.below(16));
  switch (rng.below(3)) {
    case 0: o.backend = analysis::SimBackend::Auto; break;
    case 1: o.backend = analysis::SimBackend::Interpreter; break;
    default: o.backend = analysis::SimBackend::Native; break;
  }
  o.batch = static_cast<int>(rng.below(128));
  return o;
}

campaign::CampaignSpec randomCampaignSpec(Prng& rng) {
  campaign::CampaignSpec spec;
  spec.name = randomString(rng);
  spec.executor.threads = static_cast<int>(rng.below(16));
  static const char* const kCases[] = {"Plasma", "DSP", "Filter", "Handshake"};
  const std::size_t items = rng.below(4);
  for (std::size_t i = 0; i < items; ++i) {
    campaign::CampaignItem item;
    // Only the case NAME is encoded (the decoder rebuilds the case study
    // from it), so the generator skips the expensive builders.
    item.caseStudy.name = kCases[rng.below(4)];
    item.label = randomString(rng);
    item.prefixKey = randomString(rng);
    item.options = randomFlowOptions(rng);
    spec.items.push_back(std::move(item));
  }
  return spec;
}

campaign::ShardUnit randomShardUnit(Prng& rng) {
  return campaign::ShardUnit{rng.below(64), rng.below(8), rng.below(32)};
}

campaign::ShardOutput randomShardOutput(Prng& rng) {
  campaign::ShardOutput o;
  o.specFnv = rng.next();
  o.shardIndex = static_cast<int>(rng.below(8));
  o.shardCount = 1 + static_cast<int>(rng.below(8));
  const std::size_t units = rng.below(3);
  for (std::size_t u = 0; u < units; ++u) o.units.push_back(randomShardUnit(rng));
  o.result = randomCampaignResult(rng);
  return o;
}

// --- dispatcher daemon wire frames (campaign/dispatch.h) ---------------------

campaign::SubmitFrame randomSubmitFrame(Prng& rng) {
  campaign::SubmitFrame f;
  f.specFnv = rng.next();
  f.campaignId = rng.below(256);  // 0 = dispatcher run mode, nonzero = served
  f.seq = rng.next();
  f.taskIndex = rng.below(256);
  f.taskCount = 1 + rng.below(256);
  f.attempt = rng.below(4);
  f.unit = randomShardUnit(rng);
  f.spec = randomCampaignSpec(rng);  // v8: the unit's item as a one-item spec
  if (f.spec.items.size() > 1) f.spec.items.resize(1);
  f.shutdown = rng.chance(0.2);
  return f;
}

campaign::StatusFrame randomStatusFrame(Prng& rng) {
  campaign::StatusFrame f;
  f.workerIndex = rng.below(16);
  f.generation = rng.below(4);
  f.itemsDone = rng.below(256);
  f.state = rng.chance(0.5) ? "ready" : "working";
  return f;
}

campaign::HeartbeatFrame randomHeartbeatFrame(Prng& rng) {
  campaign::HeartbeatFrame f;
  f.workerIndex = rng.below(16);
  f.generation = rng.below(4);
  f.seq = rng.next();
  f.itemsDone = rng.below(256);
  return f;
}

campaign::ResultFrame randomResultFrame(Prng& rng) {
  campaign::ResultFrame f;
  f.campaignId = rng.below(256);
  f.seq = rng.next();
  f.taskIndex = rng.below(256);
  f.attempt = rng.below(4);
  f.output = randomShardOutput(rng);
  return f;
}

// --- campaign service client frames (campaign/server.h, codec v6) ------------

campaign::ClientSubmitFrame randomClientSubmitFrame(Prng& rng) {
  campaign::ClientSubmitFrame f;
  f.clientName = randomString(rng);
  f.spec = campaign::encodeCampaignSpec(randomCampaignSpec(rng));
  f.maxFragmentMutants = rng.below(32);
  if (rng.chance(0.5)) f.deadlineMs = rng.below(1u << 20);  // v7: 0 = none
  return f;
}

campaign::AcceptFrame randomAcceptFrame(Prng& rng) {
  campaign::AcceptFrame f;
  f.campaignId = 1 + rng.below(1u << 20);  // the decoder rejects id 0
  f.specFnv = rng.next();
  f.unitCount = rng.below(1024);
  return f;
}

campaign::RejectFrame randomRejectFrame(Prng& rng) {
  campaign::RejectFrame f;
  f.reason = randomString(rng);
  f.retryAfterMs = rng.below(100000);
  return f;
}

campaign::ItemResultFrame randomItemResultFrame(Prng& rng) {
  campaign::ItemResultFrame f;
  f.campaignId = 1 + rng.below(256);
  f.taskIndex = rng.below(256);
  f.taskCount = 1 + rng.below(256);
  f.output = randomShardOutput(rng);
  return f;
}

campaign::CampaignDoneFrame randomCampaignDoneFrame(Prng& rng) {
  campaign::CampaignDoneFrame f;
  f.campaignId = 1 + rng.below(256);
  f.unitsTotal = rng.below(1024);
  f.unitsCompleted = rng.below(1024);
  f.requeues = rng.below(8);
  f.cancelled = rng.chance(0.3);
  if (rng.chance(0.3)) f.error = randomString(rng);
  const std::size_t quarantined = rng.below(5);  // v7
  for (std::size_t i = 0; i < quarantined; ++i) f.quarantined.push_back(rng.below(1024));
  return f;
}

analysis::GoldenTrace randomGoldenTrace(Prng& rng) {
  analysis::GoldenTrace trace;
  const std::size_t cycles = rng.below(12);
  const std::size_t outW = rng.below(4);
  const std::size_t epW = rng.below(4);
  trace.cycles = cycles;
  trace.outWidth = outW;
  trace.epWidth = epW;
  trace.outputs = util::MappedWords(cycles * outW);
  trace.endpoints = util::MappedWords(cycles * epW);
  for (std::size_t c = 0; c < cycles; ++c) {
    for (std::size_t o = 0; o < outW; ++o) trace.outputs[c * outW + o] = rng.next();
    for (std::size_t e = 0; e < epW; ++e) trace.endpoints[c * epW + e] = rng.next();
  }
  // epWidth is derived from the endpoint rows at encode time: a zero-cycle
  // trace has no rows, hence no endpoint columns to carry metadata for.
  trace.firstActivity.resize(cycles == 0 ? 0 : epW);
  for (auto& w : trace.firstActivity) w = rng.next();
  return trace;
}

analysis::CheckpointRecording randomCheckpointRecording(Prng& rng) {
  analysis::CheckpointRecording rec;
  rec.interval = 1 + rng.below(64);
  const std::size_t count = rng.below(4);
  const std::size_t stateWords = rng.below(4);
  for (std::size_t i = 0; i < count; ++i) {
    rec.cycles.push_back(rec.interval * (i + 1));
    for (auto& w : rec.snapWords.emplace_back(stateWords)) w = rng.next();
  }
  rec.recordedCycles = rec.cycles.empty() ? 0 : rec.cycles.back();
  return rec;
}

// --- the three fuzz properties -----------------------------------------------

/// A named encode/decode pair: decode(bytes) either throws DecodeError or
/// yields a value, and reencode(decode(bytes)) lets the harness check the
/// inverse property without knowing the value type.
struct Codec {
  const char* name;
  std::function<std::string(Prng&)> randomDoc;          // encode(randomValue)
  std::function<std::string(std::string_view)> reroll;  // encode(decode(bytes))
};

std::vector<Codec> codecs() {
  return {
      {"mutant-result",
       [](Prng& rng) { return campaign::encodeMutantResult(randomMutantResult(rng)); },
       [](std::string_view b) {
         return campaign::encodeMutantResult(campaign::decodeMutantResult(b));
       }},
      {"mutant-artifact",
       [](Prng& rng) {
         return analysis::encodeMutantResultArtifact(randomMutantResult(rng));
       },
       [](std::string_view b) {
         return analysis::encodeMutantResultArtifact(
             analysis::decodeMutantResultArtifact(b));
       }},
      {"analysis-report",
       [](Prng& rng) { return campaign::encodeAnalysisReport(randomAnalysisReport(rng)); },
       [](std::string_view b) {
         return campaign::encodeAnalysisReport(campaign::decodeAnalysisReport(b));
       }},
      {"campaign-result",
       [](Prng& rng) { return campaign::encodeCampaignResult(randomCampaignResult(rng)); },
       [](std::string_view b) {
         return campaign::encodeCampaignResult(campaign::decodeCampaignResult(b));
       }},
      {"campaign-spec",
       [](Prng& rng) { return campaign::encodeCampaignSpec(randomCampaignSpec(rng)); },
       [](std::string_view b) {
         return campaign::encodeCampaignSpec(campaign::decodeCampaignSpec(b));
       }},
      {"shard-output",
       [](Prng& rng) { return campaign::encodeShardOutput(randomShardOutput(rng)); },
       [](std::string_view b) {
         return campaign::encodeShardOutput(campaign::decodeShardOutput(b));
       }},
      {"dispatch-submit",
       [](Prng& rng) { return campaign::encodeSubmitFrame(randomSubmitFrame(rng)); },
       [](std::string_view b) {
         return campaign::encodeSubmitFrame(campaign::decodeSubmitFrame(b));
       }},
      {"dispatch-status",
       [](Prng& rng) { return campaign::encodeStatusFrame(randomStatusFrame(rng)); },
       [](std::string_view b) {
         return campaign::encodeStatusFrame(campaign::decodeStatusFrame(b));
       }},
      {"dispatch-heartbeat",
       [](Prng& rng) { return campaign::encodeHeartbeatFrame(randomHeartbeatFrame(rng)); },
       [](std::string_view b) {
         return campaign::encodeHeartbeatFrame(campaign::decodeHeartbeatFrame(b));
       }},
      {"dispatch-result",
       [](Prng& rng) { return campaign::encodeResultFrame(randomResultFrame(rng)); },
       [](std::string_view b) {
         return campaign::encodeResultFrame(campaign::decodeResultFrame(b));
       }},
      {"client-submit",
       [](Prng& rng) {
         return campaign::encodeClientSubmitFrame(randomClientSubmitFrame(rng));
       },
       [](std::string_view b) {
         return campaign::encodeClientSubmitFrame(campaign::decodeClientSubmitFrame(b));
       }},
      {"dispatch-accept",
       [](Prng& rng) { return campaign::encodeAcceptFrame(randomAcceptFrame(rng)); },
       [](std::string_view b) {
         return campaign::encodeAcceptFrame(campaign::decodeAcceptFrame(b));
       }},
      {"dispatch-reject",
       [](Prng& rng) { return campaign::encodeRejectFrame(randomRejectFrame(rng)); },
       [](std::string_view b) {
         return campaign::encodeRejectFrame(campaign::decodeRejectFrame(b));
       }},
      {"dispatch-item-result",
       [](Prng& rng) {
         return campaign::encodeItemResultFrame(randomItemResultFrame(rng));
       },
       [](std::string_view b) {
         return campaign::encodeItemResultFrame(campaign::decodeItemResultFrame(b));
       }},
      {"dispatch-done",
       [](Prng& rng) {
         return campaign::encodeCampaignDoneFrame(randomCampaignDoneFrame(rng));
       },
       [](std::string_view b) {
         return campaign::encodeCampaignDoneFrame(campaign::decodeCampaignDoneFrame(b));
       }},
      {"golden-trace",
       [](Prng& rng) { return analysis::encodeGoldenTrace(randomGoldenTrace(rng)); },
       [](std::string_view b) {
         return analysis::encodeGoldenTrace(analysis::decodeGoldenTrace(b));
       }},
      {"campaign-checkpoints",
       [](Prng& rng) {
         return analysis::encodeCheckpointRecording(randomCheckpointRecording(rng));
       },
       [](std::string_view b) {
         return analysis::encodeCheckpointRecording(analysis::decodeCheckpointRecording(b));
       }},
  };
}

TEST(CodecFuzz, RandomizedRoundTripsAreByteStable) {
  Prng rng(0xC0DEC0DEC0DEC0DEULL);
  for (const Codec& codec : codecs()) {
    for (int iter = 0; iter < 50; ++iter) {
      const std::string doc = codec.randomDoc(rng);
      std::string rerolled;
      ASSERT_NO_THROW(rerolled = codec.reroll(doc))
          << codec.name << " iteration " << iter;
      EXPECT_EQ(doc, rerolled) << codec.name << " iteration " << iter;
    }
  }
}

TEST(CodecFuzz, EverySingleByteTruncationRaisesDecodeError) {
  Prng rng(0x7142C47E5EEDULL);
  for (const Codec& codec : codecs()) {
    for (int iter = 0; iter < 8; ++iter) {
      const std::string doc = codec.randomDoc(rng);
      for (std::size_t cut = 0; cut < doc.size(); ++cut) {
        EXPECT_THROW(codec.reroll(std::string_view(doc).substr(0, cut)), DecodeError)
            << codec.name << " iteration " << iter << " cut at " << cut << "/"
            << doc.size();
      }
    }
  }
}

TEST(CodecFuzz, EncodingsMatchThePinnedFormat) {
  // fnv1a64 over fixed-seed documents of every codec, the builtin preset
  // specs and one flow-prefix artifact. A mismatch is a wire-format change:
  // make it deliberately — bump the codec's version and re-pin.
  const std::map<std::string, std::uint64_t> pinned = {
      {"mutant-result", 0xe8778458f5c09f71ULL},
      {"mutant-artifact", 0xe7e679e645cd19e6ULL},
      {"analysis-report", 0x1a5237f0a900f557ULL},
      {"campaign-result", 0x8befe3feca98d25eULL},
      {"campaign-spec", 0xe404a7294a55d297ULL},
      {"shard-output", 0x65534e3f14dba7bULL},
      {"dispatch-submit", 0x388623f835f4fb9fULL},
      {"dispatch-status", 0x23aecfe10f74ba64ULL},
      {"dispatch-heartbeat", 0xddbd8bed3eb4cb6cULL},
      {"dispatch-result", 0xb19186a492cd23d9ULL},
      {"client-submit", 0xd0a538ff0e87a59fULL},
      {"dispatch-accept", 0xa7fbd20b94171889ULL},
      {"dispatch-reject", 0xd32f90922de668cULL},
      {"dispatch-item-result", 0x4fe44991e7caf514ULL},
      {"dispatch-done", 0xf2b0fbc07451214ULL},
      {"golden-trace", 0xf12b9d5ebe2599c8ULL},
      {"campaign-checkpoints", 0x10c6551361d0136bULL},
      {"preset:smoke", 0x34b34f75c8dfc7e1ULL},
      {"preset:single", 0x35077167b7f76093ULL},
      {"preset:failing", 0x533aecd430adc708ULL},
      {"flow-prefix:Filter/razor", 0x4e95d4e5a19d0983ULL},
  };
  std::map<std::string, std::uint64_t> actual;
  for (const Codec& codec : codecs()) {
    Prng rng(0x5EED0F0124A7ULL);
    std::uint64_t h = util::kFnvOffset;
    for (int i = 0; i < 200; ++i) h = util::fnv1a64(codec.randomDoc(rng), h);
    actual[codec.name] = h;
  }
  for (const std::string& preset : campaign::builtinCampaignSpecNames()) {
    actual["preset:" + preset] =
        util::fnv1a64(campaign::encodeCampaignSpec(campaign::builtinCampaignSpec(preset)));
  }
  core::FlowOptions razor;
  razor.sensorKind = insertion::SensorKind::Razor;
  actual["flow-prefix:Filter/razor"] = util::fnv1a64(
      campaign::encodeFlowPrefix(core::buildFlowPrefix(ips::buildFilterCase(), razor)));

  ASSERT_EQ(pinned.size(), actual.size());
  for (const auto& [name, hash] : actual) {
    const auto it = pinned.find(name);
    ASSERT_NE(pinned.end(), it) << name << " is not pinned";
    EXPECT_EQ(it->second, hash) << name << ": encodes to 0x" << std::hex << hash;
  }
}

TEST(CodecFuzz, GoldenTraceRejectsOverflowingCountsBeforeAllocating) {
  // A verified-but-hostile entry (fingerprint collision or crafted file):
  // counts whose product wraps std::size_t must throw DecodeError up
  // front, never reach a resize() that dies with length_error/bad_alloc.
  util::Encoder e("golden-trace", analysis::kGoldenTraceCodecVersion);
  e.u64("cycles", 1);
  e.u64("outWidth", 1ULL << 61);
  e.u64("epWidth", 0);
  e.str("outputs", "");
  e.str("endpoints", "");
  e.str("firstActivity", "");
  EXPECT_THROW(analysis::decodeGoldenTrace(e.out()), DecodeError);
}

TEST(CodecFuzz, CheckpointRecordingRejectsAWidthWithoutSnapshots) {
  // The canonical empty recording carries width 0; any other width would
  // decode to the same empty value and re-encode to different bytes.
  util::Encoder e("campaign-checkpoints", analysis::kCheckpointCodecVersion);
  e.u64("interval", 4);
  e.u64("recordedCycles", 0);
  e.u64("count", 0);
  e.u64("stateWords", 1);
  e.str("cycles", "");
  e.str("snapWords", "");
  EXPECT_THROW(analysis::decodeCheckpointRecording(e.out()), DecodeError);
}

TEST(CodecFuzz, DispatchFramesRejectMixedSchemaVersions) {
  // A dispatcher and a worker built against different campaign schema
  // versions must refuse to talk: every daemon frame re-rendered with a
  // NEIGHBORING version in its header is a DecodeError, for every frame
  // kind, in both directions of the skew.
  Prng rng(0xD15BA7C4ULL);
  const struct {
    const char* tag;
    std::function<std::string(Prng&)> randomDoc;
    std::function<void(std::string_view)> decode;
  } frames[] = {
      {campaign::kSubmitFrameTag,
       [](Prng& r) { return campaign::encodeSubmitFrame(randomSubmitFrame(r)); },
       [](std::string_view b) { campaign::decodeSubmitFrame(b); }},
      {campaign::kStatusFrameTag,
       [](Prng& r) { return campaign::encodeStatusFrame(randomStatusFrame(r)); },
       [](std::string_view b) { campaign::decodeStatusFrame(b); }},
      {campaign::kHeartbeatFrameTag,
       [](Prng& r) { return campaign::encodeHeartbeatFrame(randomHeartbeatFrame(r)); },
       [](std::string_view b) { campaign::decodeHeartbeatFrame(b); }},
      {campaign::kResultFrameTag,
       [](Prng& r) { return campaign::encodeResultFrame(randomResultFrame(r)); },
       [](std::string_view b) { campaign::decodeResultFrame(b); }},
      {campaign::kClientSubmitFrameTag,
       [](Prng& r) { return campaign::encodeClientSubmitFrame(randomClientSubmitFrame(r)); },
       [](std::string_view b) { campaign::decodeClientSubmitFrame(b); }},
      {campaign::kAcceptFrameTag,
       [](Prng& r) { return campaign::encodeAcceptFrame(randomAcceptFrame(r)); },
       [](std::string_view b) { campaign::decodeAcceptFrame(b); }},
      {campaign::kRejectFrameTag,
       [](Prng& r) { return campaign::encodeRejectFrame(randomRejectFrame(r)); },
       [](std::string_view b) { campaign::decodeRejectFrame(b); }},
      {campaign::kItemResultFrameTag,
       [](Prng& r) { return campaign::encodeItemResultFrame(randomItemResultFrame(r)); },
       [](std::string_view b) { campaign::decodeItemResultFrame(b); }},
      {campaign::kCampaignDoneFrameTag,
       [](Prng& r) { return campaign::encodeCampaignDoneFrame(randomCampaignDoneFrame(r)); },
       [](std::string_view b) { campaign::decodeCampaignDoneFrame(b); }},
  };
  for (const auto& frame : frames) {
    const std::string doc = frame.randomDoc(rng);
    const std::string header =
        "xlv " + std::string(frame.tag) + " v" +
        std::to_string(campaign::kCampaignCodecVersion) + "\n";
    ASSERT_EQ(doc.substr(0, header.size()), header) << frame.tag;
    EXPECT_EQ(util::peekDocumentTag(doc), frame.tag);
    for (const int skew : {-1, 1}) {
      const std::string other =
          "xlv " + std::string(frame.tag) + " v" +
          std::to_string(campaign::kCampaignCodecVersion + skew) + "\n" +
          doc.substr(header.size());
      EXPECT_THROW(frame.decode(other), DecodeError) << frame.tag << " skew " << skew;
      // The tag still peeks (that is how the dispatcher would route it to
      // the decoder that then rejects the version).
      EXPECT_EQ(util::peekDocumentTag(other), frame.tag);
    }
  }
}

TEST(CodecFuzz, PeekDocumentTagRejectsMalformedHeaders) {
  EXPECT_EQ(util::peekDocumentTag("xlv shard-output v5\nrest"), "shard-output");
  EXPECT_THROW(util::peekDocumentTag(""), DecodeError);
  EXPECT_THROW(util::peekDocumentTag("xlv shard-output v5"), DecodeError);  // no newline
  EXPECT_THROW(util::peekDocumentTag("XLV shard-output v5\n"), DecodeError);
  EXPECT_THROW(util::peekDocumentTag("xlv \n"), DecodeError);
  EXPECT_THROW(util::peekDocumentTag("xlv v5\n"), DecodeError);
}

TEST(CodecFuzz, EverySingleByteCorruptionIsRejectedOrDecodesToExactlyThoseBytes) {
  Prng rng(0xBADBADBADBADULL);
  for (const Codec& codec : codecs()) {
    for (int iter = 0; iter < 4; ++iter) {
      const std::string doc = codec.randomDoc(rng);
      for (std::size_t pos = 0; pos < doc.size(); ++pos) {
        for (const unsigned char delta : {0x01, 0x80}) {
          std::string corrupted = doc;
          corrupted[pos] = static_cast<char>(corrupted[pos] ^ delta);
          try {
            const std::string rerolled = codec.reroll(corrupted);
            // Accepted: then the decode must be the exact inverse — the
            // corrupted bytes themselves are the canonical encoding of the
            // decoded value, never a silently skewed reading of them.
            EXPECT_EQ(corrupted, rerolled)
                << codec.name << " iteration " << iter << " flip 0x" << std::hex
                << static_cast<int>(delta) << " at byte " << std::dec << pos;
          } catch (const DecodeError&) {
            // Rejected: equally fine (and mandatory for framing bytes).
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace xlv
