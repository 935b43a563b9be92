// Golden-trace cache: key discrimination (distinct hfRatio / cycles /
// testbench must miss), concurrent-access safety (one recording per key,
// whatever the race), cached-vs-uncached report equality, and the trace
// codec's pinned byte format.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/golden_cache.h"
#include "analysis/mutation_analysis.h"
#include "core/flow.h"
#include "ips/case_study.h"
#include "util/once_cache.h"

namespace xlv::analysis {
namespace {

struct Fixture {
  ips::CaseStudy cs;
  core::FlowReport flow;
  Testbench tb;
  AnalysisConfig cfg;

  explicit Fixture(std::uint64_t cycles = 80) {
    cs = ips::buildFilterCase();
    core::FlowOptions opts;
    opts.testbenchCycles = cycles;
    core::stageElaborate(cs, opts, flow);
    core::stageInsertion(cs, opts, flow);
    core::stageInjection(cs, opts, flow);
    tb = cs.testbench;
    tb.cycles = cycles;
    cfg.hfRatio = flow.hfRatio;
    cfg.sensorKind = opts.sensorKind;
  }

  std::string key() const {
    return goldenTraceKey(flow.augmentedDesign, flow.sensors, tb, cfg, "4s");
  }
};

TEST(GoldenCacheKey, IdenticalInputsAgreeDistinctInputsMiss) {
  const Fixture a;
  EXPECT_EQ(a.key(), Fixture().key());  // fully re-derived, same key

  Fixture cycles;
  cycles.tb.cycles = 81;
  EXPECT_NE(a.key(), cycles.key());

  Fixture hf;
  hf.cfg.hfRatio = 7;
  EXPECT_NE(a.key(), hf.key());

  Fixture tbName;
  tbName.tb.name = "other_stimulus";
  EXPECT_NE(a.key(), tbName.key());

  Fixture seed;
  seed.tb.seed ^= 1;
  EXPECT_NE(a.key(), seed.key());

  Fixture stim;
  stim.cfg.stimulusId = 3;
  EXPECT_NE(a.key(), stim.key());

  EXPECT_NE(a.key(), goldenTraceKey(a.flow.augmentedDesign, a.flow.sensors, a.tb, a.cfg, "2s"));

  // A different design (the clean IP instead of the augmented one) misses.
  EXPECT_NE(designFingerprint(a.flow.augmentedDesign, 0),
            designFingerprint(a.flow.cleanDesign, 0));
}

TEST(GoldenCache, ConcurrentRequestsRecordExactlyOnce) {
  util::OnceCache<GoldenTrace> cache;
  const Fixture f;
  std::atomic<int> recordings{0};
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const GoldenTrace>> traces(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      traces[t] = cache.getOrBuild(f.key(), [&] {
        recordings.fetch_add(1);
        return recordGoldenTrace<hdt::FourState>(f.flow.augmentedDesign, f.flow.sensors,
                                                 f.tb, f.cfg);
      });
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(1, recordings.load());
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(traces[0], traces[t]);  // same object
  EXPECT_EQ(1u, cache.stats().misses);
  EXPECT_EQ(static_cast<std::size_t>(kThreads - 1), cache.stats().hits);
}

TEST(GoldenCache, CachedAnalysisIsBitIdenticalToUncached) {
  goldenTraceCache().clear();
  const Fixture f;

  auto analyze = [&](bool useCache) {
    AnalysisConfig cfg = f.cfg;
    cfg.useGoldenCache = useCache;
    return analyzeMutations<hdt::FourState>(f.flow.augmentedDesign, f.flow.injected,
                                            f.flow.sensors, f.tb, cfg);
  };

  const AnalysisReport uncached = analyze(false);
  EXPECT_FALSE(uncached.goldenFromCache);

  const AnalysisReport first = analyze(true);
  EXPECT_FALSE(first.goldenFromCache);  // cold cache: this run recorded
  const AnalysisReport second = analyze(true);
  EXPECT_TRUE(second.goldenFromCache);
  EXPECT_EQ(1u, goldenTraceCache().stats().hits);

  ASSERT_GT(uncached.total(), 0);
  EXPECT_TRUE(uncached.sameResults(first));
  EXPECT_TRUE(uncached.sameResults(second));
  // The ledger shows the saving: a hit spends (almost) no golden time.
  EXPECT_GT(first.goldenSeconds, 0.0);
  EXPECT_LT(second.goldenSeconds, first.goldenSeconds);
}

TEST(OnceCache, BuildFailureIsRetriedNotCached) {
  util::OnceCache<int> cache;
  EXPECT_THROW(cache.getOrBuild("k", []() -> int { throw std::runtime_error("boom"); }),
               std::runtime_error);
  auto v = cache.getOrBuild("k", [] { return 42; });
  ASSERT_NE(nullptr, v);
  EXPECT_EQ(42, *v);
}

/// A 3-cycle trace with two outputs and one sensor, built by hand.
GoldenTrace handBuiltTrace() {
  GoldenTrace t;
  t.cycles = 3;
  t.outWidth = 2;
  t.epWidth = 1;
  t.outputs = util::MappedWords(6);
  const std::uint64_t outs[6] = {0x0123456789abcdefULL, 1, 2, ~0ULL, 0, 0x8000000000000000ULL};
  for (std::size_t i = 0; i < 6; ++i) t.outputs[i] = outs[i];
  t.endpoints = util::MappedWords(3);
  t.endpoints[0] = 5;
  t.endpoints[1] = 6;
  t.endpoints[2] = 0xdeadbeefULL;
  t.firstActivity = {1};
  return t;
}

TEST(GoldenTraceCodec, EncodingIsPinnedSoStoredArtifactsStayReadable) {
  // The bytes the nested-row encoder (codec v3) wrote for this trace: the
  // flat tables must encode to exactly them, and decode them back.
  static constexpr char kStored[] =
      "xlv golden-trace v3\n"
      "cycles=1:3\n"
      "outWidth=1:2\n"
      "epWidth=1:1\n"
      "outputs=48:"
      "\xef\xcd\xab\x89\x67\x45\x23\x01"
      "\x01\x00\x00\x00\x00\x00\x00\x00"
      "\x02\x00\x00\x00\x00\x00\x00\x00"
      "\xff\xff\xff\xff\xff\xff\xff\xff"
      "\x00\x00\x00\x00\x00\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x80"
      "\n"
      "endpoints=24:"
      "\x05\x00\x00\x00\x00\x00\x00\x00"
      "\x06\x00\x00\x00\x00\x00\x00\x00"
      "\xef\xbe\xad\xde\x00\x00\x00\x00"
      "\n"
      "firstActivity=8:"
      "\x01\x00\x00\x00\x00\x00\x00\x00"
      "\n";
  const std::string stored(kStored, sizeof(kStored) - 1);
  ASSERT_EQ(3, kGoldenTraceCodecVersion);
  EXPECT_EQ(stored, encodeGoldenTrace(handBuiltTrace()));

  const GoldenTrace t = decodeGoldenTrace(stored);
  const GoldenTrace want = handBuiltTrace();
  EXPECT_EQ(3u, t.cycles);
  EXPECT_EQ(2u, t.outWidth);
  EXPECT_EQ(1u, t.epWidth);
  ASSERT_EQ(6u, t.outputs.size());
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(want.outputs[i], t.outputs[i]) << i;
  EXPECT_EQ(~0ULL, t.outputRow(1)[1]);
  EXPECT_EQ(0xdeadbeefULL, t.endpoint(2, 0));
  EXPECT_EQ(want.firstActivity, t.firstActivity);
  EXPECT_EQ(stored, encodeGoldenTrace(t));
}

TEST(GoldenTraceCodec, EncodeRejectsTablesNotSizedCyclesTimesWidth) {
  GoldenTrace shortOutputs = handBuiltTrace();
  shortOutputs.outputs = util::MappedWords(5);
  EXPECT_THROW(encodeGoldenTrace(shortOutputs), std::invalid_argument);

  GoldenTrace longEndpoints = handBuiltTrace();
  longEndpoints.endpoints = util::MappedWords(4);
  EXPECT_THROW(encodeGoldenTrace(longEndpoints), std::invalid_argument);

  GoldenTrace wideRows = handBuiltTrace();
  wideRows.outWidth = 3;  // the table no longer holds cycles x outWidth words
  EXPECT_THROW(encodeGoldenTrace(wideRows), std::invalid_argument);

  GoldenTrace missingActivity = handBuiltTrace();
  missingActivity.firstActivity.clear();
  EXPECT_THROW(encodeGoldenTrace(missingActivity), std::invalid_argument);
}

TEST(GoldenTraceCodec, RecordedTraceRoundTripsThroughTheCodec) {
  const Fixture f;
  const GoldenTrace rec = recordGoldenTrace<hdt::FourState>(f.flow.augmentedDesign,
                                                            f.flow.sensors, f.tb, f.cfg);
  ASSERT_EQ(f.tb.cycles, rec.cycles);
  EXPECT_EQ(f.flow.augmentedDesign.outputs.size(), rec.outWidth);
  EXPECT_EQ(f.flow.sensors.size(), rec.epWidth);
  EXPECT_EQ(rec.cycles * rec.outWidth, rec.outputs.size());
  EXPECT_EQ(rec.cycles * rec.epWidth, rec.endpoints.size());
  const std::string bytes = encodeGoldenTrace(rec);
  EXPECT_EQ(bytes, encodeGoldenTrace(decodeGoldenTrace(bytes)));
}

}  // namespace
}  // namespace xlv::analysis
