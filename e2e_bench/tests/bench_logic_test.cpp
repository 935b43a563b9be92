// Unit tests of the benchmark's own logic: order statistics and the tail
// rule, strict knobs, seeded spec generation, verdict digests and the
// traced runner's equivalence to runCampaign.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "campaign/serialize.h"
#include "core/flow.h"
#include "knobs.h"
#include "stats.h"
#include "trace.h"
#include "traced_campaign.h"
#include "workloads.h"

namespace {

using namespace xlv;
using namespace xlv::e2e;

std::vector<double> oneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(BenchStats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(BenchStats, NearestRankPercentile) {
  EXPECT_DOUBLE_EQ(percentile(oneTo(100), 0.9), 90.0);
  EXPECT_DOUBLE_EQ(percentile(oneTo(100), 0.5), 50.0);
  EXPECT_DOUBLE_EQ(percentile(oneTo(10), 0.95), 10.0);
  EXPECT_DOUBLE_EQ(percentile(oneTo(1), 0.9), 1.0);
  EXPECT_THROW(percentile(oneTo(5), 0.0), std::invalid_argument);
}

TEST(BenchStats, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(samplesBeyond(100, 0.9), 10u);
  EXPECT_EQ(samplesBeyond(99, 0.9), 9u);
  EXPECT_EQ(samplesBeyond(0, 0.9), 0u);
  EXPECT_FALSE(reportablePercentile(oneTo(99), 0.9).has_value());
  ASSERT_TRUE(reportablePercentile(oneTo(100), 0.9).has_value());
  EXPECT_DOUBLE_EQ(*reportablePercentile(oneTo(100), 0.9), 90.0);
  // p99 needs a thousand samples.
  EXPECT_FALSE(reportablePercentile(oneTo(999), 0.99).has_value());
  EXPECT_TRUE(reportablePercentile(oneTo(1000), 0.99).has_value());
}

TEST(BenchKnobs, MalformedValuesNameKnobAndValue) {
  auto message = [](const std::vector<std::string>& args) -> std::string {
    try {
      parseBenchArgs(args);
    } catch (const KnobError& e) {
      return e.what();
    }
    return "";
  };
  const std::string seed = message({"--workload", "plasma_long", "--seed", "12abc"});
  EXPECT_NE(seed.find("--seed"), std::string::npos);
  EXPECT_NE(seed.find("12abc"), std::string::npos);
  const std::string seconds =
      message({"--workload", "plasma_long", "--seed", "1", "--seconds", "1.5"});
  EXPECT_NE(seconds.find("--seconds"), std::string::npos);
  EXPECT_NE(seconds.find("1.5"), std::string::npos);
  const std::string wl = message({"--workload", "plasma", "--seed", "1"});
  EXPECT_NE(wl.find("--workload"), std::string::npos);
  EXPECT_NE(wl.find("'plasma'"), std::string::npos);
  EXPECT_FALSE(message({"--workload", "served_mix", "--seed", "1", "--trace", "2"}).empty());
  EXPECT_FALSE(message({"--workload", "served_mix", "--seed", "-1"}).empty());
  EXPECT_FALSE(message({"--workload", "served_mix", "--seed", "1", "--seconds", "0"}).empty());
  // `all` is run.py's: it runs each workload in a process of its own.
  EXPECT_FALSE(message({"--workload", "all", "--seed", "1"}).empty());
  EXPECT_FALSE(message({"--workload", "sweep_shared", "--seed", "1", "--scale", "2"}).empty());
  EXPECT_FALSE(message({"--seed", "1"}).empty());
  EXPECT_FALSE(message({"--workload", "served_mix", "--seed"}).empty());
}

TEST(BenchKnobs, WellFormedArgs) {
  const BenchArgs a = parseBenchArgs({"--workload", "served_mix", "--seed", "42", "--seconds",
                                      "7", "--trace", "1"});
  EXPECT_EQ(a.workload, "served_mix");
  EXPECT_EQ(a.seed, 42u);
  EXPECT_EQ(a.seconds, 7);
  EXPECT_TRUE(a.trace);
}

std::string encodeAll(const std::vector<campaign::CampaignSpec>& specs) {
  std::string out;
  for (const auto& s : specs) out += campaign::encodeCampaignSpec(s);
  return out;
}

TEST(BenchWorkloads, OneSeedGivesByteIdenticalSpecs) {
  for (std::uint64_t seed : {0ull, 1ull, 977ull}) {
    EXPECT_EQ(campaign::encodeCampaignSpec(plasmaLongSpec(seed, analysis::SimBackend::Auto)),
              campaign::encodeCampaignSpec(plasmaLongSpec(seed, analysis::SimBackend::Auto)));
    EXPECT_EQ(campaign::encodeCampaignSpec(sweepSharedSpec(seed)),
              campaign::encodeCampaignSpec(sweepSharedSpec(seed)));
    const ServedMix a = servedMix(seed, 200);
    const ServedMix b = servedMix(seed, 200);
    EXPECT_EQ(a.order, b.order);
    EXPECT_EQ(encodeAll(a.specs), encodeAll(b.specs));
  }
  EXPECT_NE(campaign::encodeCampaignSpec(sweepSharedSpec(1)),
            campaign::encodeCampaignSpec(sweepSharedSpec(2)));
  EXPECT_NE(encodeAll(servedMix(1, 50).specs), encodeAll(servedMix(2, 50).specs));
}

TEST(BenchWorkloads, ShapesMatchTheirDescription) {
  EXPECT_EQ(plasmaLongSpec(3, analysis::SimBackend::Native).items.size(), 2u);
  EXPECT_EQ(sweepSharedSpec(3).items.size(), 162u);
  const ServedMix mix = servedMix(3, 400);
  ASSERT_EQ(mix.order.size(), 400u);
  EXPECT_LT(mix.specs.size(), 400u);  // some submissions re-send earlier specs
  EXPECT_GT(mix.specs.size(), 200u);
  for (const auto& s : mix.specs) {
    EXPECT_GE(s.items.size(), 1u);
    EXPECT_LE(s.items.size(), 8u);
  }
  for (const auto& item : plasmaLongSpec(3, analysis::SimBackend::Auto).items) {
    EXPECT_GE(item.options.testbenchCycles, 19900u);
    EXPECT_LE(item.options.testbenchCycles, 20100u);
  }
}

TEST(BenchDigest, VerdictsAndCycleCountsRepeatForOneSeed) {
  const campaign::CampaignSpec spec = servedMix(5, 1).specs.at(0);
  core::clearProcessCaches();
  const campaign::CampaignResult a = campaign::runCampaign(spec);
  core::clearProcessCaches();
  const campaign::CampaignResult b = campaign::runCampaign(spec);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(verdictDigest(a), verdictDigest(b));
  EXPECT_EQ(a.cyclesSimulated, b.cyclesSimulated);
  EXPECT_EQ(a.cyclesSkipped, b.cyclesSkipped);
  EXPECT_GT(a.cyclesSimulated, 0u);
  // The digest sees verdicts: flipping one changes it.
  campaign::CampaignResult c = a;
  for (auto& it : c.items) {
    if (!it.report.analysis.results.empty()) {
      it.report.analysis.results[0].killed = !it.report.analysis.results[0].killed;
      break;
    }
  }
  EXPECT_NE(verdictDigest(a), verdictDigest(c));
}

TEST(BenchTrace, TracedRunnerMatchesRunCampaign) {
  const campaign::CampaignSpec spec = servedMix(9, 1).specs.at(0);
  core::clearProcessCaches();
  const campaign::CampaignResult plain = campaign::runCampaign(spec);
  core::clearProcessCaches();
  Tracer tracer;
  const campaign::CampaignResult traced = runTracedCampaign(spec, tracer, 0);
  EXPECT_TRUE(plain.sameResults(traced));
  EXPECT_EQ(plain.cyclesSimulated, traced.cyclesSimulated);
  EXPECT_GT(tracer.busySeconds("analysis.golden"), 0.0);
  EXPECT_EQ(tracer.counter("flow.items"), static_cast<double>(spec.items.size()));
  for (const SpanRecord& s : tracer.spans()) {
    EXPECT_GE(s.endUs, s.startUs) << s.name;
    if (s.name != "campaign.item") EXPECT_NE(s.parent, 0u) << s.name;
    EXPECT_NE(s.traceId, 0u) << s.name;
  }
}

TEST(BenchTrace, SelfTimeSubtractsChildUnion) {
  std::vector<SpanRecord> spans;
  auto add = [&](const char* name, std::uint64_t id, std::uint64_t parent, double lo, double hi) {
    SpanRecord s;
    s.name = name;
    s.id = id;
    s.parent = parent;
    s.startUs = lo;
    s.endUs = hi;
    spans.push_back(s);
  };
  add("root", 1, 0, 0, 100e3);
  add("child", 2, 1, 10e3, 40e3);
  add("child", 3, 1, 30e3, 50e3);  // overlaps its sibling
  add("leaf", 4, 2, 15e3, 20e3);
  const auto self = computeSelfSeconds(spans);
  EXPECT_NEAR(self.at("root"), 0.060, 1e-12);
  EXPECT_NEAR(self.at("child"), 0.030 - 0.005 + 0.020, 1e-12);
  EXPECT_NEAR(self.at("leaf"), 0.005, 1e-12);
}

TEST(BenchTrace, UnwritableTraceFails) {
  Tracer tracer;
  { Span s(&tracer, "x"); }
  std::string error;
  EXPECT_FALSE(tracer.writeChromeTrace("/nonexistent-dir/trace.json", &error));
  EXPECT_NE(error.find("nonexistent-dir"), std::string::npos);
}

}  // namespace
