#include "traced_campaign.h"

#include <algorithm>
#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>

#include "abstraction/native_backend.h"
#include "abstraction/tlm_model.h"
#include "analysis/golden_cache.h"
#include "analysis/mutant_cache.h"
#include "campaign/executor.h"
#include "campaign/serialize.h"
#include "util/artifact_store.h"
#include "util/timer.h"

namespace xlv::e2e {

namespace {

using P = hdt::FourState;

/// Memory, then the artifact store, then build — the chain of
/// util::getOrBuildWithStore, unrolled so each store and codec call gets its
/// own span. `useStore` false keeps the value in memory only.
template <class V>
std::shared_ptr<const V> fetchOrBuild(Tracer& tr, util::OnceCache<V>& mem, bool useStore,
                                      const char* domain, const std::string& key,
                                      const std::function<V()>& build,
                                      const std::function<std::string(const V&)>& encode,
                                      const std::function<V(std::string_view)>& decode,
                                      bool* hit) {
  util::ArtifactStore* store = useStore ? util::processArtifactStore() : nullptr;
  bool memHit = false, diskHit = false;
  auto value = mem.getOrBuild(
      key,
      [&]() -> V {
        if (store != nullptr) {
          std::optional<std::string> payload;
          {
            Span s(&tr, "store.load");
            payload = store->load(domain, key);
          }
          if (payload) {
            tr.add("store.bytes", static_cast<double>(payload->size()));
            tr.add("codec.bytes", static_cast<double>(payload->size()));
            try {
              Span s(&tr, "codec.decode");
              V v = decode(*payload);
              diskHit = true;
              tr.add("store.hits", 1);
              return v;
            } catch (const util::DecodeError&) {
              store->dropCorrupt(domain, key);
            }
          }
        }
        V v = build();
        if (store != nullptr) {
          std::string bytes;
          {
            Span s(&tr, "codec.encode");
            bytes = encode(v);
          }
          {
            Span s(&tr, "store.store");
            store->store(domain, key, bytes);
          }
          tr.add("store.stores", 1);
          tr.add("store.bytes", static_cast<double>(bytes.size()));
          tr.add("codec.bytes", static_cast<double>(bytes.size()));
        }
        return v;
      },
      &memHit);
  if (hit != nullptr) *hit = memHit || diskHit;
  return value;
}

void tracedAnalysis(Tracer& tr, const ips::CaseStudy& cs, const core::FlowOptions& opts,
                    core::FlowReport& report) {
  if (opts.mutantBegin != 0 || opts.mutantEnd != 0) {
    throw std::invalid_argument("traced run: mutant-range fragments are not traced");
  }
  analysis::AnalysisConfig acfg;
  acfg.hfRatio = report.hfRatio;
  acfg.sensorKind = opts.sensorKind;
  acfg.threads = opts.analysisThreads;
  acfg.useGoldenCache = opts.useGoldenCache;
  acfg.useMutantCache = opts.useMutantCache;
  acfg.backend = opts.backend;
  acfg.batch = opts.batch;
  analysis::Testbench tb = cs.testbench;
  tb.cycles = core::flowCycles(cs, opts);
  const bool native = analysis::resolveSimBackend(acfg.backend) == analysis::SimBackend::Native;

  analysis::AnalysisReport& out = report.analysis;
  out.cyclesPerRun = tb.cycles;

  if (native) {
    // Both libraries prepare would acquire (golden layout, injected layout),
    // acquired here first so the compile is its own span; prepare then
    // finds them in the in-process library cache.
    const abstraction::TlmModelConfig mcfg{acfg.hfRatio, false};
    const auto goldenLayout = abstraction::buildTlmModelLayout(report.augmentedDesign, mcfg);
    const auto injectedLayout =
        abstraction::buildTlmModelLayout(report.injected.design, mcfg, report.injected.mutants);
    abstraction::NativeUseStats st;
    {
      Span s(&tr, "abstraction.native_compile");
      abstraction::getNativeLibrary(*goldenLayout, true, &st);
      abstraction::getNativeLibrary(*injectedLayout, true, &st);
    }
    tr.add("abstraction.native_compiles", st.compiles);
    out.nativeCompiles += st.compiles;
    out.nativeCacheHits += st.cacheHits;
  }

  // The golden trace: recorded here (its own span) and handed to prepare
  // through the golden cache, under the key prepare computes.
  const std::string goldenKey =
      analysis::goldenTraceKey(report.augmentedDesign, report.sensors, tb, acfg, "4s");
  bool goldenHit = false;
  double goldenSeconds = 0.0;
  fetchOrBuild<analysis::GoldenTrace>(
      tr, analysis::goldenTraceCache(), acfg.useGoldenCache, "golden", goldenKey,
      [&] {
        Span s(&tr, "analysis.golden");
        util::Timer t;
        analysis::GoldenTrace g = analysis::recordGoldenTrace<P>(report.augmentedDesign,
                                                                report.sensors, tb, acfg);
        goldenSeconds = t.seconds();
        return g;
      },
      analysis::encodeGoldenTrace, analysis::decodeGoldenTrace, &goldenHit);
  out.goldenSeconds = goldenSeconds;
  out.goldenFromCache = goldenHit;

  analysis::AnalysisConfig prepCfg = acfg;
  prepCfg.useGoldenCache = true;
  std::optional<analysis::MutationCampaignContext> ctx;
  {
    Span s(&tr, "analysis.prepare");
    ctx.emplace(analysis::prepareMutationCampaign<P>(report.augmentedDesign, report.injected,
                                                     report.sensors, tb, prepCfg));
  }
  const bool ranNative = ctx->nativeLib != nullptr;
  const std::string engine = ranNative ? "native" : "interp";

  const std::size_t n = ctx->layout->mutants.size();
  out.results.resize(n);
  tr.add("analysis.mutants", static_cast<double>(n));
  for (std::size_t i = 0; i < n; ++i) {
    const int index = static_cast<int>(i);
    auto simulate = [&] {
      analysis::MutantSimStats stats;
      util::Timer t;
      analysis::MutantResult r;
      {
        Span s(&tr, "analysis.mutant");
        r = analysis::simulateMutant<P>(*ctx, index, &stats);
      }
      tr.add("abstraction." + engine + "_mutant_s", t.seconds());
      tr.add("abstraction." + engine + "_cycles", static_cast<double>(stats.cyclesSimulated));
      out.cyclesSimulated += stats.cyclesSimulated;
      out.cyclesSkipped += stats.cyclesSkipped;
      return r;
    };
    if (!acfg.useMutantCache) {
      out.results[i] = simulate();
      continue;
    }
    const auto& mutant = ctx->layout->mutants[i];
    bool hit = false;
    const auto cached = fetchOrBuild<analysis::MutantResult>(
        tr, analysis::mutantResultCache(), true, "mutant",
        analysis::mutantResultKey(ctx->goldenKey, mutant.spec),
        [&] {
          analysis::MutantResult r = simulate();
          r.id = -1;
          return r;
        },
        analysis::encodeMutantResultArtifact, analysis::decodeMutantResultArtifact, &hit);
    out.results[i] = *cached;
    out.results[i].id = mutant.id;
    out.mutantCacheHits += hit ? 1 : 0;
  }
  if (ctx->checkpoints->recorded.load() && !ctx->checkpoints->fromCache &&
      ctx->checkpoints->rec != nullptr) {
    out.cyclesSimulated += ctx->checkpoints->rec->recordedCycles;
  }
  tr.add("analysis.mutant_cache_hits", out.mutantCacheHits);
  tr.add("analysis.cycles_simulated", static_cast<double>(out.cyclesSimulated));
  tr.add("analysis.cycles_skipped", static_cast<double>(out.cyclesSkipped));
}

core::FlowReport tracedFlow(Tracer& tr, const campaign::CampaignItem& item, bool& prefixShared) {
  const ips::CaseStudy& cs = item.caseStudy;
  const core::FlowOptions& opts = item.options;
  auto buildPrefix = [&] {
    core::FlowPrefix p;
    {
      Span s(&tr, "flow.elaborate");
      core::stageElaborate(cs, opts, p.report);
    }
    {
      Span s(&tr, "flow.insertion");
      core::stageInsertion(cs, opts, p.report);
    }
    return p;
  };
  core::FlowReport report;
  if (!item.prefixKey.empty()) {
    const auto prefix = fetchOrBuild<core::FlowPrefix>(
        tr, core::flowPrefixCache(), true, "prefix", item.prefixKey, buildPrefix,
        campaign::encodeFlowPrefix,
        [&](std::string_view data) { return campaign::decodeFlowPrefix(data, cs, opts); },
        &prefixShared);
    report = prefix->report;
    report.hfRatio = core::flowHfRatio(cs, opts);
  } else {
    report = buildPrefix().report;
  }
  {
    Span s(&tr, "flow.abstraction");
    core::stageAbstraction(report);
  }
  {
    Span s(&tr, "flow.injection");
    core::stageInjection(cs, opts, report);
  }
  core::stageTimings(cs, opts, report);
  if (opts.runMutationAnalysis) tracedAnalysis(tr, cs, opts, report);
  return report;
}

}  // namespace

campaign::CampaignResult runTracedCampaign(const campaign::CampaignSpec& spec, Tracer& tracer,
                                           std::uint64_t traceBase) {
  util::Timer wall;
  campaign::CampaignResult result;
  result.name = spec.name;
  result.items.resize(spec.items.size());
  campaign::Executor executor(spec.executor);
  result.threadsUsed = executor.effectiveThreads(spec.items.size());
  executor.run(spec.items.size(), [&](std::size_t i) {
    const campaign::CampaignItem& item = spec.items[i];
    campaign::CampaignItemResult& out = result.items[i];
    out.taskId = i;
    out.label = item.label.empty()
                    ? item.caseStudy.name + "/" + insertion::sensorKindName(item.options.sensorKind)
                    : item.label;
    Span span(&tracer, "campaign.item", traceBase + i + 1);
    util::Timer t;
    try {
      out.report = tracedFlow(tracer, item, out.prefixShared);
      out.goldenSeconds = out.report.analysis.goldenSeconds;
      out.goldenFromCache = out.report.analysis.goldenFromCache;
    } catch (const std::exception& e) {
      out.error = e.what();
    } catch (...) {
      out.error = "unknown error";
    }
    out.taskSeconds = t.seconds();
  });
  for (const auto& it : result.items) {
    const auto& a = it.report.analysis;
    result.simSeconds += it.taskSeconds;
    result.goldenSeconds += it.goldenSeconds;
    result.goldenCacheHits += it.goldenFromCache ? 1 : 0;
    result.prefixCacheHits += it.prefixShared ? 1 : 0;
    result.mutantCacheHits += a.mutantCacheHits;
    result.cyclesSimulated += a.cyclesSimulated;
    result.cyclesSkipped += a.cyclesSkipped;
    result.nativeCompiles += a.nativeCompiles;
    result.nativeCacheHits += a.nativeCacheHits;
  }
  tracer.add("flow.items", static_cast<double>(spec.items.size()));
  tracer.add("flow.prefix_hits", result.prefixCacheHits);
  result.wallSeconds = wall.seconds();
  return result;
}

}  // namespace xlv::e2e
