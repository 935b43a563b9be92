// Campaign units: single-process reference versus the same campaign split
// into dispatch units, each run as a separate worker process would, merged.
//
// Workload: the "smoke" builtin spec (2 IPs x 2 sensor kinds x 2 STA
// corners), whole items and mutant-range fragments, plus the "single" spec
// fragmented by mutant range. Each unit is executed by the conformance
// suites' helper (tests/campaign/unit_runner.h): process-wide caches
// cleared and artifacts pushed through the wire codecs, i.e. exactly what a
// worker process of the xlv_campaignd pool sees; the merged result must be
// bit-identical (CampaignResult::sameResults) to the single-process run.
//
// Self-check (CI runs the true multi-process variant through
// `xlv_campaignd run`; this binary is the in-process equivalent): any
// divergence, for any unit split, exits nonzero — and so does the
// artifact-store warm leg when its ledgers report zero disk hits (a
// silently disabled cache must not pass on a vacuously identical diff).
#include <stdlib.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

#include "analysis/golden_cache.h"
#include "analysis/mutant_cache.h"
#include "bench/common.h"
#include "campaign/serialize.h"
#include "campaign/shard.h"
#include "core/flow.h"
#include "tests/campaign/unit_runner.h"
#include "util/artifact_store.h"
#include "util/table.h"

namespace {

using namespace xlv;

void clearCaches() { core::clearProcessCaches(); }

}  // namespace

int main() {
  bench::banner("Campaign units — one process per unit vs one, bit-identical merge",
                "the process-level scaling of paper Section 7's campaigns");

  bool ok = true;
  util::Table t({"Spec", "Max fragment", "Units", "Wall max (s)", "Sim sum (s)", "Identical"});

  // --- the smoke sweep: whole items, then two fragment sizes -----------------
  campaign::CampaignSpec smoke = campaign::builtinCampaignSpec("smoke");
  for (auto& item : smoke.items) item.options.testbenchCycles = bench::scaled(80);
  clearCaches();
  const campaign::CampaignResult single = campaign::runCampaign(smoke);
  ok = ok && single.ok();
  t.addRow({"smoke", "-", "1 process", util::Table::fixed(single.wallSeconds, 3),
            util::Table::fixed(single.simSeconds, 3), "ref"});

  for (std::size_t maxFragment : {0, 40, 16}) {
    const auto outputs = campaign::runDispatchUnits(smoke, maxFragment);
    const campaign::CampaignResult merged = campaign::mergeShards(smoke, outputs);
    const bool identical = single.sameResults(merged);
    ok = ok && merged.ok() && identical;
    t.addRow({"smoke", maxFragment == 0 ? "whole" : std::to_string(maxFragment),
              std::to_string(outputs.size()), util::Table::fixed(merged.wallSeconds, 3),
              util::Table::fixed(merged.simSeconds, 3), identical ? "yes" : "NO — BUG"});
  }

  // --- mutant-range fragmentation of one oversized item ----------------------
  campaign::CampaignSpec one = campaign::builtinCampaignSpec("single");
  for (auto& item : one.items) item.options.testbenchCycles = bench::scaled(120);
  clearCaches();
  const campaign::CampaignResult oneSingle = campaign::runCampaign(one);
  ok = ok && oneSingle.ok();
  const std::size_t mutants =
      oneSingle.items.empty() ? 0 : oneSingle.items[0].report.analysis.results.size();
  t.addRow({"single", "-", "1 process", util::Table::fixed(oneSingle.wallSeconds, 3),
            util::Table::fixed(oneSingle.simSeconds, 3), "ref"});

  {
    const std::size_t maxFragment = mutants > 3 ? (mutants + 2) / 3 : 1;
    const auto outputs = campaign::runDispatchUnits(one, maxFragment);
    const campaign::CampaignResult merged = campaign::mergeShards(one, outputs);
    const bool identical = oneSingle.sameResults(merged);
    ok = ok && merged.ok() && identical;
    t.addRow({"single", std::to_string(maxFragment), std::to_string(outputs.size()),
              util::Table::fixed(merged.wallSeconds, 3),
              util::Table::fixed(merged.simSeconds, 3), identical ? "yes" : "NO — BUG"});
  }

  // --- persistent artifact store: cold populate, warm unit-split reload -----
  // The cross-process reuse path of `xlv_campaignd run --cache-dir`: a cold
  // unit-split pass writes golden traces / prefixes / mutant results to a
  // shared store; a second pass (memory caches cleared per unit, like fresh
  // worker processes) must reload instead of recompute — with a nonzero
  // disk-hit ledger — and stay bit-identical.
  const std::filesystem::path cacheDir =
      std::filesystem::temp_directory_path() /
      ("xlv-bench-shard-cache-" + std::to_string(static_cast<long>(::getpid())));
  std::filesystem::remove_all(cacheDir);
  util::configureProcessArtifactStore(util::ArtifactStoreConfig{cacheDir.string(), 0});
  {
    const campaign::CampaignResult coldStore = campaign::runAndMergeUnits(smoke, 0);
    const campaign::CampaignResult warmStore = campaign::runAndMergeUnits(smoke, 0);
    const bool identical =
        single.sameResults(coldStore) && single.sameResults(warmStore);
    const bool warmHits = warmStore.diskHits > 0 && warmStore.mutantCacheHits > 0;
    if (!warmHits) {
      std::fprintf(stderr,
                   "FAIL: warm unit-split leg reports no cache reuse (disk hits %d, "
                   "mutant hits %d, stores %d) — store silently disabled?\n",
                   warmStore.diskHits, warmStore.mutantCacheHits, warmStore.diskStores);
    }
    ok = ok && coldStore.ok() && warmStore.ok() && identical && warmHits;
    t.addRow({"smoke+store", "whole, cold", std::to_string(coldStore.diskStores) + " stored",
              util::Table::fixed(coldStore.wallSeconds, 3),
              util::Table::fixed(coldStore.simSeconds, 3), identical ? "yes" : "NO — BUG"});
    t.addRow({"smoke+store", "whole, warm", std::to_string(warmStore.diskHits) + " loaded",
              util::Table::fixed(warmStore.wallSeconds, 3),
              util::Table::fixed(warmStore.simSeconds, 3), identical ? "yes" : "NO — BUG"});
  }
  util::configureProcessArtifactStore(std::nullopt);
  std::filesystem::remove_all(cacheDir);
  clearCaches();

  // --- divergence-driven fast path vs XLV_REFERENCE_SIM=1 full replay -------
  // Acceptance self-check on the PRISTINE builtin presets (fixed cycle
  // budgets, so the ratio is a deterministic cycle count, not a timing):
  // bit-identical results and >= 2x fewer simulated mutant-cycles.
  const char* refPresets[2] = {"smoke", "single"};
  double refRatios[2] = {0.0, 0.0};
  std::uint64_t fastSimulated = 0, fastSkipped = 0, refSimulated = 0;
  for (int p = 0; p < 2; ++p) {
    const char* preset = refPresets[p];
    const campaign::CampaignSpec spec = campaign::builtinCampaignSpec(preset);
    clearCaches();
    const campaign::CampaignResult fast = campaign::runCampaign(spec);
    ::setenv("XLV_REFERENCE_SIM", "1", 1);
    clearCaches();
    const campaign::CampaignResult reference = campaign::runCampaign(spec);
    ::unsetenv("XLV_REFERENCE_SIM");

    const bool identical = reference.sameResults(fast);
    const double ratio =
        fast.cyclesSimulated > 0 ? static_cast<double>(reference.cyclesSimulated) /
                                       static_cast<double>(fast.cyclesSimulated)
                                 : 0.0;
    if (!identical) {
      std::fprintf(stderr, "FAIL: preset '%s' fast path diverged from full replay\n",
                   preset);
    }
    if (fast.cyclesSkipped == 0 || ratio < 2.0) {
      std::fprintf(stderr,
                   "FAIL: preset '%s' simulated %llu of %llu reference mutant-cycles "
                   "(%.2fx, skipped %llu) — expected >= 2x fewer\n",
                   preset, static_cast<unsigned long long>(fast.cyclesSimulated),
                   static_cast<unsigned long long>(reference.cyclesSimulated), ratio,
                   static_cast<unsigned long long>(fast.cyclesSkipped));
    }
    ok = ok && fast.ok() && reference.ok() && identical && fast.cyclesSkipped > 0 &&
         ratio >= 2.0;
    refRatios[p] = ratio;
    fastSimulated += fast.cyclesSimulated;
    fastSkipped += fast.cyclesSkipped;
    refSimulated += reference.cyclesSimulated;
    t.addRow({std::string(preset) + "+refdiff", "fast vs ref",
              std::to_string(fast.cyclesSimulated) + "/" +
                  std::to_string(reference.cyclesSimulated) + " cyc",
              util::Table::fixed(ratio, 2) + "x", "-", identical ? "yes" : "NO — BUG"});
  }
  clearCaches();

  std::fputs(t.render().c_str(), stdout);
  std::printf(
      "\nExpected shape: every merged row reports \"yes\" — the unit planner\n"
      "assigns stable global task ids (and global mutant ids within fragmented\n"
      "items), so the task-id-ordered merge reproduces the single-process\n"
      "result bit-for-bit while sim work distributes across processes. The\n"
      "\"+store\" rows run against a shared --cache-dir artifact store: the\n"
      "warm pass must reload (disk hits > 0) and still match bit-for-bit.\n"
      "The \"+refdiff\" rows pin the divergence-driven fast path: bit-identical\n"
      "to XLV_REFERENCE_SIM=1 full replay with >= 2x fewer simulated cycles\n"
      "(smoke %.2fx, single %.2fx).\n",
      refRatios[0], refRatios[1]);

  bench::writeBenchJson(
      "campaign_shard",
      {{"wall_seconds_single", single.wallSeconds},
       {"sim_seconds_single", single.simSeconds},
       {"cycles_simulated_fast", static_cast<double>(fastSimulated)},
       {"cycles_skipped_fast", static_cast<double>(fastSkipped)},
       {"cycles_simulated_reference", static_cast<double>(refSimulated)},
       {"cycle_reduction_smoke", refRatios[0]},
       {"cycle_reduction_single", refRatios[1]},
       {"self_check_ok", ok ? 1.0 : 0.0}});

  if (!ok) {
    std::fprintf(stderr, "\nFAIL: unit-split campaign diverged from the single-process run "
                         "or a warm cache served nothing\n");
    return 1;
  }
  std::printf("\nself-check: OK\n");
  return 0;
}
