#include "analysis/golden_cache.h"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "abstraction/emit_cpp.h"
#include "analysis/mutation_analysis.h"
#include "util/codec.h"
#include "util/fnv.h"

namespace xlv::analysis {

namespace {

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  return util::fnv1a64(s, h);
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) { return util::fnv1a64Mix(v, h); }

}  // namespace

std::uint64_t designFingerprint(const ir::Design& design, int hfRatio) {
  // The emitted C++ is a canonical rendering of everything the simulators
  // execute: symbols, init values, process bodies, the scheduler shape
  // (single- vs dual-clock). Hash it, then mix in structural counts as a
  // cheap second opinion against text-level coincidences.
  abstraction::EmitCppOptions opts;
  opts.hfRatio = hfRatio;
  std::uint64_t h = fnv1a(util::kFnvOffset, abstraction::emitCpp(design, opts));
  h = fnv1a(h, design.name);
  h = mix(h, static_cast<std::uint64_t>(design.numSymbols()));
  h = mix(h, static_cast<std::uint64_t>(design.flipFlopBits()));
  h = mix(h, static_cast<std::uint64_t>(design.processes.size()));
  for (const auto& init : design.arrayInits) {
    h = mix(h, static_cast<std::uint64_t>(init.words.size()));
    for (std::uint64_t v : init.words) h = mix(h, v);
  }
  return h;
}

std::string goldenTraceKey(const ir::Design& golden,
                           const std::vector<insertion::InsertedSensor>& sensors,
                           const Testbench& tb, const AnalysisConfig& cfg,
                           const char* policyTag) {
  std::uint64_t endpointHash = util::kFnvOffset;
  for (const auto& s : sensors) {
    endpointHash = fnv1a(endpointHash, s.endpointName);
    endpointHash = fnv1a(endpointHash, "|");
  }
  endpointHash = mix(endpointHash, sensors.size());

  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "d=%016" PRIx64 "|e=%016" PRIx64 "|seed=%016" PRIx64 "|stim=%" PRIu64
                "|cyc=%" PRIu64 "|hf=%d|p=%s",
                designFingerprint(golden, cfg.hfRatio), endpointHash, tb.seed,
                cfg.stimulusId, tb.cycles, cfg.hfRatio, policyTag);
  // Variable-length fields go through std::string (no truncation) and are
  // length-prefixed so a '|' or '=' inside a name cannot alias another
  // field boundary.
  std::string key(buf);
  key.append("|tb=").append(std::to_string(tb.name.size())).append(":").append(tb.name);
  const std::string_view rec = insertion::AddedPorts::recovery;
  key.append("|rec=").append(std::to_string(rec.size())).append(":").append(rec);
  return key;
}

util::OnceCache<GoldenTrace>& goldenTraceCache() {
  static util::OnceCache<GoldenTrace> cache;
  return cache;
}

// --- disk-spill codec --------------------------------------------------------

namespace {

constexpr const char* kTraceTag = "golden-trace";
// v3: adds the per-endpoint firstActivity fast-forward metadata (one LE
// word per sensor column). Older artifacts fail the version check and are
// dropped as corrupt -> re-recorded; a trace without the metadata could
// otherwise silently disable the divergence-driven fast path.
constexpr int kTraceVersion = kGoldenTraceCodecVersion;

}  // namespace

std::string encodeGoldenTrace(const GoldenTrace& trace) {
  // A zero-cycle trace has no columns: both widths are written as 0, and
  // decode rejects anything else.
  const std::size_t cycles = trace.cycles;
  const std::size_t outWidth = cycles == 0 ? 0 : trace.outWidth;
  const std::size_t epWidth = cycles == 0 ? 0 : trace.epWidth;
  // The format assumes the invariants recordGoldenTrace guarantees — each
  // table holds one row of its width per cycle. Enforce them here so a
  // malformed trace fails loudly at encode time instead of producing an
  // artifact its own decode rejects as corrupt on every warm run.
  if (trace.outputs.size() != cycles * outWidth) {
    throw std::invalid_argument("golden trace: outputs table holds " +
                                std::to_string(trace.outputs.size()) +
                                " words, not cycles x outWidth");
  }
  if (trace.endpoints.size() != cycles * epWidth) {
    throw std::invalid_argument("golden trace: endpoints table holds " +
                                std::to_string(trace.endpoints.size()) +
                                " words, not cycles x epWidth");
  }
  if (trace.firstActivity.size() != epWidth) {
    throw std::invalid_argument("golden trace: firstActivity size != endpoint count");
  }
  util::Encoder e(kTraceTag, kTraceVersion);
  e.u64("cycles", cycles);
  e.u64("outWidth", outWidth);
  e.u64("epWidth", epWidth);
  e.str("outputs", util::packWords(trace.outputs.data(), trace.outputs.size()));
  e.str("endpoints", util::packWords(trace.endpoints.data(), trace.endpoints.size()));
  e.str("firstActivity", util::packWords(trace.firstActivity.data(), epWidth));
  return e.take();
}

GoldenTrace decodeGoldenTrace(std::string_view data) {
  util::Decoder d(data, kTraceTag, kTraceVersion);
  const std::size_t cycles = static_cast<std::size_t>(d.u64("cycles"));
  const std::size_t outWidth = static_cast<std::size_t>(d.u64("outWidth"));
  const std::size_t epWidth = static_cast<std::size_t>(d.u64("epWidth"));
  // Plausibility bounds before any arithmetic or allocation (same rule as
  // Decoder::beginList): each count is individually capped by the input
  // size FIRST, so the products below cannot wrap around and sneak an
  // absurd row width past the byte-count check. Deliberate asymmetry: a
  // zero-width trace (no outputs AND no sensors — nothing the analysis
  // could compare, unreachable from recordGoldenTrace on any accepted
  // design) is bounded by cycles <= data.size(), so such a degenerate
  // artifact decodes to empty tables rather than an unbounded allocation.
  if (cycles > data.size() || outWidth > data.size() / 8 || epWidth > data.size() / 8) {
    throw util::DecodeError("golden trace: implausible cycle/word counts");
  }
  // Canonical zero-cycle traces carry zero widths (encode writes them so):
  // nonzero widths here are corrupt bytes that would otherwise decode to a
  // value re-encoding differently.
  if (cycles == 0 && (outWidth != 0 || epWidth != 0)) {
    throw util::DecodeError("golden trace: zero-cycle trace with nonzero widths");
  }
  const std::size_t wordBytes = (outWidth + epWidth) * 8;
  if (cycles != 0 && wordBytes != 0 && cycles > data.size() / wordBytes) {
    throw util::DecodeError("golden trace: implausible cycle/word counts");
  }
  GoldenTrace trace;
  trace.cycles = cycles;
  trace.outWidth = outWidth;
  trace.epWidth = epWidth;
  trace.outputs = util::MappedWords(cycles * outWidth);
  util::unpackWords(d.str("outputs"), trace.outputs.data(), trace.outputs.size(),
                    "golden trace outputs");
  trace.endpoints = util::MappedWords(cycles * epWidth);
  util::unpackWords(d.str("endpoints"), trace.endpoints.data(), trace.endpoints.size(),
                    "golden trace endpoints");
  trace.firstActivity.resize(epWidth);
  util::unpackWords(d.str("firstActivity"), trace.firstActivity.data(), epWidth,
                    "golden trace firstActivity");
  d.finish();
  return trace;
}

}  // namespace xlv::analysis
