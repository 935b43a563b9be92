// Process-wide golden-trace cache (ROADMAP: "Golden-trace sharing across
// analyses").
//
// The golden recording simulates the clean augmented design's trajectory
// for the full testbench length (a campaign runs it on its injected layout
// with no mutant active, which replays that trajectory exactly) — for
// corner sweeps that vary only the mutant set or the STA binning of an
// identical critical set, that run is byte-identical across sweep points.
// This cache shares it: analyses whose (golden design identity, observed
// endpoints, testbench, cycles, hfRatio, stimulus) agree reuse one
// immutable GoldenTrace.
//
// Keying rules (see also campaign/README.md):
//   * design identity — a structural fingerprint of the elaborated golden
//     design (hash of its canonical emitted C++ plus symbol/FF counts), so
//     two sweep points hit iff sensor insertion produced the same design;
//   * endpoints — the ordered sensor endpoint names (the trace records one
//     column per sensor);
//   * testbench — (name, seed, cycles, stimulusId). The drive function
//     itself is not hashable: two testbenches with different behavior MUST
//     differ in name or seed, which every stock case study does;
//   * hfRatio / recovery port / value policy — scheduler and recording
//     configuration that changes the trace contents.
//
// Thread safety: backed by util::OnceCache — concurrent analyses racing for
// one key record the trace exactly once (waiters block on the recording),
// and the shared trace is immutable afterwards, so reports stay
// bit-identical at any thread count with the cache on or off.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ir/design.h"
#include "util/once_cache.h"

namespace xlv::insertion {
struct InsertedSensor;
}

namespace xlv::analysis {

struct Testbench;
struct AnalysisConfig;
struct GoldenTrace;

/// Structural fingerprint of an elaborated design: FNV-1a over the canonical
/// emitted C++ (process bodies, symbols, scheduler shape) mixed with cheap
/// structural counts. Designs that simulate differently hash differently
/// modulo 64-bit collisions.
std::uint64_t designFingerprint(const ir::Design& design, int hfRatio);

/// The full cache key for one golden recording, serialized to a string
/// (doubles and hashes rendered exactly). `policyTag` distinguishes value
/// policies ("4s" / "2s").
std::string goldenTraceKey(const ir::Design& golden,
                           const std::vector<insertion::InsertedSensor>& sensors,
                           const Testbench& tb, const AnalysisConfig& cfg,
                           const char* policyTag);

/// The process-wide trace cache; entries live until clear(). When a
/// util::processArtifactStore() is configured, the analysis layer spills
/// recordings to disk under the same keys (domain "golden"), so sharded
/// multi-process campaigns reload instead of re-simulating.
util::OnceCache<GoldenTrace>& goldenTraceCache();

/// Byte-stable artifact codec for a GoldenTrace (util/codec.h envelope;
/// trace words packed 8-byte little-endian): the disk-spill format of the
/// golden cache. decodeGoldenTrace throws util::DecodeError on truncation,
/// version skew or a word-count mismatch. The version constant is exposed
/// so hostile-input tests can craft current-version documents that reach
/// the plausibility guards instead of silently decaying into
/// version-mismatch tests on the next bump.
inline constexpr int kGoldenTraceCodecVersion = 3;
std::string encodeGoldenTrace(const GoldenTrace& trace);
GoldenTrace decodeGoldenTrace(std::string_view data);

}  // namespace xlv::analysis
