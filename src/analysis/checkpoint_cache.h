// Process-wide campaign-checkpoint cache (ISSUE 6 satellite: "spill the
// clean-run checkpoint recordings through the ArtifactStore").
//
// The campaign's divergence-driven fast path records one clean (no-mutant)
// run over the injected layout with periodic state snapshots, so every
// mutant task can restore the deepest checkpoint at or before its
// fast-forward limit instead of replaying the quiet prefix from reset
// (analysis/mutation_analysis.h, CampaignCheckpoints). Before this cache,
// each campaign — and each shard process — re-recorded that run privately.
//
// Snapshots are stored in the engine-neutral word layout of
// abstraction/tlm_model.h, so a recording made by the native backend
// restores into interpreter sessions and vice versa (the backends are
// bit-identical by the conformance suite).
//
// Keying: the golden-trace key (design identity, endpoints, testbench,
// cycles, hfRatio, value policy — analysis/golden_cache.h) extended with
// the INJECTED layout's fingerprint (snapshots carry mutant scratch
// symbols, so different mutant sets have incompatible shapes), the
// checkpoint interval and the recording depth (shard fragments stop at
// their own subrange's deepest fast-forward limit; fragments that agree on
// the depth share one recording). Campaigns with caching disabled (no
// golden key) keep a context-local recording and never touch this cache.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/once_cache.h"

namespace xlv::analysis {

/// One campaign's clean-run checkpoint recording. snapWords[i] is the full
/// session state (shared word layout) at the start of cycles[i]; cycles are
/// increasing multiples of `interval`, the last one at `recordedCycles`.
struct CheckpointRecording {
  std::uint64_t interval = 1;
  std::vector<std::uint64_t> cycles;
  std::vector<std::vector<std::uint64_t>> snapWords;
  /// Scheduler transactions the recording run executed — charged to the
  /// campaign that performed the recording, NOT to campaigns that loaded it
  /// from this cache (like goldenSeconds: the ledger reports work done, a
  /// cache hit did none).
  std::uint64_t recordedCycles = 0;
};

/// Cache key for one recording: golden-trace key x injected-layout
/// fingerprint x interval x depth.
std::string checkpointKey(const std::string& goldenKey,
                          std::uint64_t injectedFingerprint, std::uint64_t interval,
                          std::uint64_t recordedCycles);

/// The process-wide recording cache; spilled through the configured
/// util::processArtifactStore() under domain "ckpt" by the analysis layer.
util::OnceCache<CheckpointRecording>& checkpointCache();

/// Byte-stable artifact codec (util/codec.h envelope; snapshot words packed
/// 8-byte little-endian). decodeCheckpointRecording throws util::DecodeError
/// on truncation, version skew or a shape mismatch.
inline constexpr int kCheckpointCodecVersion = 1;
std::string encodeCheckpointRecording(const CheckpointRecording& rec);
CheckpointRecording decodeCheckpointRecording(std::string_view data);

}  // namespace xlv::analysis
