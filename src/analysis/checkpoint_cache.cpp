#include "analysis/checkpoint_cache.h"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "util/codec.h"

namespace xlv::analysis {

std::string checkpointKey(const std::string& goldenKey,
                          std::uint64_t injectedFingerprint, std::uint64_t interval,
                          std::uint64_t recordedCycles) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "|inj=%016" PRIx64 "|k=%" PRIu64 "|last=%" PRIu64,
                injectedFingerprint, interval, recordedCycles);
  return goldenKey + buf;
}

util::OnceCache<CheckpointRecording>& checkpointCache() {
  static util::OnceCache<CheckpointRecording> cache;
  return cache;
}

namespace {

constexpr const char* kTag = "campaign-checkpoints";

}  // namespace

std::string encodeCheckpointRecording(const CheckpointRecording& rec) {
  if (rec.cycles.size() != rec.snapWords.size()) {
    throw std::invalid_argument("checkpoint recording: cycles/snapshots size mismatch");
  }
  const std::size_t stateWords = rec.snapWords.empty() ? 0 : rec.snapWords.front().size();
  for (const auto& snap : rec.snapWords) {
    if (snap.size() != stateWords) {
      throw std::invalid_argument("checkpoint recording: ragged snapshot widths");
    }
  }
  util::Encoder e(kTag, kCheckpointCodecVersion);
  e.u64("interval", rec.interval);
  e.u64("recordedCycles", rec.recordedCycles);
  e.u64("count", rec.cycles.size());
  e.u64("stateWords", stateWords);
  e.str("cycles", util::packWords(rec.cycles.data(), rec.cycles.size()));
  std::string words;
  words.reserve(rec.snapWords.size() * stateWords * 8);
  for (const auto& snap : rec.snapWords) words.append(util::packWords(snap.data(), stateWords));
  e.str("snapWords", words);
  return e.take();
}

CheckpointRecording decodeCheckpointRecording(std::string_view data) {
  util::Decoder d(data, kTag, kCheckpointCodecVersion);
  CheckpointRecording rec;
  rec.interval = d.u64("interval");
  rec.recordedCycles = d.u64("recordedCycles");
  const std::size_t count = static_cast<std::size_t>(d.u64("count"));
  const std::size_t stateWords = static_cast<std::size_t>(d.u64("stateWords"));
  // Plausibility bounds before allocation: each count is individually
  // capped by the input size, so the product cannot wrap.
  if (count > data.size() || stateWords > data.size() / 8 ||
      (count != 0 && stateWords != 0 && count > data.size() / (stateWords * 8))) {
    throw util::DecodeError("checkpoint recording: implausible snapshot counts");
  }
  if (rec.interval == 0) {
    throw util::DecodeError("checkpoint recording: zero interval");
  }
  // Encode writes width 0 when there are no snapshots: a nonzero one is
  // corrupt bytes that would decode to a value re-encoding differently.
  if (count == 0 && stateWords != 0) {
    throw util::DecodeError("checkpoint recording: no snapshots with a nonzero width");
  }
  rec.cycles.resize(count);
  util::unpackWords(d.str("cycles"), rec.cycles.data(), count, "checkpoint cycles");
  const std::string words = d.str("snapWords");
  if (words.size() != count * stateWords * 8) {
    throw util::DecodeError("checkpoint recording: snapshot byte count mismatch");
  }
  rec.snapWords.assign(count, std::vector<std::uint64_t>(stateWords));
  for (std::size_t i = 0; i < count; ++i) {
    util::unpackWords(std::string_view(words).substr(i * stateWords * 8, stateWords * 8),
                      rec.snapWords[i].data(), stateWords, "checkpoint snapshot");
  }
  d.finish();
  return rec;
}

}  // namespace xlv::analysis
