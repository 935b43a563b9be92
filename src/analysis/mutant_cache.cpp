#include "analysis/mutant_cache.h"

#include "util/codec.h"

namespace xlv::analysis {

std::string mutantResultKey(const std::string& goldenKey,
                            const mutation::MutantSpec& spec) {
  std::string key = goldenKey;
  key.append("|mut=")
      .append(std::to_string(spec.targetSignal.size()))
      .append(":")
      .append(spec.targetSignal);
  key.append("|mk=").append(mutation::mutantKindName(spec.kind));
  key.append("|dt=").append(std::to_string(spec.deltaTicks));
  return key;
}

util::OnceCache<MutantResult>& mutantResultCache() {
  static util::OnceCache<MutantResult> cache;
  return cache;
}

namespace {

constexpr const char* kMutantArtifactTag = "mutant-artifact";
constexpr int kMutantArtifactVersion = 1;

// The id is not on the wire: decoding leaves MutantResult's default, -1.
constexpr auto kArtifactFields = [](auto& ar, MutantResult& r) {
  mutantResultFields(ar, "", r);
};

}  // namespace

std::string encodeMutantResultArtifact(const MutantResult& result) {
  return util::writeDocument(kMutantArtifactTag, kMutantArtifactVersion, result,
                             kArtifactFields);
}

MutantResult decodeMutantResultArtifact(std::string_view data) {
  return util::readDocument<MutantResult>(data, kMutantArtifactTag, kMutantArtifactVersion,
                                          kArtifactFields);
}

}  // namespace xlv::analysis
