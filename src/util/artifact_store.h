// ArtifactStore: a disk-backed, size-capped LRU artifact cache shared
// across processes (ROADMAP: "cache eviction + cross-process persistence").
//
// The in-memory OnceCaches de-duplicate work within one process; the
// worker processes of a campaign pool (campaign/dispatch.h,
// `xlv_campaignd run --cache-dir DIR`) and consecutive runs share nothing
// in memory. This store is the layer underneath: immutable artifacts — golden traces, flow prefixes,
// per-mutant results — keyed by the same strings as the memory caches,
// serialized with the byte-stable util/codec.h codecs and persisted under a
// shared directory so a warm process (or a later run) loads instead of
// recomputing.
//
// Durability rules, in order of importance:
//   * never a torn read — entries are written to a temp file and atomically
//     rename()d into place, so a concurrent reader sees the whole entry or
//     no entry;
//   * never a wrong result — every entry embeds its full key (hash-collision
//     check) and the FNV-1a fingerprint of its payload; a mismatch, a
//     truncated file or any DecodeError counts the entry corrupt, drops it
//     and reports a miss (the caller rebuilds);
//   * bounded size — when the summed entry size exceeds maxBytes, the
//     least-recently-used entries (by file mtime; loads touch it) are
//     deleted. Concurrent processes may race an eviction against a load:
//     the loser sees a plain miss and rebuilds, results never change.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "util/codec.h"
#include "util/once_cache.h"

namespace xlv::util {

struct ArtifactStoreConfig {
  /// Root directory (created on construction); entries live in
  /// <dir>/<domain>/<fnv64-of-key>.art.
  std::string dir;
  /// LRU byte cap over all domains; 0 = unbounded.
  std::uint64_t maxBytes = 0;
  /// Age-based expiry: entries whose recency (file mtime, refreshed by
  /// loads) is older than this many seconds are deleted by gc() and by the
  /// construction-time sweep. 0 = never expire. Age expiry protects a
  /// long-lived shared cache dir from artifacts nobody asks for anymore
  /// (renamed sweeps, retired corners) that LRU byte eviction alone would
  /// keep until the byte cap forces them out.
  std::uint64_t maxAgeSeconds = 0;
};

struct ArtifactStoreStats {
  std::size_t hits = 0;        ///< loads served from a verified entry
  std::size_t misses = 0;      ///< loads that found no (usable) entry
  std::size_t stores = 0;      ///< entries written
  std::size_t evictions = 0;   ///< entries deleted by the LRU byte cap
  std::size_t expired = 0;     ///< entries deleted by the age limit
  std::size_t corrupt = 0;     ///< entries dropped by verification
};

class ArtifactStore {
 public:
  /// Creates cfg.dir (and parents). Throws std::runtime_error when the
  /// directory cannot be created — a configured-but-unusable cache dir is a
  /// setup error, not something to silently ignore.
  explicit ArtifactStore(ArtifactStoreConfig cfg);

  const ArtifactStoreConfig& config() const noexcept { return cfg_; }

  /// Fetch the payload stored under (domain, key), or nullopt on miss.
  /// Verifies the embedded key and payload fingerprint; corrupt entries are
  /// deleted and reported as misses. A hit refreshes the entry's recency.
  std::optional<std::string> load(std::string_view domain, const std::string& key);

  /// Persist `payload` under (domain, key) (atomic temp-file + rename),
  /// then enforce the byte cap. Filesystem failures are swallowed — a store
  /// is an optimization; the caller already holds the value.
  void store(std::string_view domain, const std::string& key, std::string_view payload);

  /// Count (domain, key)'s entry corrupt and delete it. Used by callers
  /// whose *decode* of a verified payload failed (schema skew): the bytes
  /// are intact but unusable, so the entry must not be served again.
  void dropCorrupt(std::string_view domain, const std::string& key);

  /// Summed size of all entries currently on disk (scan).
  std::uint64_t diskBytes() const;

  /// Housekeeping pass (the `xlv_campaign cache-gc` entry point): delete
  /// entries older than cfg.maxAgeSeconds (no-op when 0), then enforce the
  /// byte cap (no-op when 0). Also runs once at construction, so a
  /// long-lived cache dir self-cleans on the next process start. Returns
  /// the number of entries deleted by this pass (expired + evicted).
  std::size_t gc();

  ArtifactStoreStats stats() const;
  void resetStats();

 private:
  /// Delete entries whose mtime is older than cfg.maxAgeSeconds; returns
  /// the count (also booked in stats().expired).
  std::size_t expireOldEntriesLocked();
  std::string entryPath(std::string_view domain, const std::string& key) const;
  void removeEntryLocked(const std::string& path);
  /// Sum the entry bytes on disk; optionally sweep temp-file orphans older
  /// than the stale age (a crashed writer's leftovers).
  std::uint64_t scanLocked(bool sweepStaleTemps) const;
  void evictOverCapLocked();

  ArtifactStoreConfig cfg_;
  /// Guards the metadata (stats_, approxBytes_) and eviction — NOT the
  /// entry file I/O, which is already process- and thread-safe through
  /// atomic rename publication (parallel tasks stream reads concurrently).
  mutable std::mutex mutex_;
  ArtifactStoreStats stats_;
  std::atomic<std::uint64_t> tempSeq_{0};
  /// Running byte census (store/remove-adjusted, rescans resync it), so the
  /// capped store does not stat the whole directory on every write.
  std::uint64_t approxBytes_ = 0;
};

/// The process-wide store, or null when none is configured (the default:
/// purely in-memory caching). Configured once per process from
/// `xlv_campaign --cache-dir` (or by tests/benches).
ArtifactStore* processArtifactStore() noexcept;

/// Install (or, with nullopt, remove) the process-wide store. Not
/// thread-safe against concurrent cache users — call during startup /
/// between test phases, like OnceCache::clear().
void configureProcessArtifactStore(const std::optional<ArtifactStoreConfig>& cfg);

/// The OnceCache spill hook: memory first, then disk, then build — with the
/// build's result written through to the store so other processes (and this
/// one after a clear() or restart) load instead of rebuilding.
///
/// `wasHit` keeps OnceCache semantics (served by work this call did not run
/// itself); `diskHit` additionally reports that the value was loaded from
/// the store by THIS call; `busy` is OnceCache's probe, and a key it finds
/// busy returns null having read and written nothing in the store. A payload whose decode throws DecodeError is
/// dropped as corrupt and rebuilt — decode failures must degrade to a
/// rebuild, never to a wrong or torn artifact. The contract is exact:
/// decoders signal bad BYTES (truncation, version skew, implausible
/// counts, cross-check mismatches) via DecodeError only; any OTHER
/// exception from `decode` is a failure of the REQUEST's own context
/// (e.g. invalid item options hit while re-deriving a prefix) and
/// propagates to fail that caller without deleting a shared entry that is
/// perfectly valid for everyone else.
template <class V>
std::shared_ptr<const V> getOrBuildWithStore(
    OnceCache<V>& mem, ArtifactStore* store, std::string_view domain,
    const std::string& key, const std::function<V()>& build,
    const std::function<std::string(const V&)>& encode,
    const std::function<V(std::string_view)>& decode, bool* wasHit = nullptr,
    bool* diskHit = nullptr, bool* busy = nullptr) {
  if (diskHit != nullptr) *diskHit = false;
  return mem.getOrBuild(
      key,
      [&]() -> V {
        if (store != nullptr) {
          if (std::optional<std::string> payload = store->load(domain, key)) {
            try {
              V value = decode(*payload);
              if (diskHit != nullptr) *diskHit = true;
              return value;
            } catch (const DecodeError&) {
              store->dropCorrupt(domain, key);
            }
          }
        }
        V value = build();
        if (store != nullptr) store->store(domain, key, encode(value));
        return value;
      },
      wasHit, busy);
}

}  // namespace xlv::util
