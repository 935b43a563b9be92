// Native simulation backend: compile the emitted TLM translation unit
// (abstraction/emit_native.h) with the system C++ compiler into a shared
// object, dlopen it, and expose it behind the same session operations the
// interpreter offers — the ROADMAP "native-codegen simulation backend".
//
// Caching, two layers like every other expensive artifact:
//   * in-process: a build-once cache keyed by (source fingerprint ×
//     compiler id × flags × ABI version), so one campaign compiles each
//     design once no matter how many items/threads ask;
//   * cross-process: the compiled .so bytes spill through the configured
//     util::ArtifactStore (domain "native"), so sharded workers and warm
//     re-runs dlopen instead of recompiling.
//
// Failure is never fatal: no system compiler, a failed compile or a corrupt
// cached object all degrade to a null library (warned once per design);
// callers fall back to the interpreter, whose results are bit-identical by
// the conformance suite.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "abstraction/emit_native.h"
#include "abstraction/scalar_machine.h"
#include "abstraction/tlm_model.h"

namespace xlv::abstraction {

/// Per-call ledger of getNativeLibrary: a fresh compile vs a reuse (memory
/// or artifact-store hit). Feeds AnalysisReport::nativeCompiles/CacheHits.
struct NativeUseStats {
  int compiles = 0;
  int cacheHits = 0;
};

/// A dlopen'd emitted translation unit with its xlvn_* entry points
/// resolved and verified (ABI version, identity string, state word count).
/// Immutable after construction; shared read-only across sessions/threads.
class NativeLibrary {
 public:
  NativeLibrary() = default;
  ~NativeLibrary();
  NativeLibrary(const NativeLibrary&) = delete;
  NativeLibrary& operator=(const NativeLibrary&) = delete;

  void* (*create)() = nullptr;
  void (*destroy)(void*) = nullptr;
  void (*setMutant)(void*, int) = nullptr;
  void (*setInput)(void*, int, std::uint64_t) = nullptr;
  int (*step)(void*) = nullptr;
  std::uint64_t (*value)(void*, int) = nullptr;
  void (*raw)(void*, int, std::uint64_t*, std::uint64_t*) = nullptr;
  std::uint64_t (*cycleOf)(void*) = nullptr;
  void (*save)(void*, std::uint64_t*) = nullptr;
  void (*load)(void*, const std::uint64_t*) = nullptr;

  std::size_t stateWords = 0;

 private:
  friend class NativeLibraryBuilder;
  void* handle_ = nullptr;
};

using NativeLibraryPtr = std::shared_ptr<const NativeLibrary>;

/// True when a usable system C++ compiler was found (XLV_CC env override,
/// else the first of c++/g++/clang++ answering --version). Probed once per
/// process; benches and tests gate their native legs on it.
bool nativeToolchainAvailable();

/// Human-readable identity of the discovered compiler ("path (first version
/// line)"), empty when unavailable. For logs and the README's env notes.
std::string nativeToolchainDescription();

/// The native library for `layout` under the given policy, or null when the
/// backend is unavailable (no toolchain / compile failure — warned once per
/// design). `stats`, when non-null, is incremented by what THIS call did:
/// one compile, or one cache hit (memory or artifact store). A compile
/// logs one Info line: the design, its processes and distinct bodies, the
/// source bytes and the seconds; a hit logs nothing. Thread-safe;
/// concurrent callers for the same layout share one build.
NativeLibraryPtr getNativeLibrary(const TlmModelLayout& layout, bool fourState,
                                  NativeUseStats* stats = nullptr);

/// Drop every cached library handle (test/bench isolation between phases,
/// and core::clearProcessCaches). Sessions holding a NativeLibraryPtr keep
/// their library alive; only the cache entries go.
void clearNativeLibraryCache();

/// One native simulation session: the TlmIpModel surface the analysis layer
/// drives, backed by an xlvn_* instance. Not thread-safe (one session per
/// task, like TlmIpModel).
class NativeSession {
 public:
  explicit NativeSession(NativeLibraryPtr lib);
  ~NativeSession();
  NativeSession(const NativeSession&) = delete;
  NativeSession& operator=(const NativeSession&) = delete;

  void activateMutant(int id) { lib_->setMutant(handle_, id); }
  void setInputUint(ir::SymbolId sym, std::uint64_t v) {
    lib_->setInput(handle_, static_cast<int>(sym), v);
  }
  /// One scheduler() transaction; throws std::runtime_error on the
  /// combinational iteration limit, mirroring TlmIpModel::sweep.
  void scheduler();
  std::uint64_t valueUint(ir::SymbolId sym) const {
    return lib_->value(handle_, static_cast<int>(sym));
  }
  SV rawValue(ir::SymbolId sym) const {
    SV v;
    lib_->raw(handle_, static_cast<int>(sym), &v.val, &v.unk);
    return v;
  }
  std::uint64_t cycle() const { return lib_->cycleOf(handle_); }

  /// Append the state in the shared word layout (tlm_model.h).
  void saveWords(std::vector<std::uint64_t>& out) const;
  /// Restore from the shared word layout; throws std::invalid_argument on a
  /// word-count mismatch.
  void loadWords(const std::vector<std::uint64_t>& words);

 private:
  NativeLibraryPtr lib_;
  void* handle_ = nullptr;
};

}  // namespace xlv::abstraction
