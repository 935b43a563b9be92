#include "abstraction/native_backend.h"

#include <dlfcn.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "util/artifact_store.h"
#include "util/fnv.h"
#include "util/log.h"
#include "util/once_cache.h"
#include "util/subprocess.h"
#include "util/timer.h"

namespace xlv::abstraction {

namespace {

constexpr const char* kCompileFlags = "-std=c++17 -O2 -fPIC -shared";

struct Toolchain {
  bool available = false;
  std::string cc;       ///< compiler command (resolved through PATH)
  std::string version;  ///< first line of `cc --version`
};

const Toolchain& systemToolchain() {
  static const Toolchain tc = [] {
    Toolchain t;
    std::vector<std::string> candidates;
    if (const char* env = std::getenv("XLV_CC"); env != nullptr && env[0] != '\0') {
      candidates.push_back(env);
    } else {
      candidates = {"c++", "g++", "clang++"};
    }
    for (const std::string& cand : candidates) {
      const util::SubprocessResult probe = util::runCommandCapture({cand, "--version"});
      if (!probe.ok()) continue;
      t.available = true;
      t.cc = cand;
      const std::size_t eol = probe.output.find('\n');
      t.version = eol == std::string::npos ? probe.output : probe.output.substr(0, eol);
      break;
    }
    return t;
  }();
  return tc;
}

std::string tempPath(const char* suffix) {
  static std::atomic<std::uint64_t> seq{0};
  const char* dir = std::getenv("TMPDIR");
  std::ostringstream os;
  os << (dir != nullptr && dir[0] != '\0' ? dir : "/tmp") << "/xlvn_" << getpid() << "_"
     << seq.fetch_add(1) << suffix;
  return os.str();
}

bool writeFile(const std::string& path, std::string_view bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(f);
}

bool readFile(const std::string& path, std::string& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream os;
  os << f.rdbuf();
  out = os.str();
  return true;
}

/// dlopen `bytes` (materialized to a temp file, unlinked immediately — the
/// mapping survives, POSIX semantics) and resolve+verify the xlvn_* ABI.
/// Returns null with a reason on any mismatch.
std::shared_ptr<NativeLibrary> openLibrary(const std::string& bytes,
                                           const std::string& identity,
                                           std::size_t expectWords, std::string* why);

}  // namespace

NativeLibrary::~NativeLibrary() {
  if (handle_ != nullptr) dlclose(handle_);
}

class NativeLibraryBuilder {
 public:
  static std::shared_ptr<NativeLibrary> open(const std::string& bytes,
                                             const std::string& identity,
                                             std::size_t expectWords, std::string* why) {
    const std::string path = tempPath(".so");
    if (!writeFile(path, bytes)) {
      if (why != nullptr) *why = "cannot write temp .so at " + path;
      return nullptr;
    }
    void* handle = dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
    unlink(path.c_str());
    if (handle == nullptr) {
      if (why != nullptr) {
        const char* err = dlerror();
        *why = std::string("dlopen failed: ") + (err != nullptr ? err : "?");
      }
      return nullptr;
    }
    auto lib = std::make_shared<NativeLibrary>();
    lib->handle_ = handle;
    const auto resolve = [&](const char* name) -> void* {
      return dlsym(handle, name);
    };
    using u64 = std::uint64_t;
    const auto abi = reinterpret_cast<int (*)()>(resolve("xlvn_abi"));
    const auto ident = reinterpret_cast<const char* (*)()>(resolve("xlvn_identity"));
    const auto words = reinterpret_cast<u64 (*)()>(resolve("xlvn_state_words"));
    lib->create = reinterpret_cast<void* (*)()>(resolve("xlvn_create"));
    lib->destroy = reinterpret_cast<void (*)(void*)>(resolve("xlvn_destroy"));
    lib->setMutant = reinterpret_cast<void (*)(void*, int)>(resolve("xlvn_set_mutant"));
    lib->setInput =
        reinterpret_cast<void (*)(void*, int, u64)>(resolve("xlvn_set_input"));
    lib->step = reinterpret_cast<int (*)(void*)>(resolve("xlvn_step"));
    lib->value = reinterpret_cast<u64 (*)(void*, int)>(resolve("xlvn_value"));
    lib->raw =
        reinterpret_cast<void (*)(void*, int, u64*, u64*)>(resolve("xlvn_raw"));
    lib->cycleOf = reinterpret_cast<u64 (*)(void*)>(resolve("xlvn_cycle"));
    lib->save = reinterpret_cast<void (*)(void*, u64*)>(resolve("xlvn_save"));
    lib->load = reinterpret_cast<void (*)(void*, const u64*)>(resolve("xlvn_load"));
    if (abi == nullptr || ident == nullptr || words == nullptr ||
        lib->create == nullptr || lib->destroy == nullptr || lib->setMutant == nullptr ||
        lib->setInput == nullptr || lib->step == nullptr || lib->value == nullptr ||
        lib->raw == nullptr || lib->cycleOf == nullptr || lib->save == nullptr ||
        lib->load == nullptr) {
      if (why != nullptr) *why = "missing xlvn_* entry points";
      return nullptr;
    }
    if (abi() != kNativeAbiVersion) {
      if (why != nullptr) *why = "ABI version mismatch";
      return nullptr;
    }
    if (identity != ident()) {
      if (why != nullptr) *why = "identity mismatch";
      return nullptr;
    }
    lib->stateWords = static_cast<std::size_t>(words());
    if (lib->stateWords != expectWords) {
      if (why != nullptr) *why = "snapshot word-count mismatch";
      return nullptr;
    }
    return lib;
  }
};

namespace {

std::shared_ptr<NativeLibrary> openLibrary(const std::string& bytes,
                                           const std::string& identity,
                                           std::size_t expectWords, std::string* why) {
  return NativeLibraryBuilder::open(bytes, identity, expectWords, why);
}

util::OnceCache<NativeLibraryPtr>& nativeLibCache() {
  static util::OnceCache<NativeLibraryPtr> cache;
  return cache;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

bool nativeToolchainAvailable() { return systemToolchain().available; }

std::string nativeToolchainDescription() {
  const Toolchain& tc = systemToolchain();
  if (!tc.available) return "";
  return tc.cc + " (" + tc.version + ")";
}

NativeLibraryPtr getNativeLibrary(const TlmModelLayout& layout, bool fourState,
                                  NativeUseStats* stats) {
  // Identity: source fingerprint (emitted with a blank identity to break
  // the self-reference) × compiler × flags × ABI. The key IS the identity
  // baked back into the final source, so a hash-collided or stale .so is
  // rejected at load, never silently used.
  const Toolchain& tc = systemToolchain();
  const std::string bare = emitNativeCpp(layout, fourState, "");
  std::uint64_t h = util::fnv1a64(bare);
  h = util::fnv1a64(tc.cc + "\n" + tc.version + "\n" + kCompileFlags, h);
  h = util::fnv1a64Mix(static_cast<std::uint64_t>(kNativeAbiVersion), h);
  const std::string identity = (fourState ? "n4s-" : "n2s-") + hex64(h);
  const std::size_t expectWords = nativeStateWords(layout);

  bool wasHit = false;
  bool compiledHere = false;
  bool diskHere = false;
  const std::shared_ptr<const NativeLibraryPtr> cached = nativeLibCache().getOrBuild(
      identity,
      [&]() -> NativeLibraryPtr {
        util::ArtifactStore* store = util::processArtifactStore();
        if (!tc.available) {
          XLV_WARN("native") << "no system C++ compiler found (tried XLV_CC, c++, "
                                "g++, clang++); design '"
                             << layout.design.name << "' falls back to the interpreter";
          return nullptr;
        }
        // Cross-process reuse: the compiled object spills through the
        // artifact store keyed by the same identity.
        if (store != nullptr) {
          if (std::optional<std::string> bytes = store->load("native", identity)) {
            std::string why;
            if (auto lib = openLibrary(*bytes, identity, expectWords, &why)) {
              diskHere = true;
              return lib;
            }
            store->dropCorrupt("native", identity);
            XLV_WARN("native") << "cached object for '" << layout.design.name
                               << "' rejected (" << why << "); recompiling";
          }
        }
        const util::Timer compileTimer;
        std::size_t bodies = 0;
        const std::string source = emitNativeCpp(layout, fourState, identity, &bodies);
        const std::string srcPath = tempPath(".cpp");
        const std::string objPath = tempPath(".so");
        if (!writeFile(srcPath, source)) {
          XLV_WARN("native") << "cannot write temp source at " << srcPath
                             << "; falling back to the interpreter";
          return nullptr;
        }
        std::vector<std::string> cmd{tc.cc};
        {
          std::istringstream flags(kCompileFlags);
          std::string f;
          while (flags >> f) cmd.push_back(f);
        }
        cmd.insert(cmd.end(), {"-x", "c++", srcPath, "-o", objPath});
        const util::SubprocessResult cc = util::runCommandCapture(cmd);
        unlink(srcPath.c_str());
        if (!cc.ok()) {
          unlink(objPath.c_str());
          XLV_WARN("native") << "compile failed for '" << layout.design.name << "' ("
                             << tc.cc << " exit " << cc.exitCode
                             << "); falling back to the interpreter. Output: "
                             << cc.output.substr(0, 512);
          return nullptr;
        }
        std::string bytes;
        const bool haveBytes = readFile(objPath, bytes);
        unlink(objPath.c_str());
        if (!haveBytes) {
          XLV_WARN("native") << "cannot read compiled object for '"
                             << layout.design.name
                             << "'; falling back to the interpreter";
          return nullptr;
        }
        std::string why;
        auto lib = openLibrary(bytes, identity, expectWords, &why);
        if (lib == nullptr) {
          XLV_WARN("native") << "freshly compiled object for '" << layout.design.name
                             << "' unusable (" << why
                             << "); falling back to the interpreter";
          return nullptr;
        }
        compiledHere = true;
        char seconds[32];
        std::snprintf(seconds, sizeof seconds, "%.2f", compileTimer.seconds());
        XLV_INFO("native") << "compiled '" << layout.design.name << "': "
                           << layout.code.procs.size() << " processes in " << bodies
                           << " distinct bodies, " << source.size() << " source bytes, "
                           << seconds << " s";
        if (store != nullptr) store->store("native", identity, bytes);
        return lib;
      },
      &wasHit);

  const NativeLibraryPtr lib = cached != nullptr ? *cached : nullptr;
  if (stats != nullptr && lib != nullptr) {
    if (compiledHere) {
      stats->compiles += 1;
    } else if (wasHit || diskHere) {
      stats->cacheHits += 1;
    }
  }
  return lib;
}

void clearNativeLibraryCache() { nativeLibCache().clear(); }

NativeSession::NativeSession(NativeLibraryPtr lib) : lib_(std::move(lib)) {
  if (lib_ == nullptr) {
    throw std::invalid_argument("NativeSession: null library");
  }
  handle_ = lib_->create();
  if (handle_ == nullptr) {
    throw std::runtime_error("NativeSession: xlvn_create failed");
  }
}

NativeSession::~NativeSession() {
  if (handle_ != nullptr) lib_->destroy(handle_);
}

void NativeSession::scheduler() {
  if (lib_->step(handle_) != 0) {
    throw std::runtime_error("native scheduler: combinational iteration limit");
  }
}

void NativeSession::saveWords(std::vector<std::uint64_t>& out) const {
  const std::size_t base = out.size();
  out.resize(base + lib_->stateWords);
  lib_->save(handle_, out.data() + base);
}

void NativeSession::loadWords(const std::vector<std::uint64_t>& words) {
  if (words.size() != lib_->stateWords) {
    throw std::invalid_argument("native session: snapshot word count mismatch");
  }
  lib_->load(handle_, words.data());
}

}  // namespace xlv::abstraction
