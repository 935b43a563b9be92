// Native code generation for the abstracted TLM model (ROADMAP:
// "Native-codegen + mutant-batched simulation backend").
//
// emit_cpp.h renders the abstraction product for *reading* — the C++ a
// designer would inspect, mirroring the paper's Fig. 6b/8b listings. This
// module renders it for *running*: emitNativeCpp() transliterates every
// compiled process body (abstraction/compiled.h op streams) into
// straight-line C++ over two-plane scalars, bakes the layout's tables
// (widths, init values, constant pool, array pools, sweep order,
// sensitivity lists, mutant phase tables, scheduler phase lists) into
// static arrays, and wraps the whole thing in a small C ABI:
//
//   xlvn_create/destroy         — session lifetime
//   xlvn_set_mutant             — activate one mutant (-1 or any id outside
//                                 the mutant set: none)
//   xlvn_set_input              — TlmIpModel::setInputUint semantics
//   xlvn_step                   — one scheduler() transaction (0 ok,
//                                 -1 combinational iteration limit)
//   xlvn_value / xlvn_raw       — valueUint / both scalar planes
//   xlvn_cycle                  — transaction counter
//   xlvn_state_words/save/load  — state in the shared word layout
//                                 (tlm_model.h, nativeStateWords)
//   xlvn_abi / xlvn_identity    — link-time compatibility checks
//
// The emitted translation unit is fully self-contained (standard headers
// only): the system compiler that builds it (abstraction/native_backend.h)
// has no access to this repository's include paths. Every operation is a
// 1:1 transliteration of ScalarMachine<P> with the policy branches resolved
// at emit time, and the scheduler replicates TlmIpModel::scheduler() phase
// for phase — bit-identity with the interpreter is by construction and
// pinned by the native conformance suite.
//
// Bodies and operand tables. A process body is rendered with its operands
// — symbol ids, array-pool offsets and constant-pool indices — read from a
// table `o[k]`; widths, masks, array sizes, jump targets, stack depth and
// the value policy stay inline. Processes whose rendered text is equal
// share one `body_k(State&, const int* o)` function, and each process is
// one {body, operand table} entry of the dispatch table the scheduler calls
// through. Keying on the text makes sharing correct by construction: two
// processes share a body only when everything but their operands is equal.
// The replicated sensor monitors are the common case (Plasma/Counter: 107
// processes, 32 bodies). A body only one process runs keeps its operands
// in a function-local constexpr table, so the compiler folds them into
// constants as if they were written inline.
#pragma once

#include <cstddef>
#include <string>

#include "abstraction/tlm_model.h"

namespace xlv::abstraction {

/// Version of the xlvn_* C ABI; baked into the emitted code and verified
/// after dlopen so a stale cached .so from an older emitter is rejected.
inline constexpr int kNativeAbiVersion = 1;

/// Render the self-contained native translation unit for `layout`.
/// `fourState` resolves the value policy at emit time (the emitted code has
/// no templates); `identity` is returned verbatim by xlvn_identity() —
/// callers bake the cache key in so a hash-collided .so cannot be used.
/// Deterministic: equal layouts yield byte-equal sources (the source
/// fingerprint is the cache key). `distinctBodies`, when non-null, receives
/// the number of body functions the source defines.
std::string emitNativeCpp(const TlmModelLayout& layout, bool fourState,
                          const std::string& identity,
                          std::size_t* distinctBodies = nullptr);

}  // namespace xlv::abstraction
