// Compiled process bodies for the abstracted TLM model.
//
// The abstraction step of the paper's tools translates RTL processes into
// C++ functions that are *compiled* — direct variable access, no simulator
// object model. The event-driven RTL kernel, in contrast, executes the
// elaborated design representation (tree-walking the IR), like an HDL
// simulator executing its elaborated database. This module reproduces that
// dichotomy: compileDesign turns each process body once into a linear
// instruction stream (an op stream) with a pooled constant table and
// pre-resolved operation variants (signedness, widths) — the dominant
// performance lever behind Table 3's speedup.
//
// The op stream has two executors, both bit-identical to ir::Executor (the
// RTL-vs-TLM cycle-equivalence tests and the native lock-step suites pin
// it):
//   * ScalarMachine (abstraction/scalar_machine.h), the interpreter: runs
//     the ops over two-plane 64-bit scalars on a reusable stack, inside
//     TlmIpModel;
//   * renderBody (abstraction/emit_native.cpp), the native backend: renders
//     each body's ops as straight-line C++ that the system compiler builds
//     into a shared library.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/design.h"

namespace xlv::abstraction {

enum class OpCode : std::uint8_t {
  PushConst,      // a = constant pool index
  PushSig,        // sym
  PushArrayElem,  // sym; pops index
  UnNot, UnNeg, UnRedAnd, UnRedOr, UnRedXor, UnBoolNot,
  BiAnd, BiOr, BiXor, BiAdd, BiSub, BiMul, BiDiv, BiMod,
  BiShl, BiShr, BiAShr,  // a = result width; pops amount then value
  BiEq, BiNe, BiLtu, BiLeu, BiLts, BiLes,
  BiConcat,
  Slice,   // a = hi, b = lo
  Resize,  // a = width
  Sext,    // a = width
  JumpIfFalse,  // a = target pc; pops condition
  JumpIfTrue,   // a = target pc; pops condition
  Jump,         // a = target pc
  Dup,
  Pop,
  StoreVar,       // sym; pops value (immediate)
  StoreVarRange,  // sym, a = hi, b = lo
  StoreSig,       // sym; pops value (nonblocking)
  StoreSigRange,  // sym, a = hi, b = lo
  StoreArray,     // sym; pops value, then index
  End,
};

struct Op {
  OpCode code = OpCode::End;
  std::int32_t a = 0;
  std::int32_t b = 0;
  ir::SymbolId sym = ir::kNoSymbol;
};

struct ConstEntry {
  int width = 1;
  std::uint64_t value = 0;
};

/// One compiled process body (policy-independent program text).
struct CompiledProc {
  std::vector<Op> ops;
  int maxStack = 0;
};

/// Shared constant pool for a design's compiled processes.
struct CompiledDesign {
  std::vector<CompiledProc> procs;  // index == process index in the Design
  std::vector<ConstEntry> constants;
};

/// Compile every process body of `d`.
CompiledDesign compileDesign(const ir::Design& d);

}  // namespace xlv::abstraction
