#include "abstraction/emit_native.h"

#include <cstdint>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace xlv::abstraction {

namespace {

std::string hexU64(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v << "ull";
  return os.str();
}

std::string maskLit(int width) { return hexU64(maskOf(width)); }

/// Per-symbol array-pool offsets into the flat element store, -1 for
/// non-arrays; also returns the total element count.
std::vector<int> arrayOffsets(const ir::Design& d, std::size_t* totalOut) {
  std::vector<int> off(d.symbols.size(), -1);
  std::size_t total = 0;
  for (std::size_t i = 0; i < d.symbols.size(); ++i) {
    if (d.symbols[i].kind == ir::SymKind::Array) {
      off[i] = static_cast<int>(total);
      total += static_cast<std::size_t>(d.symbols[i].arraySize);
    }
  }
  if (totalOut != nullptr) *totalOut = total;
  return off;
}

/// One process body as emitted: its statements, with every operand read
/// from the table `o`, and the process's operand values in `o` order.
struct RenderedBody {
  std::string text;
  std::vector<int> operands;
};

/// Render one compiled process body as straight-line statements with goto
/// labels at jump targets. Policy branches are resolved here, at emit time;
/// each op is the literal ScalarMachine<P> case with widths, masks, array
/// sizes and jump targets written inline. Operands (symbol ids, array-pool
/// offsets, constant-pool indices) are read as o[k], so processes that
/// differ only in what they read and write render the same text.
RenderedBody renderBody(const TlmModelLayout& L, int procIndex, bool fourState,
                        const std::vector<int>& arrOff) {
  const ir::Design& d = L.design;
  const CompiledProc& proc = L.code.procs[static_cast<std::size_t>(procIndex)];
  const auto& ops = proc.ops;
  RenderedBody out;
  // The next operand: records `value` and returns the expression reading it.
  const auto operand = [&](int value) {
    out.operands.push_back(value);
    return "o[" + std::to_string(out.operands.size() - 1) + "]";
  };

  std::unordered_set<std::size_t> targets;
  for (const Op& op : ops) {
    if (op.code == OpCode::Jump || op.code == OpCode::JumpIfFalse ||
        op.code == OpCode::JumpIfTrue) {
      targets.insert(static_cast<std::size_t>(op.a));
    }
  }

  // allX(w) and isTrue(v), policy-resolved.
  const auto allX = [&](int w) -> std::string {
    return fourState ? "SV{0ull, " + maskLit(w) + "}" : "SV{0ull, 0ull}";
  };
  const auto isTrue = [&](const std::string& v) -> std::string {
    return fourState ? "(" + v + ".unk == 0 && " + v + ".val != 0)"
                     : "(" + v + ".val != 0)";
  };

  std::ostringstream os;
  os << "  SV stk[" << (proc.maxStack + 8 < 9 ? 9 : proc.maxStack + 8) << "];\n";
  os << "  SV* sp = stk;\n";
  os << "  (void)sp;\n";

  for (std::size_t pc = 0; pc < ops.size(); ++pc) {
    if (targets.count(pc) != 0) os << "L" << pc << ":;\n";
    const Op& op = ops[pc];
    const int symI = static_cast<int>(op.sym);
    os << "  ";
    switch (op.code) {
      case OpCode::PushConst:
        os << "*sp++ = kConst[" << operand(op.a) << "];";
        break;
      case OpCode::PushSig:
        os << "*sp++ = st.vals[" << operand(symI) << "];";
        break;
      case OpCode::PushArrayElem: {
        const int off = arrOff[static_cast<std::size_t>(op.sym)];
        const int size = d.symbol(op.sym).arraySize;
        os << "{ SV idx = *--sp; if (idx.unk != 0) { *sp++ = " << allX(op.a)
           << "; } else { *sp++ = st.arr[" << operand(off) << " + (int)(idx.val % " << size
           << "ull)]; } }";
        break;
      }
      case OpCode::UnNot:
        if (fourState) {
          os << "{ SV& a = sp[-1]; a.val = ~a.val & ~a.unk & " << maskLit(op.a)
             << "; a.unk &= " << maskLit(op.a) << "; }";
        } else {
          os << "{ SV& a = sp[-1]; a.val = ~a.val & " << maskLit(op.a) << "; }";
        }
        break;
      case OpCode::UnNeg:
        os << "{ SV& a = sp[-1]; if (a.unk) { a = " << allX(op.a)
           << "; } else { a = SV{(~a.val + 1) & " << maskLit(op.a) << ", 0ull}; } }";
        break;
      case OpCode::UnRedAnd:
        os << "{ SV& a = sp[-1]; if (a.unk) { a = " << allX(1)
           << "; } else { a = SV{a.val == " << maskLit(op.a)
           << " ? 1ull : 0ull, 0ull}; } }";
        break;
      case OpCode::UnRedOr:
        os << "{ SV& a = sp[-1]; if ((a.val & ~a.unk) != 0) { a = SV{1ull, 0ull}; } "
              "else if (a.unk) { a = "
           << allX(1) << "; } else { a = SV{0ull, 0ull}; } }";
        break;
      case OpCode::UnRedXor:
        os << "{ SV& a = sp[-1]; if (a.unk) { a = " << allX(1)
           << "; } else { a = SV{parity64(a.val), 0ull}; } }";
        break;
      case OpCode::UnBoolNot:
        os << "{ SV& a = sp[-1]; a = SV{" << isTrue("a") << " ? 0ull : 1ull, 0ull}; }";
        break;
      case OpCode::BiAnd:
        if (fourState) {
          os << "{ SV b = *--sp; SV& a = sp[-1]; a = and4(a, b); }";
        } else {
          os << "{ SV b = *--sp; sp[-1].val &= b.val; }";
        }
        break;
      case OpCode::BiOr:
        if (fourState) {
          os << "{ SV b = *--sp; SV& a = sp[-1]; a = or4(a, b); }";
        } else {
          os << "{ SV b = *--sp; sp[-1].val |= b.val; }";
        }
        break;
      case OpCode::BiXor:
        if (fourState) {
          os << "{ SV b = *--sp; SV& a = sp[-1]; a = xor4(a, b); }";
        } else {
          os << "{ SV b = *--sp; sp[-1].val ^= b.val; }";
        }
        break;
      case OpCode::BiAdd:
        if (fourState) {
          os << "{ SV b = *--sp; SV& a = sp[-1]; if (a.unk | b.unk) { a = " << allX(op.a)
             << "; } else { a = SV{(a.val + b.val) & " << maskLit(op.a) << ", 0ull}; } }";
        } else {
          os << "{ SV b = *--sp; sp[-1].val = (sp[-1].val + b.val) & " << maskLit(op.a)
             << "; }";
        }
        break;
      case OpCode::BiSub:
        if (fourState) {
          os << "{ SV b = *--sp; SV& a = sp[-1]; if (a.unk | b.unk) { a = " << allX(op.a)
             << "; } else { a = SV{(a.val - b.val) & " << maskLit(op.a) << ", 0ull}; } }";
        } else {
          os << "{ SV b = *--sp; sp[-1].val = (sp[-1].val - b.val) & " << maskLit(op.a)
             << "; }";
        }
        break;
      case OpCode::BiMul:
        if (fourState) {
          os << "{ SV b = *--sp; SV& a = sp[-1]; if (a.unk | b.unk) { a = " << allX(op.a)
             << "; } else { a = SV{(a.val * b.val) & " << maskLit(op.a) << ", 0ull}; } }";
        } else {
          os << "{ SV b = *--sp; sp[-1].val = (sp[-1].val * b.val) & " << maskLit(op.a)
             << "; }";
        }
        break;
      case OpCode::BiDiv:
        os << "{ SV b = *--sp; SV& a = sp[-1]; if ((a.unk | b.unk) || b.val == 0) { a = "
           << allX(op.a) << "; } else { a = SV{a.val / b.val, 0ull}; } }";
        break;
      case OpCode::BiMod:
        os << "{ SV b = *--sp; SV& a = sp[-1]; if ((a.unk | b.unk) || b.val == 0) { a = "
           << allX(op.a) << "; } else { a = SV{a.val % b.val, 0ull}; } }";
        break;
      case OpCode::BiShl:
        os << "{ SV amt = *--sp; SV& a = sp[-1]; if (amt.unk != 0) { a = " << allX(op.a)
           << "; } else if (amt.val >= " << op.a
           << "ull) { a = SV{0ull, 0ull}; } else { a = SV{(a.val << amt.val) & "
           << maskLit(op.a) << ", (a.unk << amt.val) & " << maskLit(op.a) << "}; } }";
        break;
      case OpCode::BiShr:
        os << "{ SV amt = *--sp; SV& a = sp[-1]; if (amt.unk != 0) { a = " << allX(op.a)
           << "; } else if (amt.val >= " << op.a
           << "ull) { a = SV{0ull, 0ull}; } else { a = SV{a.val >> amt.val, a.unk >> "
              "amt.val}; } }";
        break;
      case OpCode::BiAShr:
        os << "{ SV amt = *--sp; SV& a = sp[-1]; if (amt.unk != 0) { a = " << allX(op.a)
           << "; } else { const u64 sVal = a.val & " << hexU64(1ULL << (op.a - 1))
           << "; const u64 sUnk = a.unk & " << hexU64(1ULL << (op.a - 1))
           << "; const u64 n = amt.val >= " << op.a << "ull ? " << op.a
           << "ull : amt.val; const u64 fill = n == 0 ? 0 : (maskOf64(n) << (" << op.a
           << " - n)); a.val = ((a.val >> n) | (sVal ? fill : 0)) & " << maskLit(op.a)
           << "; a.unk = ((a.unk >> n) | (sUnk ? fill : 0)) & " << maskLit(op.a)
           << "; } }";
        break;
      case OpCode::BiEq:
        if (fourState) {
          os << "{ SV b = *--sp; SV& a = sp[-1]; if (a.unk | b.unk) { a = " << allX(1)
             << "; } else { a = SV{a.val == b.val ? 1ull : 0ull, 0ull}; } }";
        } else {
          os << "{ SV b = *--sp; sp[-1].val = sp[-1].val == b.val ? 1ull : 0ull; }";
        }
        break;
      case OpCode::BiNe:
        if (fourState) {
          os << "{ SV b = *--sp; SV& a = sp[-1]; if (a.unk | b.unk) { a = " << allX(1)
             << "; } else { a = SV{a.val != b.val ? 1ull : 0ull, 0ull}; } }";
        } else {
          os << "{ SV b = *--sp; sp[-1].val = sp[-1].val != b.val ? 1ull : 0ull; }";
        }
        break;
      case OpCode::BiLtu:
        if (fourState) {
          os << "{ SV b = *--sp; SV& a = sp[-1]; if (a.unk | b.unk) { a = " << allX(1)
             << "; } else { a = SV{a.val < b.val ? 1ull : 0ull, 0ull}; } }";
        } else {
          os << "{ SV b = *--sp; sp[-1].val = sp[-1].val < b.val ? 1ull : 0ull; }";
        }
        break;
      case OpCode::BiLeu:
        if (fourState) {
          os << "{ SV b = *--sp; SV& a = sp[-1]; if (a.unk | b.unk) { a = " << allX(1)
             << "; } else { a = SV{a.val <= b.val ? 1ull : 0ull, 0ull}; } }";
        } else {
          os << "{ SV b = *--sp; sp[-1].val = sp[-1].val <= b.val ? 1ull : 0ull; }";
        }
        break;
      case OpCode::BiLts:
        os << "{ SV b = *--sp; SV& a = sp[-1]; if (a.unk | b.unk) { a = " << allX(1)
           << "; } else { a = SV{sext64(a.val, " << op.a << ") < sext64(b.val, " << op.a
           << ") ? 1ull : 0ull, 0ull}; } }";
        break;
      case OpCode::BiLes:
        os << "{ SV b = *--sp; SV& a = sp[-1]; if (a.unk | b.unk) { a = " << allX(1)
           << "; } else { a = SV{sext64(a.val, " << op.a << ") <= sext64(b.val, " << op.a
           << ") ? 1ull : 0ull, 0ull}; } }";
        break;
      case OpCode::BiConcat:
        os << "{ SV b = *--sp; SV& a = sp[-1]; a = SV{(a.val << " << op.b
           << ") | b.val, (a.unk << " << op.b << ") | b.unk}; }";
        break;
      case OpCode::Slice:
        os << "{ SV& a = sp[-1]; a = SV{(a.val >> " << op.b << ") & "
           << maskLit(op.a - op.b + 1) << ", (a.unk >> " << op.b << ") & "
           << maskLit(op.a - op.b + 1) << "}; }";
        break;
      case OpCode::Resize:
        os << "{ SV& a = sp[-1]; a.val &= " << maskLit(op.a) << "; a.unk &= "
           << maskLit(op.a) << "; }";
        break;
      case OpCode::Sext: {
        const int sw = op.b;
        const int tw = op.a;
        if (tw <= sw) {
          os << "{ SV& a = sp[-1]; a.val &= " << maskLit(tw) << "; a.unk &= "
             << maskLit(tw) << "; }";
        } else {
          const std::uint64_t signMask = 1ULL << (sw - 1);
          const std::uint64_t ext = maskOf(tw) & ~maskOf(sw);
          os << "{ SV& a = sp[-1]; const bool sUnk = (a.unk & " << hexU64(signMask)
             << ") != 0; const bool sVal = (a.val & " << hexU64(signMask)
             << ") != 0; if (sUnk) { a.unk |= " << hexU64(ext) << "; if (sVal) a.val |= "
             << hexU64(ext) << "; } else if (sVal) { a.val |= " << hexU64(ext)
             << "; } }";
        }
        break;
      }
      case OpCode::JumpIfFalse:
        os << "{ SV c = *--sp; if (!" << isTrue("c") << ") goto L" << op.a << "; }";
        break;
      case OpCode::JumpIfTrue:
        os << "{ SV c = *--sp; if (" << isTrue("c") << ") goto L" << op.a << "; }";
        break;
      case OpCode::Jump:
        os << "goto L" << op.a << ";";
        break;
      case OpCode::Dup:
        os << "{ *sp = sp[-1]; ++sp; }";
        break;
      case OpCode::Pop:
        os << "--sp;";
        break;
      case OpCode::StoreVar:
        os << "st.vals[" << operand(symI) << "] = *--sp;";
        break;
      case OpCode::StoreVarRange: {
        const std::uint64_t m = maskOf(op.a - op.b + 1) << op.b;
        os << "{ SV v = *--sp; SV& cur = st.vals[" << operand(symI) << "]; cur.val = (cur.val & "
           << hexU64(~m) << ") | ((v.val << " << op.b << ") & " << hexU64(m)
           << "); cur.unk = (cur.unk & " << hexU64(~m) << ") | ((v.unk << " << op.b
           << ") & " << hexU64(m) << "); }";
        break;
      }
      case OpCode::StoreSig:
        os << "{ Write& w = st.nba[st.nbaCount++]; w.sym = " << operand(symI)
           << "; w.hi = -1; w.lo = -1; w.idx = -1; w.v = *--sp; }";
        break;
      case OpCode::StoreSigRange:
        os << "{ Write& w = st.nba[st.nbaCount++]; w.sym = " << operand(symI) << "; w.hi = "
           << op.a << "; w.lo = " << op.b << "; w.idx = -1; w.v = *--sp; }";
        break;
      case OpCode::StoreArray:
        os << "{ SV v = *--sp; SV idx = *--sp; if (idx.unk == 0) { Write& w = "
              "st.nba[st.nbaCount++]; w.sym = "
           << operand(symI)
           << "; w.hi = -1; w.lo = -1; w.idx = (long long)idx.val; w.v = v; } }";
        break;
      case OpCode::End:
        os << "return;";
        break;
    }
    os << "\n";
  }
  // A Jump target one past the last op lands here.
  if (targets.count(ops.size()) != 0) os << "L" << ops.size() << ":;\n";
  os << "  return;\n";
  out.text = os.str();
  return out;
}

void emitIntList(std::ostringstream& os, const char* name, const std::vector<int>& v,
                 const char* decl = "static const int") {
  os << decl << " " << name << "[" << (v.empty() ? 1 : v.size()) << "] = {";
  if (v.empty()) {
    os << "0";
  } else {
    for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
  }
  os << "};\n";
}

}  // namespace

std::string emitNativeCpp(const TlmModelLayout& layout, bool fourState,
                          const std::string& identity, std::size_t* distinctBodies) {
  const ir::Design& d = layout.design;
  const std::size_t nSym = d.symbols.size();
  const std::size_t nSweep = layout.sweepOrder.size();
  const std::size_t nProc = layout.code.procs.size();
  const std::size_t nMut = layout.mutants.size();
  std::size_t totalArr = 0;
  const std::vector<int> arrOff = arrayOffsets(d, &totalArr);

  // Nonblocking-write capacity: process bodies have no backward jumps, so
  // every store op executes at most once per run; the buffer drains after
  // each phase list / sweep slot, so the sum over all procs bounds it.
  std::size_t nbaCap = 8;
  for (const auto& proc : layout.code.procs) {
    for (const Op& op : proc.ops) {
      if (op.code == OpCode::StoreSig || op.code == OpCode::StoreSigRange ||
          op.code == OpCode::StoreArray) {
        ++nbaCap;
      }
    }
  }

  std::ostringstream os;
  os << "// Auto-generated native TLM scheduler for design '" << d.name << "' ("
     << (fourState ? "4-state" : "2-state") << ").\n";
  os << "// Transliterated from the compiled op streams; do not edit.\n";
  os << "#include <cstdint>\n\n";
  os << "namespace {\n\n";
  os << "using u64 = std::uint64_t;\n";
  os << "struct SV { u64 val; u64 unk; };\n";
  os << "struct Write { int sym; int hi; int lo; long long idx; SV v; };\n\n";
  os << "inline u64 maskOf64(u64 w) { return w >= 64 ? ~0ull : ((1ull << w) - 1); }\n";
  os << "inline u64 parity64(u64 v) { v ^= v >> 32; v ^= v >> 16; v ^= v >> 8; v ^= v >> "
        "4; v ^= v >> 2; v ^= v >> 1; return v & 1; }\n";
  os << "inline long long sext64(u64 v, int w) { if (w >= 64) return (long long)v; const "
        "u64 s = 1ull << (w - 1); return (long long)((v ^ s) - s); }\n";
  if (fourState) {
    os << "inline SV and4(SV a, SV b) { const u64 k0 = (~a.val & ~a.unk) | (~b.val & "
          "~b.unk); const u64 u = (a.unk | b.unk) & ~k0; const u64 v = a.val & b.val & "
          "~a.unk & ~b.unk; return SV{v, u}; }\n";
    os << "inline SV or4(SV a, SV b) { const u64 k1 = (a.val & ~a.unk) | (b.val & "
          "~b.unk); const u64 u = (a.unk | b.unk) & ~k1; const u64 v = ((a.val | b.val) "
          "& ~a.unk & ~b.unk) | k1; return SV{v, u}; }\n";
    os << "inline SV xor4(SV a, SV b) { const u64 u = a.unk | b.unk; const u64 v = "
          "(a.val ^ b.val) & ~u; return SV{v, u}; }\n";
  }
  os << "\n";
  os << "enum : int { kNSym = " << nSym << ", kNSweep = " << static_cast<int>(nSweep)
     << ", kNMut = " << static_cast<int>(nMut) << ", kHfRatio = " << layout.cfg.hfRatio
     << ", kMainClk = " << static_cast<int>(d.mainClock)
     << ", kHfClk = " << static_cast<int>(d.hfClock) << " };\n";
  os << "enum : int { kTotArr = " << static_cast<int>(totalArr) << ", kNbaCap = "
     << static_cast<int>(nbaCap) << " };\n\n";

  // --- baked tables ---------------------------------------------------------
  os << "static const u64 kMask[kNSym] = {";
  for (std::size_t i = 0; i < nSym; ++i) {
    os << (i ? ", " : "") << hexU64(maskOf(d.symbols[i].type.width));
  }
  os << "};\n";

  os << "static const SV kInit[kNSym] = {";
  for (std::size_t i = 0; i < nSym; ++i) {
    const auto& s = d.symbols[i];
    const std::uint64_t v =
        (s.kind != ir::SymKind::Array && s.hasInit) ? (s.initValue & maskOf(s.type.width))
                                                    : 0;
    os << (i ? ", " : "") << "{" << hexU64(v) << ", 0ull}";
  }
  os << "};\n";

  {
    // Array pools with arrayInits applied, flattened in symbol id order.
    std::vector<SV> flat(totalArr);
    for (const auto& ai : d.arrayInits) {
      const int base = arrOff[static_cast<std::size_t>(ai.array)];
      const std::size_t size =
          static_cast<std::size_t>(d.symbol(ai.array).arraySize);
      const std::uint64_t m = maskOf(d.symbol(ai.array).type.width);
      for (std::size_t k = 0; k < ai.words.size() && k < size; ++k) {
        flat[static_cast<std::size_t>(base) + k] = SV{ai.words[k] & m, 0};
      }
    }
    os << "static const SV kArrInit[" << (totalArr == 0 ? 1 : totalArr) << "] = {";
    if (totalArr == 0) {
      os << "{0ull, 0ull}";
    } else {
      for (std::size_t i = 0; i < totalArr; ++i) {
        os << (i ? ", " : "") << "{" << hexU64(flat[i].val) << ", " << hexU64(flat[i].unk)
           << "}";
      }
    }
    os << "};\n";
  }

  os << "static const SV kConst[" << (layout.code.constants.empty() ? 1 : layout.code.constants.size())
     << "] = {";
  if (layout.code.constants.empty()) {
    os << "{0ull, 0ull}";
  } else {
    for (std::size_t i = 0; i < layout.code.constants.size(); ++i) {
      const auto& c = layout.code.constants[i];
      os << (i ? ", " : "") << "{" << hexU64(c.value & maskOf(c.width)) << ", 0ull}";
    }
  }
  os << "};\n";

  {
    // Sensitivity CSR: symbol id -> sweep slots to dirty.
    std::vector<int> off, slots;
    off.reserve(nSym + 1);
    off.push_back(0);
    for (std::size_t i = 0; i < nSym; ++i) {
      for (int s : layout.sensitiveSlots[i]) slots.push_back(s);
      off.push_back(static_cast<int>(slots.size()));
    }
    emitIntList(os, "kSensOff", off);
    emitIntList(os, "kSensSlot", slots);
  }
  emitIntList(os, "kSweepOrder", layout.sweepOrder);
  emitIntList(os, "kMainRise", layout.mainRise);
  emitIntList(os, "kMainPost", layout.mainPost);
  emitIntList(os, "kMainFall", layout.mainFall);
  emitIntList(os, "kHfRise", layout.hfRise);
  emitIntList(os, "kHfFall", layout.hfFall);

  {
    // Mutant phase tables (TlmModelLayout): per mutant, the index of its
    // target in kTgt and its phase point; per distinct target, the symbol
    // and the tmp variable its update lands from.
    const std::size_t nTgt = layout.mutantTargets.size();
    os << "enum : int { kNTgt = " << nTgt << ", kMaxDelayPhase = "
       << maxDelayPhase(layout.cfg.hfRatio) << " };\n";
    os << "struct Mut { int target; int phase; };\n";
    os << "static const Mut kMut[" << (nMut == 0 ? 1 : nMut) << "] = {";
    if (nMut == 0) os << "{-1, " << kNoPhase << "}";
    for (std::size_t i = 0; i < nMut; ++i) {
      os << (i ? ", " : "") << "{" << layout.mutantTargetOf[i] << ", "
         << layout.mutantPhase[i] << "}";
    }
    os << "};\n";
    os << "struct Tgt { int sym; int tmp; };\n";
    os << "static const Tgt kTgt[" << (nTgt == 0 ? 1 : nTgt) << "] = {";
    if (nTgt == 0) os << "{-1, -1}";
    for (std::size_t t = 0; t < nTgt; ++t) {
      os << (t ? ", " : "") << "{" << static_cast<int>(layout.mutantTargets[t].target) << ", "
         << static_cast<int>(layout.mutantTargets[t].tmpVar) << "}";
    }
    os << "};\n\n";
  }

  // --- state + kernel -------------------------------------------------------
  os << "struct State {\n";
  os << "  SV vals[kNSym];\n";
  os << "  SV arr[kTotArr == 0 ? 1 : kTotArr];\n";
  os << "  unsigned char dirty[kNSweep == 0 ? 1 : kNSweep];\n";
  os << "  int anyDirty;\n";
  os << "  u64 cycle;\n";
  os << "  int activeTarget;  // kTgt index of the active mutant, -1 = none\n";
  os << "  int activePhase;\n";
  os << "  int nbaCount;\n";
  os << "  Write nba[kNbaCap];\n";
  os << "};\n\n";

  os << "inline void markDirty(State& st, int sym) {\n";
  os << "  for (int i = kSensOff[sym]; i < kSensOff[sym + 1]; ++i) {\n";
  os << "    const int slot = kSensSlot[i];\n";
  os << "    if (!st.dirty[slot]) { st.dirty[slot] = 1; st.anyDirty = 1; }\n";
  os << "  }\n";
  os << "}\n\n";

  // Array offset/size lookups used by commitW (StoreArray targets only).
  {
    std::vector<int> sizes(nSym, 0);
    for (std::size_t i = 0; i < nSym; ++i) {
      if (d.symbols[i].kind == ir::SymKind::Array) sizes[i] = d.symbols[i].arraySize;
    }
    emitIntList(os, "kArrOffTab", arrOff);
    emitIntList(os, "kArrSizeTab", sizes);
  }
  os << "inline int kArrOffOf(int sym) { return kArrOffTab[sym]; }\n";
  os << "inline u64 kArrSizeOf(int sym) { return (u64)kArrSizeTab[sym]; }\n\n";

  os << "inline int commitW(State& st, const Write& w) {\n";
  os << "  if (w.idx >= 0) {\n";
  os << "    SV& cur = st.arr[kArrOffOf(w.sym) + (int)((u64)w.idx % kArrSizeOf(w.sym))];\n";
  os << "    if (cur.val == w.v.val && cur.unk == w.v.unk) return 0;\n";
  os << "    cur = w.v; return 1;\n";
  os << "  }\n";
  os << "  if (w.hi >= 0) {\n";
  os << "    const u64 m = maskOf64((u64)(w.hi - w.lo + 1)) << w.lo;\n";
  os << "    SV& cur = st.vals[w.sym];\n";
  os << "    const SV next{(cur.val & ~m) | ((w.v.val << w.lo) & m),\n";
  os << "                  (cur.unk & ~m) | ((w.v.unk << w.lo) & m)};\n";
  os << "    if (cur.val == next.val && cur.unk == next.unk) return 0;\n";
  os << "    cur = next; return 1;\n";
  os << "  }\n";
  os << "  SV& cur = st.vals[w.sym];\n";
  os << "  if (cur.val == w.v.val && cur.unk == w.v.unk) return 0;\n";
  os << "  cur = w.v; return 1;\n";
  os << "}\n\n";

  os << "inline void commitNba(State& st) {\n";
  os << "  for (int i = 0; i < st.nbaCount; ++i) {\n";
  os << "    if (commitW(st, st.nba[i])) markDirty(st, st.nba[i].sym);\n";
  os << "  }\n";
  os << "  st.nbaCount = 0;\n";
  os << "}\n\n";

  // Process bodies, each distinct rendered text once, and the dispatch
  // table of {body, operands} entries. A body only one process runs keeps
  // its operands in a function-local constexpr table the compiler folds
  // into constants; a shared body reads them from the entry's table.
  std::vector<RenderedBody> procBody(nProc);
  std::vector<int> bodyOf(nProc);
  std::vector<int> bodyUsers;
  std::vector<std::size_t> bodyFirstProc;
  {
    std::unordered_map<std::string, int> bodyIndex;
    for (std::size_t pi = 0; pi < nProc; ++pi) {
      procBody[pi] = renderBody(layout, static_cast<int>(pi), fourState, arrOff);
      const auto [it, fresh] =
          bodyIndex.emplace(procBody[pi].text, static_cast<int>(bodyUsers.size()));
      if (fresh) {
        bodyUsers.push_back(0);
        bodyFirstProc.push_back(pi);
      }
      bodyOf[pi] = it->second;
      ++bodyUsers[static_cast<std::size_t>(it->second)];
    }
  }
  const auto shared = [&](std::size_t pi) {
    return bodyUsers[static_cast<std::size_t>(bodyOf[pi])] > 1;
  };
  os << "typedef void (*BodyFn)(State&, const int*);\n";
  os << "struct Proc { BodyFn run; const int* o; };\n\n";
  for (std::size_t b = 0; b < bodyUsers.size(); ++b) {
    const RenderedBody& body = procBody[bodyFirstProc[b]];
    if (bodyUsers[b] > 1) {
      os << "static void body_" << b << "(State& st, const int* o) {\n";
    } else {
      os << "static void body_" << b << "(State& st, const int*) {\n";
      emitIntList(os, "o", body.operands, "  static constexpr int");
    }
    os << body.text << "}\n\n";
  }
  const auto opsTable = [&](std::size_t pi) {
    return shared(pi) ? "kOps" + std::to_string(pi) : std::string("nullptr");
  };
  for (std::size_t pi = 0; pi < nProc; ++pi) {
    if (shared(pi)) emitIntList(os, opsTable(pi).c_str(), procBody[pi].operands);
  }
  os << "static const Proc kProc[" << (nProc == 0 ? 1 : nProc) << "] = {";
  if (nProc == 0) os << "{nullptr, nullptr}";
  for (std::size_t pi = 0; pi < nProc; ++pi) {
    os << (pi ? ", " : "") << "{body_" << bodyOf[pi] << ", " << opsTable(pi) << "}";
  }
  os << "};\n\n";
  if (distinctBodies != nullptr) *distinctBodies = bodyUsers.size();

  os << "inline void runProc(State& st, int p) { kProc[p].run(st, kProc[p].o); }\n\n";

  os << "inline void runList(State& st, const int* list, int n) {\n";
  os << "  for (int i = 0; i < n; ++i) runProc(st, list[i]);\n";
  os << "}\n\n";

  os << "inline int sweepSt(State& st) {\n";
  os << "  if (!st.anyDirty) return 0;\n";
  os << "  for (int round = 0; st.anyDirty; ++round) {\n";
  os << "    if (round > 64) return -1;\n";
  os << "    st.anyDirty = 0;\n";
  os << "    for (int slot = 0; slot < kNSweep; ++slot) {\n";
  os << "      if (!st.dirty[slot]) continue;\n";
  os << "      st.dirty[slot] = 0;\n";
  os << "      runProc(st, kSweepOrder[slot]);\n";
  os << "      for (int i = 0; i < st.nbaCount; ++i) {\n";
  os << "        if (commitW(st, st.nba[i])) markDirty(st, st.nba[i].sym);\n";
  os << "      }\n";
  os << "      st.nbaCount = 0;\n";
  os << "    }\n";
  os << "  }\n";
  os << "  return 0;\n";
  os << "}\n\n";

  os << "inline void commitTarget(State& st, int t) {\n";
  os << "  const SV v = st.vals[kTgt[t].tmp];\n";
  os << "  SV& cur = st.vals[kTgt[t].sym];\n";
  os << "  if (cur.val != v.val || cur.unk != v.unk) { cur = v; markDirty(st, kTgt[t].sym); }\n";
  os << "}\n\n";
  os << "inline void commitInactiveTargets(State& st) {\n";
  os << "  for (int t = 0; t < kNTgt; ++t) {\n";
  os << "    if (t != st.activeTarget) commitTarget(st, t);\n";
  os << "  }\n";
  os << "}\n\n";
  os << "inline void commitActiveAt(State& st, int phase) {\n";
  os << "  if (st.activePhase == phase) commitTarget(st, st.activeTarget);\n";
  os << "}\n\n";

  // The scheduler: TlmIpModel::scheduler() phase for phase (Fig. 6b/8b).
  // setClock writes bypass dirty marking, exactly like the interpreter.
  os << "inline int stepSt(State& st) {\n";
  os << "  ++st.cycle;\n";
  os << "  if (sweepSt(st)) return -1;\n";
  if (d.mainClock != ir::kNoSymbol) {
    os << "  st.vals[kMainClk] = SV{1ull, 0ull};\n";
  }
  os << "  runList(st, kMainRise, " << layout.mainRise.size() << ");\n";
  os << "  commitNba(st);\n";
  os << "  commitInactiveTargets(st);\n";
  os << "  if (sweepSt(st)) return -1;\n";
  if (!layout.mainPost.empty()) {
    os << "  runList(st, kMainPost, " << layout.mainPost.size() << ");\n";
    os << "  commitNba(st);\n";
    os << "  if (sweepSt(st)) return -1;\n";
  }
  os << "  commitActiveAt(st, " << kMinDelayPhase << ");\n";
  os << "  if (sweepSt(st)) return -1;\n";
  if (layout.cfg.hfRatio > 0) {
    os << "  for (int j = 1; j <= kHfRatio; ++j) {\n";
    os << "    commitActiveAt(st, j);\n";
    os << "    if (sweepSt(st)) return -1;\n";
    if (d.hfClock != ir::kNoSymbol) {
      os << "    st.vals[kHfClk] = SV{1ull, 0ull};\n";
    }
    os << "    runList(st, kHfRise, " << layout.hfRise.size() << ");\n";
    os << "    commitNba(st);\n";
    os << "    if (sweepSt(st)) return -1;\n";
    if (d.hfClock != ir::kNoSymbol) {
      os << "    st.vals[kHfClk] = SV{0ull, 0ull};\n";
    }
    if (!layout.hfFall.empty()) {
      os << "    runList(st, kHfFall, " << layout.hfFall.size() << ");\n";
      os << "    commitNba(st);\n";
      os << "    if (sweepSt(st)) return -1;\n";
    }
    os << "  }\n";
  }
  os << "  commitActiveAt(st, kMaxDelayPhase);\n";
  os << "  if (sweepSt(st)) return -1;\n";
  if (d.mainClock != ir::kNoSymbol) {
    os << "  st.vals[kMainClk] = SV{0ull, 0ull};\n";
  }
  os << "  runList(st, kMainFall, " << layout.mainFall.size() << ");\n";
  os << "  commitNba(st);\n";
  os << "  if (sweepSt(st)) return -1;\n";
  os << "  return 0;\n";
  os << "}\n\n";
  os << "}  // namespace\n\n";

  // --- C ABI ----------------------------------------------------------------
  os << "extern \"C\" {\n\n";
  os << "void* xlvn_create(void) {\n";
  os << "  State* st = new State;\n";
  os << "  for (int i = 0; i < kNSym; ++i) st->vals[i] = kInit[i];\n";
  os << "  for (int i = 0; i < kTotArr; ++i) st->arr[i] = kArrInit[i];\n";
  os << "  for (int i = 0; i < kNSweep; ++i) st->dirty[i] = 1;\n";
  os << "  st->anyDirty = kNSweep > 0 ? 1 : 0;\n";
  os << "  st->cycle = 0; st->activeTarget = -1; st->activePhase = " << kNoPhase
      << "; st->nbaCount = 0;\n";
  os << "  return st;\n";
  os << "}\n\n";
  os << "void xlvn_destroy(void* p) { delete static_cast<State*>(p); }\n\n";
  // An id outside the mutant set selects no mutant (it never indexes kMut).
  os << "void xlvn_set_mutant(void* p, int id) {\n";
  os << "  State& st = *static_cast<State*>(p);\n";
  os << "  const int valid = id >= 0 && id < kNMut;\n";
  os << "  st.activeTarget = valid ? kMut[id].target : -1;\n";
  os << "  st.activePhase = valid ? kMut[id].phase : " << kNoPhase << ";\n";
  os << "}\n\n";
  os << "void xlvn_set_input(void* p, int sym, u64 v) {\n";
  os << "  State& st = *static_cast<State*>(p);\n";
  os << "  const SV nv{v & kMask[sym], 0ull};\n";
  os << "  SV& cur = st.vals[sym];\n";
  os << "  if (cur.val != nv.val || cur.unk != nv.unk) { cur = nv; markDirty(st, sym); "
         "}\n";
  os << "}\n\n";
  os << "int xlvn_step(void* p) { return stepSt(*static_cast<State*>(p)); }\n\n";
  os << "u64 xlvn_value(void* p, int sym) {\n";
  os << "  const SV& v = static_cast<State*>(p)->vals[sym];\n";
  os << "  return v.val & ~v.unk;\n";
  os << "}\n\n";
  os << "void xlvn_raw(void* p, int sym, u64* val, u64* unk) {\n";
  os << "  const SV& v = static_cast<State*>(p)->vals[sym];\n";
  os << "  *val = v.val; *unk = v.unk;\n";
  os << "}\n\n";
  os << "u64 xlvn_cycle(void* p) { return static_cast<State*>(p)->cycle; }\n\n";
  os << "u64 xlvn_state_words(void) { return 2 + (u64)kNSweep + 2 * (u64)kNSym + 2 * "
         "(u64)kTotArr; }\n\n";
  os << "void xlvn_save(void* p, u64* buf) {\n";
  os << "  const State& st = *static_cast<State*>(p);\n";
  os << "  u64* o = buf;\n";
  os << "  *o++ = st.cycle;\n";
  os << "  *o++ = st.anyDirty ? 1 : 0;\n";
  os << "  for (int i = 0; i < kNSweep; ++i) *o++ = st.dirty[i];\n";
  os << "  for (int i = 0; i < kNSym; ++i) { *o++ = st.vals[i].val; *o++ = "
         "st.vals[i].unk; }\n";
  os << "  for (int i = 0; i < kTotArr; ++i) { *o++ = st.arr[i].val; *o++ = "
         "st.arr[i].unk; }\n";
  os << "}\n\n";
  os << "void xlvn_load(void* p, const u64* buf) {\n";
  os << "  State& st = *static_cast<State*>(p);\n";
  os << "  const u64* o = buf;\n";
  os << "  st.cycle = *o++;\n";
  os << "  st.anyDirty = *o++ != 0 ? 1 : 0;\n";
  os << "  for (int i = 0; i < kNSweep; ++i) st.dirty[i] = (unsigned char)*o++;\n";
  os << "  for (int i = 0; i < kNSym; ++i) { st.vals[i].val = *o++; st.vals[i].unk = "
         "*o++; }\n";
  os << "  for (int i = 0; i < kTotArr; ++i) { st.arr[i].val = *o++; st.arr[i].unk = "
         "*o++; }\n";
  os << "  st.nbaCount = 0;\n";
  os << "}\n\n";
  os << "int xlvn_abi(void) { return " << kNativeAbiVersion << "; }\n\n";
  os << "const char* xlvn_identity(void) { return \"" << identity << "\"; }\n\n";
  os << "}  // extern \"C\"\n";
  return os.str();
}

}  // namespace xlv::abstraction
