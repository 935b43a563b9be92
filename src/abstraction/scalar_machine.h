// Scalar execution backend for the compiled TLM model.
//
// Generated TLM C++ represents HDL vectors with native machine words
// (HDTLib maps data types onto statically allocated arrays of unsigned
// integers — one 64-bit word suffices for every signal of the case
// studies). This backend executes the compiled instruction stream over
// two-plane (value, unknown) scalars, giving the abstracted model the
// native-word performance of generated code, while the event-driven RTL
// kernel keeps executing the elaborated IR — the cost structure behind the
// paper's Table 3/4 speedups.
//
// Semantics are bit-identical to the LogicVector/BitVector operations
// (4-state pessimism included); the RTL-vs-TLM cycle-equivalence tests pin
// this. Designs with symbols wider than 64 bits are rejected by this
// backend; TlmIpModel reports them with a clear error.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "abstraction/compiled.h"
#include "hdt/policy.h"
#include "ir/design.h"

namespace xlv::abstraction {

/// One 4-state scalar: value plane + unknown plane (bit i unknown when
/// unk bit set; val distinguishes X(0) / Z(1)). 2-state keeps unk == 0.
struct SV {
  std::uint64_t val = 0;
  std::uint64_t unk = 0;
};

struct ScalarWrite {
  ir::SymbolId sym = ir::kNoSymbol;
  int hi = -1, lo = -1;
  std::int64_t arrayIndex = -1;
  SV value;
};

inline std::uint64_t maskOf(int width) noexcept {
  return width >= 64 ? ~0ULL : ((1ULL << width) - 1);
}

template <class P>
class ScalarMachine {
 public:
  static constexpr bool kFourState = std::is_same_v<P, hdt::FourState>;
  using Vec = typename P::Vec;

  ScalarMachine(const ir::Design& d, const CompiledDesign& code) : d_(d), code_(code) {
    vals_.resize(d.symbols.size());
    widths_.resize(d.symbols.size());
    arrayBase_.assign(d.symbols.size(), -1);
    for (std::size_t i = 0; i < d.symbols.size(); ++i) {
      const auto& s = d.symbols[i];
      if (s.type.width > 64) {
        throw std::invalid_argument(
            "scalar TLM backend: symbol '" + s.name + "' is wider than 64 bits");
      }
      widths_[i] = s.type.width;
      if (s.kind == ir::SymKind::Array) {
        arrayBase_[i] = static_cast<int>(arrays_.size());
        arrays_.emplace_back(static_cast<std::size_t>(s.arraySize), SV{});
      } else if (s.hasInit) {
        vals_[i].val = s.initValue & maskOf(s.type.width);
      }
    }
    for (const auto& ai : d.arrayInits) {
      auto& pool = arrays_[static_cast<std::size_t>(arrayBase_[static_cast<std::size_t>(ai.array)])];
      const std::uint64_t m = maskOf(d.symbol(ai.array).type.width);
      for (std::size_t k = 0; k < ai.words.size() && k < pool.size(); ++k) {
        pool[k] = SV{ai.words[k] & m, 0};
      }
    }
    consts_.reserve(code.constants.size());
    for (const auto& c : code.constants) consts_.push_back(SV{c.value & maskOf(c.width), 0});
    stack_.resize(64);
  }

  // --- store access ------------------------------------------------------------
  SV get(ir::SymbolId s) const noexcept { return vals_[static_cast<std::size_t>(s)]; }

  int width(ir::SymbolId s) const noexcept { return widths_[static_cast<std::size_t>(s)]; }

  // --- checkpointing -----------------------------------------------------------
  /// Write the complete mutable state at `out`: (val, unk) per symbol in id
  /// order, then per array element, pools in array-symbol id order — the
  /// tail of the shared word layout (tlm_model.h). The compiled code,
  /// constants and scratch stack are immutable or transient and are not
  /// part of the state.
  void saveWords(std::uint64_t* out) const {
    for (const SV& v : vals_) {
      *out++ = v.val;
      *out++ = v.unk;
    }
    for (const auto& pool : arrays_) {
      for (const SV& v : pool) {
        *out++ = v.val;
        *out++ = v.unk;
      }
    }
  }

  /// Read back what saveWords wrote at `in`. The caller has checked the
  /// word count against the layout.
  void loadWords(const std::uint64_t* in) {
    for (SV& v : vals_) {
      v.val = *in++;
      v.unk = *in++;
    }
    for (auto& pool : arrays_) {
      for (SV& v : pool) {
        v.val = *in++;
        v.unk = *in++;
      }
    }
  }

  bool setScalar(ir::SymbolId s, SV v) {
    SV& cur = vals_[static_cast<std::size_t>(s)];
    if (cur.val == v.val && cur.unk == v.unk) return false;
    cur = v;
    return true;
  }

  std::uint64_t valueUint(ir::SymbolId s) const noexcept {
    const SV& v = vals_[static_cast<std::size_t>(s)];
    return v.val & ~v.unk;
  }

  Vec toVec(ir::SymbolId s) const {
    const SV v = vals_[static_cast<std::size_t>(s)];
    const int w = widths_[static_cast<std::size_t>(s)];
    if constexpr (kFourState) {
      hdt::LogicVector out(w);
      out.setWord(0, {v.val, v.unk});
      out.maskTop();
      return out;
    } else {
      return Vec::fromUint(w, v.val);
    }
  }

  SV fromVec(const Vec& v) const {
    if constexpr (kFourState) {
      return SV{v.valWord(0), v.unkWord(0)};
    } else {
      return SV{v.word(0), 0};
    }
  }

  Vec arrayElem(ir::SymbolId s, std::uint64_t idx) const {
    const auto& pool = arrays_[static_cast<std::size_t>(arrayBase_[static_cast<std::size_t>(s)])];
    const SV v = pool[static_cast<std::size_t>(idx % pool.size())];
    const int w = widths_[static_cast<std::size_t>(s)];
    if constexpr (kFourState) {
      hdt::LogicVector out(w);
      out.setWord(0, {v.val, v.unk});
      out.maskTop();
      return out;
    } else {
      return Vec::fromUint(w, v.val);
    }
  }

  /// Commit one nonblocking write; true when the stored value changed.
  bool commit(const ScalarWrite& w) {
    if (w.arrayIndex >= 0) {
      auto& pool =
          arrays_[static_cast<std::size_t>(arrayBase_[static_cast<std::size_t>(w.sym)])];
      SV& cur = pool[static_cast<std::size_t>(w.arrayIndex) % pool.size()];
      if (cur.val == w.value.val && cur.unk == w.value.unk) return false;
      cur = w.value;
      return true;
    }
    if (w.hi >= 0) {
      const std::uint64_t m = maskOf(w.hi - w.lo + 1) << w.lo;
      SV& cur = vals_[static_cast<std::size_t>(w.sym)];
      const SV next{(cur.val & ~m) | ((w.value.val << w.lo) & m),
                    (cur.unk & ~m) | ((w.value.unk << w.lo) & m)};
      if (cur.val == next.val && cur.unk == next.unk) return false;
      cur = next;
      return true;
    }
    return setScalar(w.sym, w.value);
  }

  // --- execution -----------------------------------------------------------------
  // The op loop starts on a 64-byte boundary: left to the linker, its phase
  // within a cache line moved with unrelated code and its speed with it.
  [[gnu::aligned(64)]] void run(int procIndex, std::vector<ScalarWrite>& nba) {
    const auto& ops = code_.procs[static_cast<std::size_t>(procIndex)].ops;
    if (static_cast<int>(stack_.size()) <
        code_.procs[static_cast<std::size_t>(procIndex)].maxStack + 4) {
      stack_.resize(static_cast<std::size_t>(
          code_.procs[static_cast<std::size_t>(procIndex)].maxStack + 8));
    }
    SV* sp = stack_.data();  // points one past the top
    std::size_t pc = 0;
    while (true) {
      const Op& op = ops[pc];
      switch (op.code) {
        case OpCode::PushConst: *sp++ = consts_[static_cast<std::size_t>(op.a)]; break;
        case OpCode::PushSig: *sp++ = vals_[static_cast<std::size_t>(op.sym)]; break;
        case OpCode::PushArrayElem: {
          const SV idx = *--sp;
          if (idx.unk != 0) {
            *sp++ = allX(op.a);
          } else {
            const auto& pool =
                arrays_[static_cast<std::size_t>(arrayBase_[static_cast<std::size_t>(op.sym)])];
            *sp++ = pool[static_cast<std::size_t>(idx.val) % pool.size()];
          }
          break;
        }
        case OpCode::UnNot: {
          SV& a = sp[-1];
          if constexpr (kFourState) {
            a.val = ~a.val & ~a.unk & maskOf(op.a);
            a.unk &= maskOf(op.a);
          } else {
            a.val = ~a.val & maskOf(op.a);
          }
          break;
        }
        case OpCode::UnNeg: {
          SV& a = sp[-1];
          a = a.unk ? allX(op.a) : norm(SV{(~a.val + 1), 0}, op.a);
          break;
        }
        case OpCode::UnRedAnd: {
          SV& a = sp[-1];
          a = a.unk ? allX(1) : SV{a.val == maskOf(op.a) ? 1ULL : 0ULL, 0};
          break;
        }
        case OpCode::UnRedOr: {
          SV& a = sp[-1];
          if ((a.val & ~a.unk) != 0) {
            a = SV{1, 0};
          } else {
            a = a.unk ? allX(1) : SV{0, 0};
          }
          break;
        }
        case OpCode::UnRedXor: {
          SV& a = sp[-1];
          a = a.unk ? allX(1)
                    : SV{static_cast<std::uint64_t>(__builtin_parityll(a.val)), 0};
          break;
        }
        case OpCode::UnBoolNot: {
          SV& a = sp[-1];
          a = SV{isTrue(a) ? 0ULL : 1ULL, 0};
          break;
        }
        case OpCode::BiAnd: {
          const SV b = *--sp;
          SV& a = sp[-1];
          if constexpr (kFourState) {
            const hdt::W4 r = hdt::and4({a.val, a.unk}, {b.val, b.unk});
            a = SV{r.val, r.unk};
          } else {
            a.val &= b.val;  // single-plane fast path (HDTLib 2-state)
          }
          break;
        }
        case OpCode::BiOr: {
          const SV b = *--sp;
          SV& a = sp[-1];
          if constexpr (kFourState) {
            const hdt::W4 r = hdt::or4({a.val, a.unk}, {b.val, b.unk});
            a = SV{r.val, r.unk};
          } else {
            a.val |= b.val;
          }
          break;
        }
        case OpCode::BiXor: {
          const SV b = *--sp;
          SV& a = sp[-1];
          if constexpr (kFourState) {
            const hdt::W4 r = hdt::xor4({a.val, a.unk}, {b.val, b.unk});
            a = SV{r.val, r.unk};
          } else {
            a.val ^= b.val;
          }
          break;
        }
        case OpCode::BiAdd: {
          const SV b = *--sp;
          SV& a = sp[-1];
          if constexpr (kFourState) {
            a = (a.unk | b.unk) ? allX(op.a)
                                : norm(SV{a.val + b.val, 0}, op.a);
          } else {
            a.val = (a.val + b.val) & maskOf(op.a);
          }
          break;
        }
        case OpCode::BiSub: {
          const SV b = *--sp;
          SV& a = sp[-1];
          if constexpr (kFourState) {
            a = (a.unk | b.unk) ? allX(op.a)
                                : norm(SV{a.val - b.val, 0}, op.a);
          } else {
            a.val = (a.val - b.val) & maskOf(op.a);
          }
          break;
        }
        case OpCode::BiMul: {
          const SV b = *--sp;
          SV& a = sp[-1];
          if constexpr (kFourState) {
            a = (a.unk | b.unk) ? allX(op.a)
                                : norm(SV{a.val * b.val, 0}, op.a);
          } else {
            a.val = (a.val * b.val) & maskOf(op.a);
          }
          break;
        }
        case OpCode::BiDiv: {
          const SV b = *--sp;
          SV& a = sp[-1];
          a = (a.unk | b.unk || b.val == 0) ? allX(op.a) : SV{a.val / b.val, 0};
          break;
        }
        case OpCode::BiMod: {
          const SV b = *--sp;
          SV& a = sp[-1];
          a = (a.unk | b.unk || b.val == 0) ? allX(op.a) : SV{a.val % b.val, 0};
          break;
        }
        case OpCode::BiShl:
        case OpCode::BiShr:
        case OpCode::BiAShr: {
          const SV amtv = *--sp;
          SV& a = sp[-1];
          if (amtv.unk != 0) {
            a = allX(op.a);
            break;
          }
          const int w = op.a;
          const std::uint64_t amt = amtv.val;
          if (op.code == OpCode::BiShl) {
            a = amt >= static_cast<std::uint64_t>(w)
                    ? SV{0, 0}
                    : norm(SV{a.val << amt, a.unk << amt}, w);
          } else if (op.code == OpCode::BiShr) {
            a = amt >= static_cast<std::uint64_t>(w) ? SV{0, 0}
                                                     : SV{a.val >> amt, a.unk >> amt};
          } else {
            // Arithmetic shift: replicate the (possibly unknown) sign bit.
            const std::uint64_t signMask = 1ULL << (w - 1);
            const std::uint64_t sVal = a.val & signMask;
            const std::uint64_t sUnk = a.unk & signMask;
            const std::uint64_t n = amt >= static_cast<std::uint64_t>(w)
                                        ? static_cast<std::uint64_t>(w)
                                        : amt;
            std::uint64_t fill = n == 0 ? 0 : (maskOf(static_cast<int>(n)) << (w - n));
            // Fill with the sign logic value: 1 -> ones, X -> X, Z -> Z.
            a.val = ((a.val >> n) | (sVal ? fill : 0)) & maskOf(w);
            a.unk = ((a.unk >> n) | (sUnk ? fill : 0)) & maskOf(w);
            break;
          }
          break;
        }
        case OpCode::BiEq: {
          const SV b = *--sp;
          SV& a = sp[-1];
          if constexpr (kFourState) {
            a = (a.unk | b.unk) ? allX(1) : SV{a.val == b.val ? 1ULL : 0ULL, 0};
          } else {
            a.val = a.val == b.val ? 1ULL : 0ULL;
          }
          break;
        }
        case OpCode::BiNe: {
          const SV b = *--sp;
          SV& a = sp[-1];
          if constexpr (kFourState) {
            a = (a.unk | b.unk) ? allX(1) : SV{a.val != b.val ? 1ULL : 0ULL, 0};
          } else {
            a.val = a.val != b.val ? 1ULL : 0ULL;
          }
          break;
        }
        case OpCode::BiLtu: {
          const SV b = *--sp;
          SV& a = sp[-1];
          if constexpr (kFourState) {
            a = (a.unk | b.unk) ? allX(1) : SV{a.val < b.val ? 1ULL : 0ULL, 0};
          } else {
            a.val = a.val < b.val ? 1ULL : 0ULL;
          }
          break;
        }
        case OpCode::BiLeu: {
          const SV b = *--sp;
          SV& a = sp[-1];
          if constexpr (kFourState) {
            a = (a.unk | b.unk) ? allX(1) : SV{a.val <= b.val ? 1ULL : 0ULL, 0};
          } else {
            a.val = a.val <= b.val ? 1ULL : 0ULL;
          }
          break;
        }
        case OpCode::BiLts: {
          const SV b = *--sp;
          SV& a = sp[-1];
          a = (a.unk | b.unk) ? allX(1)
                              : SV{sext64(a.val, op.a) < sext64(b.val, op.a) ? 1ULL : 0ULL, 0};
          break;
        }
        case OpCode::BiLes: {
          const SV b = *--sp;
          SV& a = sp[-1];
          a = (a.unk | b.unk) ? allX(1)
                              : SV{sext64(a.val, op.a) <= sext64(b.val, op.a) ? 1ULL : 0ULL, 0};
          break;
        }
        case OpCode::BiConcat: {
          const SV b = *--sp;
          SV& a = sp[-1];
          a = SV{(a.val << op.b) | b.val, (a.unk << op.b) | b.unk};
          break;
        }
        case OpCode::Slice: {
          SV& a = sp[-1];
          const std::uint64_t m = maskOf(op.a - op.b + 1);
          a = SV{(a.val >> op.b) & m, (a.unk >> op.b) & m};
          break;
        }
        case OpCode::Resize: {
          SV& a = sp[-1];
          a.val &= maskOf(op.a);
          a.unk &= maskOf(op.a);
          break;
        }
        case OpCode::Sext: {
          SV& a = sp[-1];
          const int sw = op.b;
          const int tw = op.a;
          if (tw <= sw) {
            a.val &= maskOf(tw);
            a.unk &= maskOf(tw);
            break;
          }
          const std::uint64_t signMask = 1ULL << (sw - 1);
          const std::uint64_t ext = maskOf(tw) & ~maskOf(sw);
          const bool sUnk = (a.unk & signMask) != 0;
          const bool sVal = (a.val & signMask) != 0;
          if (sUnk) {
            a.unk |= ext;
            if (sVal) a.val |= ext;  // Z sign fills Z; X sign fills X
          } else if (sVal) {
            a.val |= ext;
          }
          break;
        }
        case OpCode::JumpIfFalse: {
          const SV c = *--sp;
          if (!isTrue(c)) {
            pc = static_cast<std::size_t>(op.a);
            continue;
          }
          break;
        }
        case OpCode::JumpIfTrue: {
          const SV c = *--sp;
          if (isTrue(c)) {
            pc = static_cast<std::size_t>(op.a);
            continue;
          }
          break;
        }
        case OpCode::Jump:
          pc = static_cast<std::size_t>(op.a);
          continue;
        case OpCode::Dup:
          *sp = sp[-1];
          ++sp;
          break;
        case OpCode::Pop:
          --sp;
          break;
        case OpCode::StoreVar:
          vals_[static_cast<std::size_t>(op.sym)] = *--sp;
          break;
        case OpCode::StoreVarRange: {
          const SV v = *--sp;
          SV& cur = vals_[static_cast<std::size_t>(op.sym)];
          const std::uint64_t m = maskOf(op.a - op.b + 1) << op.b;
          cur.val = (cur.val & ~m) | ((v.val << op.b) & m);
          cur.unk = (cur.unk & ~m) | ((v.unk << op.b) & m);
          break;
        }
        case OpCode::StoreSig:
          nba.push_back(ScalarWrite{op.sym, -1, -1, -1, *--sp});
          break;
        case OpCode::StoreSigRange:
          nba.push_back(ScalarWrite{op.sym, op.a, op.b, -1, *--sp});
          break;
        case OpCode::StoreArray: {
          const SV v = *--sp;
          const SV idx = *--sp;
          if (idx.unk == 0) {
            nba.push_back(
                ScalarWrite{op.sym, -1, -1, static_cast<std::int64_t>(idx.val), v});
          }
          break;
        }
        case OpCode::End:
          return;
      }
      ++pc;
    }
  }

 private:
  static bool isTrue(SV v) noexcept {
    if constexpr (kFourState) {
      return v.unk == 0 && v.val != 0;
    } else {
      return v.val != 0;
    }
  }

  static SV norm(SV v, int width) noexcept {
    v.val &= maskOf(width);
    v.unk &= maskOf(width);
    return v;
  }

  SV allX(int width) const noexcept {
    if constexpr (kFourState) {
      return SV{0, maskOf(width)};
    } else {
      // 2-state library scrubs unknowns to 0 (HDTLib abstraction).
      return SV{0, 0};
    }
  }

  static std::int64_t sext64(std::uint64_t v, int width) noexcept {
    if (width >= 64) return static_cast<std::int64_t>(v);
    const std::uint64_t sign = 1ULL << (width - 1);
    return static_cast<std::int64_t>((v ^ sign) - sign);
  }

  const ir::Design& d_;
  const CompiledDesign& code_;
  std::vector<SV> vals_;
  std::vector<int> widths_;
  std::vector<int> arrayBase_;
  std::vector<std::vector<SV>> arrays_;
  std::vector<SV> consts_;
  std::vector<SV> stack_;
};

}  // namespace xlv::abstraction
