#include "mutation/adam.h"

#include <map>
#include <stdexcept>

#include "ir/walk.h"

namespace xlv::mutation {

using namespace xlv::ir;

const char* mutantKindName(MutantKind k) {
  switch (k) {
    case MutantKind::MinDelay: return "min-delay";
    case MutantKind::MaxDelay: return "max-delay";
    case MutantKind::DeltaDelay: return "delta-delay";
  }
  return "?";
}

std::vector<std::pair<SymbolId, SymbolId>> InjectedDesign::targets() const {
  std::vector<std::pair<SymbolId, SymbolId>> out;
  for (const auto& m : mutants) {
    bool seen = false;
    for (const auto& [t, v] : out) {
      if (t == m.target) {
        seen = true;
        break;
      }
    }
    if (!seen) out.emplace_back(m.target, m.tmpVar);
  }
  return out;
}

namespace {

/// Locate the unique rising-edge synchronous process assigning `target`.
int findDriver(const Design& d, SymbolId target, const std::string& name) {
  int driver = -1;
  for (std::size_t pi = 0; pi < d.processes.size(); ++pi) {
    std::set<SymbolId> writes;
    collectWrites(*d.processes[pi].body, writes);
    if (writes.count(target) == 0) continue;
    const auto& p = d.processes[pi];
    if (!p.isSync || p.edge != EdgeKind::Rising || p.clock != d.mainClock || p.postEdge) {
      throw std::invalid_argument("adam: target '" + name +
                                  "' is not driven by a rising-edge synchronous process");
    }
    driver = static_cast<int>(pi);
  }
  if (driver < 0) {
    throw std::invalid_argument("adam: target '" + name + "' has no driving process");
  }
  return driver;
}

}  // namespace

InjectedDesign injectMutants(const Design& original, const std::vector<MutantSpec>& specs) {
  InjectedDesign out;
  out.design = original;  // deep enough: statement trees are immutable/shared

  std::map<SymbolId, SymbolId> tmpOf;  // target -> tmp variable
  int nextId = 0;

  for (const auto& spec : specs) {
    Design& d = out.design;
    const SymbolId target = d.findSymbol(spec.targetSignal);
    if (target == kNoSymbol) {
      throw std::invalid_argument("adam: no signal named '" + spec.targetSignal + "'");
    }
    const Symbol& ts = d.symbol(target);
    if (ts.kind != SymKind::Signal) {
      throw std::invalid_argument("adam: target '" + spec.targetSignal +
                                  "' is not a scalar signal");
    }
    if (!d.isRegister[static_cast<std::size_t>(target)]) {
      throw std::invalid_argument("adam: target '" + spec.targetSignal + "' is not a register");
    }
    if (spec.kind == MutantKind::DeltaDelay && d.hfClock == kNoSymbol) {
      throw std::invalid_argument(
          "adam: delta-delay mutant requires a high-frequency clock in the design");
    }

    auto it = tmpOf.find(target);
    if (it == tmpOf.end()) {
      // First mutant on this target: perform the Fig. 9(g)(h) rewrite.
      const int driver = findDriver(d, target, spec.targetSignal);

      Symbol tmp;
      tmp.name = "adam_tmp_" + spec.targetSignal;
      tmp.kind = SymKind::Variable;
      tmp.type = ts.type;
      const SymbolId tmpId = d.symbols.size();
      d.symbols.push_back(std::move(tmp));
      d.isRegister.push_back(false);

      bool sawRange = false;
      auto newBody = rewriteAssigns(
          d.processes[static_cast<std::size_t>(driver)].body,
          [&](const StmtPtr& s) -> StmtPtr {
            if (s->target != target) return s;
            if (s->kind == StmtKind::ArrayWrite) {
              throw std::invalid_argument("adam: array targets are unsupported");
            }
            if (s->hi >= 0) {
              sawRange = true;
              return s;
            }
            auto n = std::make_shared<Stmt>(*s);
            n->target = tmpId;
            return n;
          });
      if (sawRange) {
        throw std::invalid_argument("adam: target '" + spec.targetSignal +
                                    "' uses bit-range assignments (unsupported)");
      }
      d.processes[static_cast<std::size_t>(driver)].body = newBody;
      it = tmpOf.emplace(target, tmpId).first;
    }

    InjectedMutant im;
    im.id = nextId++;
    im.spec = spec;
    im.target = target;
    im.tmpVar = it->second;
    out.mutants.push_back(std::move(im));
  }
  return out;
}

}  // namespace xlv::mutation
