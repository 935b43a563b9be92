#include "insertion/insertion.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "ir/walk.h"
#include "util/log.h"

namespace xlv::insertion {

using namespace xlv::ir;

std::shared_ptr<Module> cloneModule(const Module& m, const std::string& newName) {
  auto out = std::make_shared<Module>(newName);
  for (const auto& s : m.symbols()) out->addSymbol(s);
  for (const auto& p : m.processes()) out->addProcess(p);
  for (const auto& i : m.instances()) out->addInstance(i);
  for (const auto& ai : m.arrayInits()) out->addArrayInit(ai);
  return out;
}

namespace {

Sig addSymbol(Module& m, const std::string& name, SymKind kind, Type t, PortDir dir,
              ClockRole role = ClockRole::None, std::uint64_t init = 0, bool hasInit = false) {
  if (m.findSymbol(name) != kNoSymbol) {
    throw std::invalid_argument("insertion: symbol '" + name + "' already exists in IP");
  }
  Symbol s;
  s.name = name;
  s.kind = kind;
  s.type = t;
  s.dir = dir;
  s.clock = role;
  s.initValue = init;
  s.hasInit = hasInit;
  const SymbolId id = m.addSymbol(std::move(s));
  return Sig{id, t};
}

SymbolId findMainClock(const Module& m) {
  for (std::size_t i = 0; i < m.symbols().size(); ++i) {
    if (m.symbols()[i].clock == ClockRole::Main) return static_cast<SymbolId>(i);
  }
  return kNoSymbol;
}

SymbolId findHfClock(const Module& m) {
  for (std::size_t i = 0; i < m.symbols().size(); ++i) {
    if (m.symbols()[i].clock == ClockRole::HighFreq) return static_cast<SymbolId>(i);
  }
  return kNoSymbol;
}

/// Registers of the module: symbols assigned by synchronous processes.
std::set<SymbolId> moduleRegisters(const Module& m) {
  std::set<SymbolId> regs;
  for (const auto& p : m.processes()) {
    if (!p.isSync) continue;
    collectWrites(*p.body, regs);
  }
  return regs;
}

/// A critical endpoint is sensor-eligible when it names a scalar register
/// of the top module (not an array, not a hierarchical child, not a
/// combinational output-port endpoint — those are budgeted through output
/// constraints in a synthesis flow, not monitored by FF-replacement sensors).
bool eligible(const Module& m, const std::set<SymbolId>& regs, const sta::PathRecord& path,
              std::string* why) {
  if (path.endpointName.find('.') != std::string::npos) {
    *why = "endpoint inside child instance";
    return false;
  }
  const SymbolId sym = m.findSymbol(path.endpointName);
  if (sym == kNoSymbol) {
    *why = "endpoint not found in module";
    return false;
  }
  const Symbol& s = m.symbol(sym);
  if (s.kind == SymKind::Array) {
    *why = "array endpoint (memory macro)";
    return false;
  }
  if (s.kind != SymKind::Signal) {
    *why = "endpoint is not a signal";
    return false;
  }
  if (regs.count(sym) == 0) {
    *why = "combinational endpoint (output port constraint)";
    return false;
  }
  return true;
}

}  // namespace

InsertionResult insertSensors(const ir::Module& ip, const sta::StaReport& report,
                              const InsertionConfig& cfg) {
  InsertionResult result;
  result.augmented = cloneModule(
      ip, ip.name() + (cfg.kind == SensorKind::Razor ? "_razor" : "_counter"));
  Module& m = *result.augmented;

  const SymbolId clk = findMainClock(m);
  if (clk == kNoSymbol) {
    throw std::invalid_argument("insertion: IP '" + ip.name() + "' has no main clock");
  }
  const Sig clkSig{clk, m.symbol(clk).type};

  // Support ports (Section 4.2: "new ports are also added to the top-level
  // IP model, for the connection of the support clocks and of the delay
  // sensor outputs").
  Sig recovery, hclkSig;
  if (cfg.kind == SensorKind::Razor) {
    recovery = addSymbol(m, AddedPorts::recovery, SymKind::Signal, Type{1, false}, PortDir::In);
  } else {
    const SymbolId existing = findHfClock(m);
    if (existing != kNoSymbol) {
      hclkSig = Sig{existing, m.symbol(existing).type};
    } else {
      hclkSig = addSymbol(m, AddedPorts::hfClock, SymKind::Signal, Type{1, false}, PortDir::In,
                          ClockRole::HighFreq);
    }
  }
  const Sig metricOk =
      addSymbol(m, AddedPorts::metricOk, SymKind::Signal, Type{1, false}, PortDir::Out);
  Sig measValPort;
  if (cfg.kind == SensorKind::Counter) {
    measValPort = addSymbol(m, AddedPorts::measVal, SymKind::Signal,
                            Type{cfg.counterCfg.measWidth, false}, PortDir::Out);
  }

  // One sensor per critical endpoint.
  std::vector<Ex> okTerms;     // per-sensor "no error" expressions
  std::vector<Ex> measTerms;   // per-sensor measurement values
  int idx = 0;
  const std::set<SymbolId> regs = moduleRegisters(m);
  for (const auto& path : report.criticalPaths()) {
    std::string why;
    if (!eligible(m, regs, path, &why)) {
      XLV_INFO("insertion") << "skipping endpoint '" << path.endpointName << "': " << why;
      ++result.skippedEndpoints;
      continue;
    }
    const SymbolId target = m.findSymbol(path.endpointName);
    const Type tt = m.symbol(target).type;
    const Sig targetSig{target, tt};
    const std::string suffix = std::to_string(idx);

    InsertedSensor info;
    info.endpointName = path.endpointName;
    info.endpointArrivalPs = path.arrivalPs;

    if (cfg.kind == SensorKind::Razor) {
      auto razor = sensors::buildRazor(tt.width);
      const Sig e = addSymbol(m, "rz_e_" + suffix, SymKind::Signal, Type{1, false}, PortDir::None);
      const Sig q = addSymbol(m, "rz_q_" + suffix, SymKind::Signal, tt, PortDir::None);
      Instance inst;
      inst.name = "razor" + suffix;
      inst.module = razor;
      inst.bindings = {
          {razor->findSymbol(sensors::RazorPorts::clk), clkSig.id},
          {razor->findSymbol(sensors::RazorPorts::d), targetSig.id},
          {razor->findSymbol(sensors::RazorPorts::recover), recovery.id},
          {razor->findSymbol(sensors::RazorPorts::q), q.id},
          {razor->findSymbol(sensors::RazorPorts::error), e.id},
      };
      m.addInstance(std::move(inst));
      okTerms.push_back(bnot(Ex(e)));
      info.instanceName = "razor" + suffix;
      info.errorSignal = "rz_e_" + suffix;
      info.qSignal = "rz_q_" + suffix;
      result.sensorAreaGates += sensors::razorAreaGates(tt.width);
    } else {
      // CPS selection: by default the full endpoint register is monitored
      // (every value change observable — a 1-bit condensation cannot
      // distinguish all transitions); with monitoredBit >= 0, one critical
      // bit is extracted through an intermediate variable, the literal
      // Section 4.2 description.
      SymbolId cpsSym = targetSig.id;
      sensors::CounterConfig ccfg = cfg.counterCfg;
      ccfg.cpsWidth = tt.width;
      if (cfg.monitoredBit >= 0) {
        const int bit = std::min(cfg.monitoredBit, tt.width - 1);
        ccfg.cpsWidth = 1;
        const Sig mon =
            addSymbol(m, "cps_" + suffix, SymKind::Signal, Type{1, false}, PortDir::None);
        Process p;
        p.name = "cps_extract_" + suffix;
        p.isSync = false;
        p.body = makeBlock(
            {makeAssign(mon.id, makeSlice(makeRef(targetSig.id, tt), bit, bit))});
        p.sensitivity = deriveSensitivity(*p.body);
        m.addProcess(std::move(p));
        cpsSym = mon.id;
      }
      auto ctr = sensors::buildCounterMonitor(ccfg);
      const Sig mv = addSymbol(m, "mv_" + suffix, SymKind::Signal,
                               Type{cfg.counterCfg.measWidth, false}, PortDir::None);
      const Sig ok = addSymbol(m, "ok_" + suffix, SymKind::Signal, Type{1, false}, PortDir::None);
      Instance inst;
      inst.name = "ctr" + suffix;
      inst.module = ctr;
      inst.bindings = {
          {ctr->findSymbol(sensors::CounterPorts::clk), clkSig.id},
          {ctr->findSymbol(sensors::CounterPorts::hclk), hclkSig.id},
          {ctr->findSymbol(sensors::CounterPorts::cps), cpsSym},
          {ctr->findSymbol(sensors::CounterPorts::measVal), mv.id},
          {ctr->findSymbol(sensors::CounterPorts::outOk), ok.id},
      };
      m.addInstance(std::move(inst));
      okTerms.push_back(Ex(ok));
      measTerms.push_back(Ex(mv));
      info.instanceName = "ctr" + suffix;
      info.measValSignal = "mv_" + suffix;
      info.outOkSignal = "ok_" + suffix;
      result.sensorAreaGates += sensors::counterAreaGates(ccfg);
    }
    result.sensors.push_back(std::move(info));
    ++idx;
  }

  // METRIC_OK aggregation: all sensors content.
  {
    Ex all = okTerms.empty() ? lit(1, 1) : okTerms.front();
    for (std::size_t i = 1; i < okTerms.size(); ++i) all = all & okTerms[i];
    Process p;
    p.name = "metric_ok_p";
    p.isSync = false;
    p.body = makeBlock({makeAssign(metricOk.id, all.ptr())});
    p.sensitivity = deriveSensitivity(*p.body);
    m.addProcess(std::move(p));
  }
  // MEAS_VAL aggregation for Counter insertions (only one sensor measures a
  // nonzero delay per activated mutant, so an OR-tree is exact in analysis
  // use and conservative otherwise).
  if (cfg.kind == SensorKind::Counter) {
    Ex any = measTerms.empty() ? lit(cfg.counterCfg.measWidth, 0) : measTerms.front();
    for (std::size_t i = 1; i < measTerms.size(); ++i) any = any | measTerms[i];
    Process p;
    p.name = "meas_val_p";
    p.isSync = false;
    p.body = makeBlock({makeAssign(measValPort.id, any.ptr())});
    p.sensitivity = deriveSensitivity(*p.body);
    m.addProcess(std::move(p));
  }

  return result;
}

}  // namespace xlv::insertion
