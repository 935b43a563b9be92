// Abstraction tool facade: RTL IR -> executable TLM model + generated code.
//
// Mirrors the role of the RTL-to-TLM abstraction tools of the paper
// (HIFSuite [21], [12], [13]): given an elaborated design it produces
//   (a) an executable TlmIpModel (tlm_model.h), and
//   (b) SystemC-TLM-style C++ source text (emit_cpp.h) whose line count is
//       the "Abstracted TLM (loc)" metric of Table 3.
// The data-type optimization switch (HDTLib, Section 5.3) selects the
// 2-state value policy measured by Table 4.
//
// TlmIpTarget wraps the model behind a TLM-2.0 target socket: each
// b_transport-triggered cycle batch maps one scheduler() call per clock
// cycle, with a small memory-mapped register file for port access.
#pragma once

#include <memory>
#include <string>

#include "abstraction/emit_cpp.h"
#include "abstraction/tlm_model.h"
#include "tlm/socket.h"

namespace xlv::abstraction {

struct AbstractionOptions {
  int hfRatio = 0;             ///< >0 selects the dual-clock scheduler (Fig. 8b)
};

struct AbstractionArtifacts {
  std::string source;          ///< generated SystemC-TLM-style C++
  int sourceLines = 0;
  double abstractionSeconds = 0.0;
};

/// Run the abstraction step on a clean design.
AbstractionArtifacts abstractDesign(const ir::Design& design, const AbstractionOptions& opts);

/// Run the abstraction step on an ADAM-injected design (Table 5's
/// "Injected TLM (loc)").
AbstractionArtifacts abstractInjected(const mutation::InjectedDesign& injected,
                                      const AbstractionOptions& opts);

/// Memory map of TlmIpTarget.
struct TlmIpMap {
  static constexpr std::uint64_t kCtrl = 0x00;       ///< write n: run n cycles
  static constexpr std::uint64_t kCycleCount = 0x04; ///< read: executed cycles
  static constexpr std::uint64_t kInputBase = 0x100; ///< +4*i: i-th input port
  static constexpr std::uint64_t kOutputBase = 0x200;///< +4*i: i-th output port
};

/// TLM-2.0 target exposing a TlmIpModel: write input registers, trigger a
/// batch of cycles through CTRL, read output registers. Each triggered cycle
/// is one scheduler() invocation — one transaction per RTL clock cycle.
/// Implements both the loosely-timed (b_transport) and approximately-timed
/// (nb_transport, base-protocol early completion) interfaces plus the debug
/// transport — the protocol set of paper Section 2.4.
template <class P>
class TlmIpTarget : public tlm::BTransportIf, public tlm::NbTransportFwIf, public tlm::DebugIf {
 public:
  TlmIpTarget(TlmIpModel<P>& model, tlm::Time cycleLatency)
      : model_(model), cycleLatency_(cycleLatency) {
    socket_.registerBTransport(this);
    socket_.registerNbFw(this);
    socket_.registerDebug(this);
  }

  tlm::TargetSocket& socket() noexcept { return socket_; }

  std::uint64_t inputAddress(int i) const noexcept {
    return TlmIpMap::kInputBase + 4ull * static_cast<std::uint64_t>(i);
  }
  std::uint64_t outputAddress(int i) const noexcept {
    return TlmIpMap::kOutputBase + 4ull * static_cast<std::uint64_t>(i);
  }

  void b_transport(tlm::GenericPayload& trans, tlm::Time& delay) override {
    access(trans, &delay);
  }

  tlm::SyncEnum nb_transport_fw(tlm::GenericPayload& trans, tlm::Phase& phase,
                                tlm::Time& t) override {
    if (phase != tlm::Phase::BeginReq) {
      trans.response = tlm::Response::GenericError;
      return tlm::SyncEnum::Completed;
    }
    access(trans, &t);
    phase = tlm::Phase::BeginResp;
    return tlm::SyncEnum::Completed;  // AT base-protocol early completion
  }

  std::size_t transport_dbg(tlm::GenericPayload& trans) override {
    access(trans, nullptr);
    return trans.data.size();
  }

 private:
  void access(tlm::GenericPayload& trans, tlm::Time* delay) {
    const auto& d = model_.design();
    const std::uint64_t a = trans.address;
    if (trans.command == tlm::Command::Write) {
      const std::uint32_t w = trans.dataWord();
      if (a == TlmIpMap::kCtrl) {
        for (std::uint32_t i = 0; i < w; ++i) model_.scheduler();
        if (delay != nullptr) *delay += tlm::Time(cycleLatency_.ps() * w);
      } else if (a >= TlmIpMap::kInputBase && a < TlmIpMap::kOutputBase) {
        const std::size_t idx = (a - TlmIpMap::kInputBase) / 4;
        if (idx >= d.inputs.size()) {
          trans.response = tlm::Response::AddressError;
          return;
        }
        model_.setInput(d.inputs[idx], w);
      } else {
        trans.response = tlm::Response::AddressError;
        return;
      }
      trans.response = tlm::Response::Ok;
    } else if (trans.command == tlm::Command::Read) {
      std::uint32_t w = 0;
      if (a == TlmIpMap::kCycleCount) {
        w = static_cast<std::uint32_t>(model_.cycle());
      } else if (a >= TlmIpMap::kOutputBase) {
        const std::size_t idx = (a - TlmIpMap::kOutputBase) / 4;
        if (idx >= d.outputs.size()) {
          trans.response = tlm::Response::AddressError;
          return;
        }
        w = static_cast<std::uint32_t>(model_.valueUint(d.outputs[idx]));
      } else {
        trans.response = tlm::Response::AddressError;
        return;
      }
      trans.data.assign(4, 0);
      for (int i = 0; i < 4; ++i) trans.data[static_cast<std::size_t>(i)] = (w >> (8 * i)) & 0xFF;
      trans.response = tlm::Response::Ok;
    } else {
      trans.response = tlm::Response::Ok;  // TLM ignore command
    }
  }

  tlm::TargetSocket socket_;
  TlmIpModel<P>& model_;
  tlm::Time cycleLatency_;
};

}  // namespace xlv::abstraction
