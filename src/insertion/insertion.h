// Automatic delay-sensor insertion (paper Section 4.2).
//
// Given an IP module and an STA report, one sensor is instantiated at the
// endpoint of every critical path, "by means of automatic modifications of
// the RTL model": new sensor instances are wired to the endpoint registers,
// and new top-level ports are added for the support clocks and the sensor
// outputs (METRIC_OK, MEAS_VAL) — exactly the transformation the paper
// describes.
//
// Endpoint selection: only scalar register endpoints receive sensors.
// Array endpoints (register files, memories) and combinational output-port
// endpoints are reported but skipped — in a synthesis flow those are handled
// by memory macros and output-constraint budgeting respectively.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/module.h"
#include "sensors/counter_monitor.h"
#include "sensors/razor.h"
#include "sta/sta.h"

namespace xlv::insertion {

enum class SensorKind { Razor, Counter };

/// The canonical lower-case kind name shared by campaign labels, prefix
/// cache keys and the wire codecs (one mapping — renames would otherwise
/// silently change spec fingerprints).
constexpr const char* sensorKindName(SensorKind k) noexcept {
  return k == SensorKind::Razor ? "razor" : "counter";
}
/// Every kind, for readers that find a kind by its name.
inline constexpr SensorKind kSensorKinds[] = {SensorKind::Razor, SensorKind::Counter};

/// The ports insertion adds to the augmented IP, named once: the analysis
/// and the flow drive `recovery` by this name.
struct AddedPorts {
  static constexpr const char* recovery = "recovery_en";  ///< Razor recovery enable (in)
  static constexpr const char* hfClock = "hclk";          ///< Counter HF clock, if the IP has none
  static constexpr const char* metricOk = "metric_ok";    ///< 1 = no sensor error (out)
  static constexpr const char* measVal = "meas_val";      ///< Counter measured delay (out)
};

struct InsertionConfig {
  SensorKind kind = SensorKind::Razor;
  /// Counter CPS extraction (the "intermediate variable used to extract
  /// single critical bits from a multi-bit signal" of Section 4.2):
  /// -1 (default) observes the register's parity (XOR-reduction, toggles on
  /// any odd-bit change); >= 0 observes that bit (clamped to the width).
  int monitoredBit = -1;
  sensors::CounterConfig counterCfg;
};

/// One inserted sensor and the names of its observable signals in the
/// augmented module (and, unchanged, in the elaborated design).
struct InsertedSensor {
  std::string endpointName;      ///< monitored register
  std::string instanceName;      ///< sensor instance
  std::string errorSignal;       ///< Razor: e_<i>;  Counter: "" (use outOk)
  std::string qSignal;           ///< Razor: corrected-output q_<i>
  std::string measValSignal;     ///< Counter: mv_<i>
  std::string outOkSignal;       ///< Counter: ok_<i>
  double endpointArrivalPs = 0;  ///< from the STA report (drives delta-mutant sizing)
};

struct InsertionResult {
  std::shared_ptr<ir::Module> augmented;
  std::vector<InsertedSensor> sensors;
  int skippedEndpoints = 0;       ///< critical endpoints not eligible for a sensor
  double sensorAreaGates = 0.0;   ///< added area estimate
};

/// Augment `ip` with one sensor per critical endpoint of `report`.
/// Throws std::invalid_argument when the module has no main clock or when a
/// Counter insertion cannot add a high-frequency clock port.
InsertionResult insertSensors(const ir::Module& ip, const sta::StaReport& report,
                              const InsertionConfig& cfg);

/// Deep-copy a module under a new name (symbols keep their ids; statement
/// trees are shared — they are immutable).
std::shared_ptr<ir::Module> cloneModule(const ir::Module& m, const std::string& newName);

}  // namespace xlv::insertion
