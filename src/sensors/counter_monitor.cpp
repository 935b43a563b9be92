#include "sensors/counter_monitor.h"

#include <map>
#include <mutex>
#include <tuple>

namespace xlv::sensors {

using namespace xlv::ir;

std::shared_ptr<const Module> buildCounterMonitor(const CounterConfig& cfg) {
  // Campaign threads make their first calls concurrently; the lock spans
  // the build so every caller for one config gets the same instance.
  static std::mutex mutex;
  static std::map<std::tuple<int, int, int>, std::shared_ptr<const Module>> cache;
  std::lock_guard<std::mutex> lock(mutex);
  const auto key = std::make_tuple(cfg.measWidth, cfg.threshold, cfg.cpsWidth);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  const int w = cfg.measWidth;
  ModuleBuilder mb("counter_mon_w" + std::to_string(w) + "_t" + std::to_string(cfg.threshold) +
                   "_c" + std::to_string(cfg.cpsWidth));
  auto clk = mb.clock(CounterPorts::clk);
  auto hclk = mb.clock(CounterPorts::hclk, ClockRole::HighFreq);
  auto cps = mb.in(CounterPorts::cps, cfg.cpsWidth);
  auto measVal = mb.out(CounterPorts::measVal, w);
  auto outOk = mb.out(CounterPorts::outOk, 1);

  // Main-clock domain: snapshot the on-time value of the monitored path
  // signal at the edge and hand a token to the HF domain to (re)arm the
  // measurement. Single driver per signal throughout — the cross-domain
  // handshake is a classic toggle token.
  auto cpsRef = mb.signal("cps_ref", cfg.cpsWidth);
  auto armTok = mb.signal("arm_tok", 1);
  mb.onPostEdge("arm", clk, [&](ProcBuilder& p) {
    p.assign(cpsRef, cps);
    p.assign(armTok, ~Ex(armTok));
  });

  // HF-clock domain: the counter enumerates HF periods inside the
  // observability window (clock high, edge to falling edge); the capture
  // register records the count of the last CPS transition — the R1/R2
  // rising/falling capture pair of the paper collapses to one register
  // because the last transition wins either way.
  auto cnt = mb.signal("cnt", w);
  auto meas = mb.signal("meas", w);
  auto seenTok = mb.signal("seen_tok", 1);
  auto cpsSeen = mb.signal("cps_seen", cfg.cpsWidth);
  mb.onRising("count", hclk, [&](ProcBuilder& p) {
    p.if_(
        Ex(seenTok) != Ex(armTok),
        [&] {
          // First HF tick of a new window.
          p.assign(seenTok, armTok);
          p.assign(cnt, lit(w, 1));
          p.if_(
              Ex(cps) != Ex(cpsRef),
              [&] {
                p.assign(meas, lit(w, 1));
                p.assign(cpsSeen, cps);
              },
              [&] {
                p.assign(meas, lit(w, 0));
                p.assign(cpsSeen, cpsRef);
              });
        },
        [&] {
          // Inside the window while the main clock is high.
          p.if_(Ex(clk) == 1u, [&] {
            p.assign(cnt, Ex(cnt) + 1u);
            p.if_(Ex(cps) != Ex(cpsSeen), [&] {
              p.assign(meas, Ex(cnt) + 1u);
              p.assign(cpsSeen, cps);
            });
          });
        });
  });

  // LUT_OUT: design-time threshold (paper: reference values in a monitor
  // look-up table; Section 8.5 uses 8 HF periods).
  auto lutOut = mb.signalInit("lut_out", w, static_cast<std::uint64_t>(cfg.threshold));

  // Window closes at the falling edge: publish measurement and comparison.
  mb.onFalling("output", clk, [&](ProcBuilder& p) {
    p.assign(measVal, meas);
    p.assign(outOk, sel(Ex(meas) <= Ex(lutOut), lit(1, 1), lit(1, 0)));
  });

  auto m = mb.finish();
  cache[key] = m;
  return m;
}

double counterAreaGates(const CounterConfig& cfg) {
  const double w = cfg.measWidth;
  // counter (w FFs + increment) + capture/reference registers + transition
  // comparator (per monitored bit) + threshold compare + control.
  return 6.2 * (3 * w + 3) + 7.0 * w + 3.0 * w + 12.0 + 10.0 * cfg.cpsWidth;
}

}  // namespace xlv::sensors
