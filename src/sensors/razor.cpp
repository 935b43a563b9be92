#include "sensors/razor.h"

#include <map>
#include <mutex>

namespace xlv::sensors {

using namespace xlv::ir;

std::shared_ptr<const Module> buildRazor(int width) {
  // Campaign threads make their first calls concurrently; the lock spans
  // the build so every caller for one width gets the same instance.
  static std::mutex mutex;
  static std::map<int, std::shared_ptr<const Module>> cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(width);
  if (it != cache.end()) return it->second;

  ModuleBuilder mb("razor_w" + std::to_string(width));
  auto clk = mb.clock(RazorPorts::clk);
  auto d = mb.in(RazorPorts::d, width);
  auto r = mb.in(RazorPorts::recover, 1);
  auto q = mb.out(RazorPorts::q, width);
  auto e = mb.out(RazorPorts::error, 1);
  auto mainFf = mb.signal("main_ff", width);
  auto shadow = mb.signal("shadow", width);

  // Main flip-flop: samples D at the edge (post-edge phase = it sees on-time
  // commits, misses delayed ones). The recovery mux substitutes the shadow
  // value when an error was flagged and recovery is enabled.
  mb.onPostEdge("main_sample", clk, [&](ProcBuilder& p) {
    p.assign(mainFf, d);
    p.if_((Ex(r) & Ex(e)) == 1u,
          [&] { p.assign(q, shadow); },
          [&] { p.assign(q, d); });
  });

  // Shadow latch on the delayed (half-period) clock: samples at the falling
  // edge and compares with what the main FF captured.
  mb.onFalling("shadow_sample", clk, [&](ProcBuilder& p) {
    p.assign(shadow, d);
    p.assign(e, Ex(mainFf) != Ex(d));
  });

  auto m = mb.finish();
  cache[width] = m;
  return m;
}

double razorAreaGates(int width) {
  // Per bit: shadow latch (~4 NAND2), XOR compare (~3), recovery mux (~3),
  // plus the main FF which replaces the original one (net ~6.2).
  return width * (6.2 + 4.0 + 3.0 + 3.0) + 2.0;  // +2 for the E fan-in gate
}

}  // namespace xlv::sensors
