#include "util/fault_point.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/prng.h"

namespace xlv::util {
namespace {

enum class ClauseAction { Fail, Short, Delay };

struct Clause {
  std::string point;
  ClauseAction action = ClauseAction::Fail;
  double probability = 1.0;
  std::uint64_t seed = 0;
  std::uint64_t delayMs = 0;
  std::uint64_t maxTimes = 0;  // 0 = unlimited
  std::uint64_t fired = 0;
  Prng rng;
};

struct Registry {
  std::mutex mu;
  std::vector<Clause> clauses;
};

Registry& registry() {
  static Registry r;
  return r;
}

// Registry state: written only under the registry mutex, read without it,
// so an unarmed faultPoint() never locks. It leaves kUnparsed only on a
// successful parse: after a malformed XLV_FAULTS every call parses again
// and throws again.
enum RegistryState : int { kUnparsed, kDisarmed, kArmed };
std::atomic<int> gState{kUnparsed};

const char* const kKnownPoints[] = {"store.write", "frame.write", "worker.spawn",
                                    "server.accept"};

bool knownPoint(std::string_view p) {
  for (const char* k : kKnownPoints) {
    if (p == k) return true;
  }
  return false;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::uint64_t parseU64(std::string_view v, std::string_view clause) {
  if (v.empty()) throw FaultConfigError("XLV_FAULTS: empty integer in '" + std::string(clause) + "'");
  std::uint64_t out = 0;
  for (const char c : v) {
    if (c < '0' || c > '9') {
      throw FaultConfigError("XLV_FAULTS: bad integer '" + std::string(v) + "' in '" +
                             std::string(clause) + "'");
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (out > (UINT64_MAX - digit) / 10) {
      throw FaultConfigError("XLV_FAULTS: integer overflow in '" + std::string(clause) + "'");
    }
    out = out * 10 + digit;
  }
  return out;
}

double parseProbability(std::string_view v, std::string_view clause) {
  if (v.empty()) throw FaultConfigError("XLV_FAULTS: empty probability in '" + std::string(clause) + "'");
  const std::string s(v);
  char* end = nullptr;
  const double p = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || !(p >= 0.0) || !(p <= 1.0)) {
    throw FaultConfigError("XLV_FAULTS: probability must be in [0,1], got '" + s + "' in '" +
                           std::string(clause) + "'");
  }
  return p;
}

Clause parseClause(std::string_view text) {
  const std::vector<std::string_view> fields = split(text, ':');
  if (fields.size() < 2) {
    throw FaultConfigError("XLV_FAULTS: clause '" + std::string(text) +
                           "' needs <point>:<action>");
  }
  Clause c;
  c.point = std::string(fields[0]);
  if (!knownPoint(c.point)) {
    throw FaultConfigError("XLV_FAULTS: unknown fault point '" + c.point + "'");
  }
  const std::string_view action = fields[1];
  if (action == "fail") {
    c.action = ClauseAction::Fail;
  } else if (action == "short") {
    c.action = ClauseAction::Short;
  } else if (action == "delay") {
    c.action = ClauseAction::Delay;
  } else {
    throw FaultConfigError("XLV_FAULTS: unknown action '" + std::string(action) + "' in '" +
                           std::string(text) + "' (want fail|short|delay)");
  }
  bool sawMs = false;
  for (std::size_t i = 2; i < fields.size(); ++i) {
    const std::string_view field = fields[i];
    const std::size_t eq = field.find('=');
    if (eq == std::string_view::npos) {
      throw FaultConfigError("XLV_FAULTS: expected key=value, got '" + std::string(field) +
                             "' in '" + std::string(text) + "'");
    }
    const std::string_view key = field.substr(0, eq);
    const std::string_view value = field.substr(eq + 1);
    if (key == "p") {
      c.probability = parseProbability(value, text);
    } else if (key == "seed") {
      c.seed = parseU64(value, text);
    } else if (key == "ms") {
      c.delayMs = parseU64(value, text);
      sawMs = true;
    } else if (key == "times") {
      c.maxTimes = parseU64(value, text);
    } else {
      throw FaultConfigError("XLV_FAULTS: unknown key '" + std::string(key) + "' in '" +
                             std::string(text) + "'");
    }
  }
  if (c.action == ClauseAction::Delay && !sawMs) {
    throw FaultConfigError("XLV_FAULTS: delay clause '" + std::string(text) +
                           "' requires ms=<milliseconds>");
  }
  if (c.action != ClauseAction::Delay && sawMs) {
    throw FaultConfigError("XLV_FAULTS: ms= only applies to delay, in '" + std::string(text) +
                           "'");
  }
  c.rng.reseed(c.seed);
  return c;
}

/// Parse XLV_FAULTS into `r`; the caller holds r.mu. A throw leaves the
/// registry empty and kUnparsed.
void parseIntoRegistry(Registry& r) {
  r.clauses.clear();
  gState.store(kUnparsed, std::memory_order_relaxed);
  const char* env = std::getenv("XLV_FAULTS");
  if (env != nullptr && *env != '\0') {
    std::vector<Clause> clauses;
    for (const std::string_view text : split(env, ',')) {
      if (text.empty()) {
        throw FaultConfigError("XLV_FAULTS: empty clause in spec");
      }
      clauses.push_back(parseClause(text));
    }
    r.clauses = std::move(clauses);
  }
  gState.store(r.clauses.empty() ? kDisarmed : kArmed, std::memory_order_relaxed);
}

void ensureParsed() {
  if (gState.load(std::memory_order_relaxed) != kUnparsed) return;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (gState.load(std::memory_order_relaxed) == kUnparsed) parseIntoRegistry(r);
}

bool armed() { return gState.load(std::memory_order_relaxed) == kArmed; }

}  // namespace

void initFaultPointsFromEnv() { ensureParsed(); }

void reloadFaultPointsFromEnv() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  parseIntoRegistry(r);
}

bool faultPointsArmed() {
  ensureParsed();
  return armed();
}

FaultAction faultPoint(std::string_view point) {
  if (!armed()) {
    ensureParsed();
    if (!armed()) return FaultAction::None;
  }
  std::uint64_t sleepMs = 0;
  FaultAction result = FaultAction::None;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (Clause& c : r.clauses) {
      if (c.point != point) continue;
      if (c.maxTimes != 0 && c.fired >= c.maxTimes) continue;
      if (!c.rng.chance(c.probability)) continue;
      ++c.fired;
      if (c.action == ClauseAction::Delay) {
        sleepMs += c.delayMs;
      } else if (result == FaultAction::None) {
        result = c.action == ClauseAction::Fail ? FaultAction::Fail : FaultAction::Short;
      }
    }
  }
  if (sleepMs != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleepMs));
  }
  return result;
}

std::uint64_t faultPointFireCount(std::string_view point) {
  ensureParsed();
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::uint64_t total = 0;
  for (const Clause& c : r.clauses) {
    if (c.point == point) total += c.fired;
  }
  return total;
}

}  // namespace xlv::util
