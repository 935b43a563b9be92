#include "util/bench_compare.h"

#include <cctype>
#include <cstdlib>
#include <stdexcept>

namespace xlv::util {

const double* BenchReport::find(std::string_view name) const noexcept {
  for (const auto& [k, v] : metrics) {
    if (k == name) return &v;
  }
  return nullptr;
}

namespace {

/// Scan past whitespace from `pos`.
std::size_t skipWs(std::string_view s, std::size_t pos) {
  while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos]))) ++pos;
  return pos;
}

/// Parse the double-quoted string starting at s[pos] == '"'; returns the
/// content and advances pos past the closing quote. The bench writer never
/// emits escapes inside names, so none are interpreted.
std::string quoted(std::string_view s, std::size_t& pos) {
  if (pos >= s.size() || s[pos] != '"') {
    throw std::invalid_argument("bench json: expected '\"' at offset " +
                                std::to_string(pos));
  }
  const std::size_t end = s.find('"', pos + 1);
  if (end == std::string_view::npos) {
    throw std::invalid_argument("bench json: unterminated string");
  }
  std::string out(s.substr(pos + 1, end - pos - 1));
  pos = end + 1;
  return out;
}

}  // namespace

BenchReport parseBenchJson(std::string_view text) {
  // A purpose-built reader for the exact shape writeBenchJson() emits (one
  // "bench" string, one flat "metrics" object of numbers) — not a general
  // JSON parser. Anything else in the file is a corrupt artifact and
  // throws, so the ratchet fails loudly instead of comparing garbage.
  BenchReport report;
  std::size_t pos = text.find("\"bench\"");
  if (pos == std::string_view::npos) {
    throw std::invalid_argument("bench json: no \"bench\" key");
  }
  pos = skipWs(text, pos + 7);
  if (pos >= text.size() || text[pos] != ':') {
    throw std::invalid_argument("bench json: \"bench\" not followed by ':'");
  }
  pos = skipWs(text, pos + 1);
  report.bench = quoted(text, pos);

  pos = text.find("\"metrics\"", pos);
  if (pos == std::string_view::npos) {
    throw std::invalid_argument("bench json: no \"metrics\" key");
  }
  pos = text.find('{', pos);
  if (pos == std::string_view::npos) {
    throw std::invalid_argument("bench json: \"metrics\" has no object");
  }
  ++pos;
  for (;;) {
    pos = skipWs(text, pos);
    if (pos >= text.size()) throw std::invalid_argument("bench json: unterminated metrics");
    if (text[pos] == '}') break;
    if (text[pos] == ',') {
      ++pos;
      continue;
    }
    const std::string name = quoted(text, pos);
    pos = skipWs(text, pos);
    if (pos >= text.size() || text[pos] != ':') {
      throw std::invalid_argument("bench json: metric '" + name + "' has no ':'");
    }
    pos = skipWs(text, pos + 1);
    const char* begin = text.data() + pos;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) {
      throw std::invalid_argument("bench json: metric '" + name + "' has no number");
    }
    pos += static_cast<std::size_t>(end - begin);
    report.metrics.emplace_back(name, v);
  }
  return report;
}

MetricDirection metricDirection(std::string_view name) noexcept {
  auto endsWith = [&](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.substr(name.size() - suffix.size()) == suffix;
  };
  auto contains = [&](std::string_view needle) {
    return name.find(needle) != std::string_view::npos;
  };
  if (endsWith("_ok") || endsWith("_available")) return MetricDirection::Exact;
  if (contains("speedup") || contains("reduction")) return MetricDirection::HigherIsBetter;
  if (name.starts_with("cycles_simulated") || name.starts_with("cosimulations") ||
      name.starts_with("native_source_bytes")) {
    return MetricDirection::LowerIsBetter;
  }
  return MetricDirection::Informational;
}

const char* metricDirectionName(MetricDirection d) noexcept {
  switch (d) {
    case MetricDirection::Exact: return "exact";
    case MetricDirection::HigherIsBetter: return "higher";
    case MetricDirection::LowerIsBetter: return "lower";
    case MetricDirection::Informational: break;
  }
  return "info";
}

BenchComparison compareBenchReports(const BenchReport& baseline,
                                    const BenchReport& current, double tolerance) {
  if (baseline.bench != current.bench) {
    throw std::invalid_argument("bench compare: baseline is '" + baseline.bench +
                                "', current is '" + current.bench + "'");
  }
  if (tolerance < 0.0) throw std::invalid_argument("bench compare: negative tolerance");
  BenchComparison cmp;
  cmp.bench = baseline.bench;
  for (const auto& [name, base] : baseline.metrics) {
    MetricComparison row;
    row.name = name;
    row.direction = metricDirection(name);
    row.baseline = base;
    const double* cur = current.find(name);
    if (cur == nullptr) {
      // A metric that vanished must not silently drop out of the ratchet.
      row.missing = true;
      row.regressed = true;
    } else {
      row.current = *cur;
      switch (row.direction) {
        case MetricDirection::Exact:
          row.regressed = *cur < base;
          break;
        case MetricDirection::HigherIsBetter:
          row.regressed = *cur < base * (1.0 - tolerance);
          break;
        case MetricDirection::LowerIsBetter:
          row.regressed = *cur > base * (1.0 + tolerance);
          break;
        case MetricDirection::Informational:
          break;
      }
    }
    cmp.ok = cmp.ok && !row.regressed;
    cmp.rows.push_back(std::move(row));
  }
  for (const auto& [name, value] : current.metrics) {
    if (baseline.find(name) != nullptr) continue;
    MetricComparison row;
    row.name = name;
    row.direction = metricDirection(name);
    row.current = value;
    row.currentOnly = true;
    cmp.rows.push_back(std::move(row));
  }
  return cmp;
}

std::string BenchComparison::render() const {
  std::string out = "bench '" + bench + "': " + (ok ? "ok" : "REGRESSED") + "\n";
  char buf[256];
  for (const auto& r : rows) {
    if (r.missing) {
      std::snprintf(buf, sizeof(buf), "  %-34s %-6s baseline %.4g -> MISSING  REGRESSION\n",
                    r.name.c_str(), metricDirectionName(r.direction), r.baseline);
    } else if (r.currentOnly) {
      std::snprintf(buf, sizeof(buf), "  %-34s %-6s (new) %.4g\n", r.name.c_str(),
                    metricDirectionName(r.direction), r.current);
    } else {
      std::snprintf(buf, sizeof(buf), "  %-34s %-6s baseline %.4g -> %.4g%s\n",
                    r.name.c_str(), metricDirectionName(r.direction), r.baseline, r.current,
                    r.regressed ? "  REGRESSION" : "");
    }
    out += buf;
  }
  return out;
}

}  // namespace xlv::util
