#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace xlv::e2e {

namespace {

double steadyUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int threadNumber() {
  static std::atomic<int> next{1};
  thread_local const int mine = next.fetch_add(1);
  return mine;
}

struct OpenSpan {
  const Tracer* tracer;
  std::uint64_t id;
  std::uint64_t traceId;
  std::size_t index;
};

std::vector<OpenSpan>& openStack() {
  thread_local std::vector<OpenSpan> stack;
  return stack;
}

const OpenSpan* innermost(const Tracer* tracer) {
  auto& stack = openStack();
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (it->tracer == tracer) return &*it;
  }
  return nullptr;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

Tracer::Tracer() : epochUs_(steadyUs()) {}

double Tracer::nowUs() const { return steadyUs() - epochUs_; }

std::uint64_t Tracer::begin(const std::string& name, std::uint64_t traceId) {
  const OpenSpan* parent = innermost(this);
  SpanRecord rec;
  rec.name = name;
  rec.parent = parent != nullptr ? parent->id : 0;
  rec.traceId = traceId != 0 ? traceId : (parent != nullptr ? parent->traceId : 0);
  rec.tid = threadNumber();
  std::size_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rec.id = nextId_++;
    rec.startUs = nowUs();
    index = spans_.size();
    spans_.push_back(rec);
  }
  openStack().push_back(OpenSpan{this, rec.id, rec.traceId, index});
  return rec.id;
}

void Tracer::end(std::uint64_t id) {
  auto& stack = openStack();
  auto it = std::find_if(stack.rbegin(), stack.rend(),
                         [&](const OpenSpan& o) { return o.tracer == this; });
  if (it == stack.rend() || it->id != id) {
    throw std::logic_error("tracer: span closed out of order");
  }
  const std::size_t index = it->index;
  stack.erase(std::next(it).base());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[index].endUs = nowUs();
}

void Tracer::record(const std::string& name, std::uint64_t traceId, double startUs,
                    double endUs) {
  const OpenSpan* parent = innermost(this);
  SpanRecord rec;
  rec.name = name;
  rec.parent = parent != nullptr ? parent->id : 0;
  rec.traceId = traceId;
  rec.tid = threadNumber();
  rec.startUs = startUs;
  rec.endUs = endUs;
  std::lock_guard<std::mutex> lock(mutex_);
  rec.id = nextId_++;
  spans_.push_back(rec);
}

void Tracer::add(const std::string& counter, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_[counter] += value;
}

double Tracer::counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

double Tracer::busySeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double us = 0.0;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) us += s.endUs - s.startUs;
  }
  return us * 1e-6;
}

std::map<std::string, double> Tracer::selfSeconds() const { return computeSelfSeconds(spans()); }

std::map<std::string, double> computeSelfSeconds(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.startUs, s.endUs);
  }
  std::map<std::string, double> self;
  for (const SpanRecord& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent: children
      // on other threads may overlap each other.
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double curLo = 0.0, curHi = -1.0;
      for (const auto& [lo0, hi0] : iv) {
        const double lo = std::max(lo0, s.startUs), hi = std::min(hi0, s.endUs);
        if (hi <= lo) continue;
        if (lo > curHi) {
          if (curHi > curLo) covered += curHi - curLo;
          curLo = lo;
          curHi = hi;
        } else {
          curHi = std::max(curHi, hi);
        }
      }
      if (curHi > curLo) covered += curHi - curLo;
    }
    self[s.name] += (s.endUs - s.startUs - covered) * 1e-6;
  }
  return self;
}

bool Tracer::writeChromeTrace(const std::string& path, std::string* error) const {
  const std::vector<SpanRecord> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open '" + path + "' for writing";
    return false;
  }
  bool ok = std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f) >= 0;
  for (std::size_t i = 0; i < all.size() && ok; ++i) {
    const SpanRecord& s = all[i];
    ok = std::fprintf(f,
                      "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                      "\"dur\": %.3f, \"pid\": 1, \"tid\": %d, \"args\": {\"span\": %llu, "
                      "\"parent\": %llu, \"trace_id\": %llu}}%s\n",
                      jsonEscape(s.name).c_str(),
                      jsonEscape(s.name.substr(0, s.name.find('.'))).c_str(), s.startUs,
                      s.endUs - s.startUs, s.tid, static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.traceId),
                      i + 1 < all.size() ? "," : "") > 0;
  }
  ok = ok && std::fputs("]}\n", f) >= 0;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok && error != nullptr) *error = "short write to '" + path + "'";
  return ok;
}

}  // namespace xlv::e2e
