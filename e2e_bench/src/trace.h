// In-memory span tracer of the benchmark's traced run.
//
// The benchmark records a span around each of its own calls into a layer's
// public functions: name, start, end, the enclosing span (parent) and one
// trace id per campaign item or served campaign. Spans stay in memory and
// are written once, at exit, as Chrome trace-event JSON (opens in Perfetto
// or chrome://tracing). Counters recorded at the same boundaries sit next
// to the spans, so ratios are measured where the work happens.
//
// A null Tracer* turns every Span into a no-op: the timed (untraced) run
// shares the code path and pays one branch per boundary.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace xlv::e2e {

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t traceId = 0;  ///< campaign item / served campaign
  double startUs = 0.0;       ///< since the tracer's epoch
  double endUs = 0.0;
  int tid = 0;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Open a span on the calling thread; its parent is the innermost open
  /// span of this tracer on the same thread. traceId 0 inherits the
  /// parent's. Returns the span id for end().
  std::uint64_t begin(const std::string& name, std::uint64_t traceId);
  /// Close the innermost open span of the calling thread (must be `id`).
  void end(std::uint64_t id);
  /// Record a complete span measured elsewhere (e.g. from timestamps a
  /// client observed), parented to the calling thread's innermost span.
  void record(const std::string& name, std::uint64_t traceId, double startUs, double endUs);
  double nowUs() const;

  /// Add to a named counter.
  void add(const std::string& counter, double value);
  double counter(const std::string& name) const;

  std::vector<SpanRecord> spans() const;
  /// Summed duration of every span with this name, in seconds.
  double busySeconds(const std::string& name) const;
  /// Per span name: summed duration minus the part of each span's interval
  /// its direct children cover, in seconds.
  std::map<std::string, double> selfSeconds() const;

  /// Write the Chrome trace-event JSON; false (with *error set) when the
  /// file cannot be written completely.
  bool writeChromeTrace(const std::string& path, std::string* error) const;

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::map<std::string, double> counters_;
  std::uint64_t nextId_ = 1;
  double epochUs_ = 0.0;
};

/// RAII span; a no-op when the tracer is null.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t traceId = 0)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name, traceId) : 0) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::uint64_t id_;
};

/// Self time of each span: duration minus the union of its direct
/// children's intervals (exposed for the unit tests).
std::map<std::string, double> computeSelfSeconds(const std::vector<SpanRecord>& spans);

}  // namespace xlv::e2e
