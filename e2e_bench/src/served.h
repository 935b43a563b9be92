// The served_mix workload's pieces: the daemon process, the closed-loop
// client's frame-level submit, and a process-tree RSS sampler.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "campaign/campaign.h"
#include "trace.h"
#include "util/subprocess.h"

namespace xlv::e2e {

/// One `xlv_campaignd serve` process on a Unix-domain socket. The
/// destructor SIGKILLs and reaps a daemon that was not stopped.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socketPath, int workers,
         const std::string& ledgerPath);
  /// Block until the socket accepts connections; throws std::runtime_error
  /// when the daemon exits first or `timeoutSeconds` pass.
  void waitListening(double timeoutSeconds);
  /// SIGTERM (drain) and reap; returns the exit code (-1 on a signal death).
  int stop();
  pid_t pid() const noexcept { return proc_.pid(); }

 private:
  util::Subprocess proc_;
  std::string socketPath_;
};

/// Client-observed phases of one served campaign, in milliseconds from the
/// submit write.
struct SubmitTiming {
  double acceptMs = 0.0;     ///< AcceptFrame arrival
  double firstItemMs = 0.0;  ///< first ItemResultFrame arrival
  double doneMs = 0.0;       ///< CampaignDoneFrame arrival
};

/// Frame-level submit over the public frame codec (the traced client):
/// the same protocol as campaign::submitCampaign without retries, plus the
/// arrival time of each frame. Spans (under `tracer`, trace id `traceId`):
/// serve.submit > codec.encode, serve.admit, serve.first_item,
/// serve.stream, codec.decode (per frame), campaign.merge.
/// Returns false with *error set on any transport, protocol or campaign
/// failure; on success *result is the merged result.
bool tracedSubmit(const campaign::CampaignSpec& spec, const std::string& socketPath,
                  Tracer& tracer, std::uint64_t traceId, campaign::CampaignResult* result,
                  SubmitTiming* timing, std::string* error);

/// Samples the summed resident set of this process plus one child process
/// and that child's own children, every 20 ms, until stopped.
class TreeRssSampler {
 public:
  explicit TreeRssSampler(pid_t child);
  ~TreeRssSampler();
  TreeRssSampler(const TreeRssSampler&) = delete;
  TreeRssSampler& operator=(const TreeRssSampler&) = delete;
  /// Highest summed RSS seen, in KiB.
  long peakKb() const noexcept { return peakKb_.load(); }

 private:
  void loop();
  pid_t child_;
  std::atomic<bool> stop_{false};
  std::atomic<long> peakKb_{0};
  std::thread thread_;
};

/// Peak resident set of this process (getrusage), in KiB.
long selfPeakRssKb();

}  // namespace xlv::e2e
