#include "served.h"

#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "campaign/dispatch.h"
#include "campaign/serialize.h"
#include "campaign/shard.h"
#include "util/codec.h"
#include "util/timer.h"

namespace xlv::e2e {

namespace {

int connectUnix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool writeAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Daemon::Daemon(const std::string& binary, const std::string& socketPath, int workers,
               const std::string& ledgerPath)
    : socketPath_(socketPath) {
  proc_ = util::Subprocess::spawn({binary, "serve", "--socket", socketPath, "--workers",
                                   std::to_string(workers), "--ledger", ledgerPath});
  if (!proc_.started()) throw std::runtime_error("cannot start '" + binary + "'");
}

void Daemon::waitListening(double timeoutSeconds) {
  util::Timer t;
  for (;;) {
    const int fd = connectUnix(socketPath_);
    if (fd >= 0) {
      // A bare probe connection: the server closes it once it sees EOF.
      ::close(fd);
      return;
    }
    if (!proc_.running()) throw std::runtime_error("daemon exited before listening");
    if (t.seconds() > timeoutSeconds) throw std::runtime_error("daemon did not listen in time");
    // A fine poll: the wait is part of served_mix's set-up time.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

int Daemon::stop() {
  if (!proc_.started()) return -1;
  proc_.kill(SIGTERM);
  return proc_.wait();
}

bool tracedSubmit(const campaign::CampaignSpec& spec, const std::string& socketPath,
                  Tracer& tr, std::uint64_t traceId, campaign::CampaignResult* result,
                  SubmitTiming* timing, std::string* error) {
  Span submitSpan(&tr, "serve.submit", traceId);
  const double t0 = tr.nowUs();
  std::string wire;
  {
    Span s(&tr, "codec.encode");
    campaign::ClientSubmitFrame submit;
    submit.clientName = "e2e_bench";
    submit.spec = campaign::encodeCampaignSpec(spec);
    wire = campaign::frameWire(campaign::encodeClientSubmitFrame(submit));
  }
  tr.add("codec.bytes", static_cast<double>(wire.size()));
  const int fd = connectUnix(socketPath);
  if (fd < 0) {
    *error = "cannot connect to '" + socketPath + "'";
    return false;
  }
  if (!writeAll(fd, wire)) {
    ::close(fd);
    *error = std::string("submit write failed: ") + std::strerror(errno);
    return false;
  }
  const double sent = tr.nowUs();
  double accepted = -1.0, firstItem = -1.0, done = -1.0;
  std::vector<campaign::ShardOutput> outputs;
  campaign::FrameReader reader;
  std::string doc;
  while (error->empty() && done < 0.0) {
    int readErrno = 0;
    campaign::FrameRead got = campaign::FrameRead::Eof;
    try {
      got = campaign::readFrameBlocking(fd, reader, doc, &readErrno);
    } catch (const util::DecodeError& e) {
      *error = std::string("corrupt stream: ") + e.what();
      break;
    }
    if (got != campaign::FrameRead::Frame) {
      *error = got == campaign::FrameRead::Eof ? "server closed mid-campaign"
                                               : std::string("read failed: ") +
                                                     std::strerror(readErrno);
      break;
    }
    const double at = tr.nowUs();
    tr.add("codec.bytes", static_cast<double>(doc.size()));
    try {
      Span s(&tr, "codec.decode");
      const std::string tag = util::peekDocumentTag(doc);
      if (tag == campaign::kAcceptFrameTag) {
        campaign::decodeAcceptFrame(doc);
        accepted = at;
      } else if (tag == campaign::kRejectFrameTag) {
        *error = "rejected: " + campaign::decodeRejectFrame(doc).reason;
      } else if (tag == campaign::kItemResultFrameTag) {
        outputs.push_back(campaign::decodeItemResultFrame(doc).output);
        if (firstItem < 0.0) firstItem = at;
      } else if (tag == campaign::kCampaignDoneFrameTag) {
        const campaign::CampaignDoneFrame f = campaign::decodeCampaignDoneFrame(doc);
        done = at;
        if (!f.error.empty() || f.cancelled || !f.quarantined.empty()) {
          *error = "campaign failed server-side: " + (f.error.empty() ? "cancelled/quarantined" : f.error);
        }
        for (auto& o : outputs) o.shardCount = static_cast<int>(f.unitsTotal);
      } else {
        *error = "unexpected frame '" + tag + "'";
      }
    } catch (const util::DecodeError& e) {
      *error = std::string("bad frame: ") + e.what();
    }
  }
  ::close(fd);
  if (!error->empty()) return false;
  if (accepted < 0.0 || firstItem < 0.0) {
    *error = "campaign finished without accept or item frames";
    return false;
  }
  tr.record("serve.admit", traceId, sent, accepted);
  tr.record("serve.first_item", traceId, accepted, firstItem);
  tr.record("serve.stream", traceId, firstItem, done);
  try {
    Span s(&tr, "campaign.merge");
    *result = campaign::mergeShards(spec, outputs);
  } catch (const std::exception& e) {
    *error = std::string("merge failed: ") + e.what();
    return false;
  }
  timing->acceptMs = (accepted - t0) * 1e-3;
  timing->firstItemMs = (firstItem - t0) * 1e-3;
  timing->doneMs = (done - t0) * 1e-3;
  return true;
}

namespace {

long rssKbOf(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return 0;
}

std::vector<pid_t> childrenOf(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/task/" + std::to_string(pid) +
                   "/children");
  std::vector<pid_t> out;
  long c = 0;
  while (in >> c) out.push_back(static_cast<pid_t>(c));
  return out;
}

}  // namespace

TreeRssSampler::TreeRssSampler(pid_t child) : child_(child), thread_([this] { loop(); }) {}

TreeRssSampler::~TreeRssSampler() {
  stop_ = true;
  thread_.join();
}

void TreeRssSampler::loop() {
  while (!stop_) {
    long kb = rssKbOf(::getpid()) + rssKbOf(child_);
    for (pid_t c : childrenOf(child_)) kb += rssKbOf(c);
    if (kb > peakKb_) peakKb_ = kb;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

long selfPeakRssKb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

}  // namespace xlv::e2e
