#include "campaign/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <thread>

#include "campaign/serialize.h"
#include "util/codec.h"
#include "util/fault_point.h"
#include "util/log.h"
#include "util/prng.h"
#include "util/subprocess.h"

namespace xlv::campaign {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

void ignoreSigpipe() { ::signal(SIGPIPE, SIG_IGN); }

/// Self-pipe for graceful drain: the SIGTERM/SIGINT handler only writes one
/// byte here, and the poll loop — the single place allowed to touch server
/// state — reads it and starts the drain. Async-signal-safe by construction.
int gDrainPipeWrite = -1;

void onDrainSignal(int) {
  const int saved = errno;
  if (gDrainPipeWrite >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(gDrainPipeWrite, &byte, 1);
  }
  errno = saved;
}

bool writeFdAll(int fd, std::string_view data) noexcept {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Connect to a server address (blocking fd). -1 with `error` set on failure.
int connectToServer(const std::string& socketPath, int tcpPort, std::string& error) {
  if (!socketPath.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socketPath.size() >= sizeof(addr.sun_path)) {
      error = "socket path too long: " + socketPath;
      return -1;
    }
    std::strncpy(addr.sun_path, socketPath.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      error = "cannot connect to " + socketPath + ": " + std::strerror(errno);
      if (fd >= 0) ::close(fd);
      return -1;
    }
    return fd;
  }
  if (tcpPort > 0) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(tcpPort));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      error = "cannot connect to 127.0.0.1:" + std::to_string(tcpPort) + ": " +
              std::strerror(errno);
      if (fd >= 0) ::close(fd);
      return -1;
    }
    return fd;
  }
  error = "no server address (need a socket path or TCP port)";
  return -1;
}

// --- server state ------------------------------------------------------------

struct ServerWorker {
  util::Subprocess proc;
  FrameReader reader;
  OutboundBuffer out;
  int generation = 0;
  int respawns = 0;
  bool ready = false;
  bool busy = false;
  bool retired = false;
  bool timedOut = false;
  std::uint64_t campaignId = 0;  ///< campaign of the in-flight unit
  std::size_t taskIndex = 0;     ///< its index in that campaign's unit list
  Clock::time_point lastBeat{};
};

struct ClientConn {
  int fd = -1;
  FrameReader reader;
  OutboundBuffer out;
  std::uint64_t campaignId = 0;  ///< 0 until a submission was admitted
  bool closing = false;  ///< server finished with it; close once flushed
  bool dead = false;
  Clock::time_point openedAt{};  ///< read-timeout base for half-open clients
};

struct Campaign {
  std::uint64_t id = 0;
  std::string name;
  std::uint64_t specFnv = 0;
  std::string specPath;  ///< per-campaign spec handoff file
  TaskQueue queue;
  std::uint64_t taskCount = 0;
  std::uint64_t requeues = 0;
  std::uint64_t discarded = 0;
  /// Cancelled or errored: pending units left the scheduler, in-flight
  /// units drain with their results discarded, then the campaign finalizes.
  bool finishing = false;
  bool cancelled = false;
  std::string error;
  ClientConn* conn = nullptr;  ///< null once the client connection is gone
  /// Run mode's in-process campaign: unit outputs collect here instead of
  /// streaming to a client connection.
  std::vector<ShardOutput>* sink = nullptr;
  std::uint64_t bisections = 0;
  std::vector<std::uint64_t> quarantined;  ///< retired irreducible task indices
  std::uint64_t deadlineMs = 0;            ///< 0 = no deadline
  Clock::time_point deadlineAt{};
  bool drained = false;  ///< was live when a drain began
};

class Server {
 public:
  explicit Server(const ServeOptions& opt) : opt_(opt) {
    if (opt_.workerCommand.empty()) {
      throw std::invalid_argument("campaignd: workerCommand must not be empty");
    }
    if (opt_.heartbeatIntervalMs <= 0 || opt_.heartbeatTimeoutMs <= 0) {
      throw std::invalid_argument("campaignd: heartbeat interval/timeout must be > 0");
    }
    if (opt_.maxTaskAttempts < 1) {
      throw std::invalid_argument("campaignd: maxTaskAttempts must be >= 1");
    }
  }
  ~Server() {
    for (auto& conn : conns_) {
      if (conn->fd >= 0) ::close(conn->fd);
    }
    if (listenFd_ >= 0) ::close(listenFd_);
    if (!boundPath_.empty()) ::unlink(boundPath_.c_str());
    for (Campaign* c : liveCampaigns()) removeSpecFile(*c);
    if (drainWriteFd_ >= 0) {
      gDrainPipeWrite = -1;
      ::close(drainWriteFd_);
    }
    if (drainReadFd_ >= 0) ::close(drainReadFd_);
  }

  /// Bind the client listener (serve mode). Without it the loop runs only
  /// the in-process campaigns added below.
  void listen();
  /// Put an in-process campaign on the scheduler before run(): its unit
  /// outputs collect into `sink` instead of streaming to a client.
  void addLocalCampaign(const CampaignSpec& spec, const DispatchUnitPlan& plan,
                        std::vector<ShardOutput>& sink) {
    Campaign* c = startCampaign(spec, plan, spec.name, 0);
    if (c == nullptr) throw DispatchError("cannot write the spec handoff file");
    c->sink = &sink;
  }
  ServeResult run();

 private:
  enum class Ref : unsigned char { Listener, WorkerOut, WorkerIn, Client, DrainPipe };

  std::vector<Campaign*> liveCampaigns() {
    std::vector<Campaign*> out;
    for (auto& [id, c] : campaigns_) out.push_back(&c);
    return out;
  }

  bool spawnWorker(std::size_t i);
  void assignWork();
  void submitUnit(std::size_t wi, Campaign& c);
  void acceptClients();
  void onClientReadable(ClientConn& conn);
  void processClientFrames(ClientConn& conn);
  void admit(ClientConn& conn, const ClientSubmitFrame& f);
  Campaign* startCampaign(const CampaignSpec& spec, const DispatchUnitPlan& plan,
                          const std::string& name, std::uint64_t deadlineMs);
  void reject(ClientConn& conn, const std::string& reason, std::uint64_t retryMs);
  void flushConn(ClientConn& conn);
  void clientGone(ClientConn& conn);
  void closeConn(ClientConn& conn);
  void onWorkerReadable(std::size_t i);
  void drainWorker(std::size_t i);
  void handleWorkerFrame(std::size_t i, const std::string& doc);
  void onResult(std::size_t wi, ResultFrame rf);
  void streamOutput(Campaign& c, std::size_t taskIndex, ShardOutput output);
  void quarantineOrBisect(Campaign& c, std::size_t taskIndex, const std::string& reason);
  void requeueLostUnit(std::size_t wi, const std::string& reason);
  void workerDeath(std::size_t i, const char* reasonHint);
  void failCampaign(Campaign& c, const std::string& msg);
  void finishSuccess(Campaign& c);
  void finalize(Campaign& c);
  void sweepFinished();
  void removeSpecFile(const Campaign& c);
  void rrRemove(std::uint64_t id);
  std::size_t inFlight(std::uint64_t id) const;
  std::size_t totalPendingUnits() const;
  void heartbeatScan();
  void deadlineScan();
  void clientReadScan();
  void onDrainRequest();
  void flushClosingConns();
  void shutdownWorkers();

  ServeOptions opt_;
  ServeLedger ledger_;
  int listenFd_ = -1;
  std::string boundPath_;
  std::vector<ServerWorker> workers_;
  std::vector<std::unique_ptr<ClientConn>> conns_;
  std::map<std::uint64_t, Campaign> campaigns_;
  std::vector<std::uint64_t> rr_;  ///< live campaign ids, admission order
  std::size_t rrCursor_ = 0;       ///< round-robin position in rr_
  std::uint64_t lastCampaignId_ = 0;
  std::uint64_t seqCounter_ = 0;
  std::uint64_t served_ = 0;  ///< admitted campaigns that left the scheduler
  int drainReadFd_ = -1;   ///< self-pipe read end (in the poll set)
  int drainWriteFd_ = -1;  ///< self-pipe write end (signal handler's target)
  bool draining_ = false;  ///< stop admitting; exit once live campaigns finish
  bool drainHard_ = false;  ///< second signal: stop now
};

void Server::listen() {
  if (!opt_.socketPath.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opt_.socketPath.size() >= sizeof(addr.sun_path)) {
      throw std::invalid_argument("serve: socket path too long: " + opt_.socketPath);
    }
    std::strncpy(addr.sun_path, opt_.socketPath.c_str(), sizeof(addr.sun_path) - 1);
    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
      throw DispatchError(std::string("socket failed: ") + std::strerror(errno));
    }
    // Probe before unlinking: a connect() that succeeds means a LIVE server
    // owns this path, and stealing it would strand that server (still
    // running, no longer reachable) while its clients silently land here.
    // Any connect failure — ENOENT, ECONNREFUSED — means the path is stale.
    if (const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0); probe >= 0) {
      const bool alive =
          ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
      ::close(probe);
      if (alive) {
        throw DispatchError("another server is already listening on " +
                            opt_.socketPath + "; refusing to steal its socket");
      }
    }
    ::unlink(opt_.socketPath.c_str());  // a stale path from a crashed server
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(listenFd_, 64) != 0) {
      throw DispatchError("cannot listen on " + opt_.socketPath + ": " +
                          std::strerror(errno));
    }
    boundPath_ = opt_.socketPath;
  } else if (opt_.tcpPort > 0) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(opt_.tcpPort));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, never 0.0.0.0
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
      throw DispatchError(std::string("socket failed: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(listenFd_, 64) != 0) {
      throw DispatchError("cannot listen on 127.0.0.1:" + std::to_string(opt_.tcpPort) +
                          ": " + std::strerror(errno));
    }
  } else {
    throw std::invalid_argument("serve: a socketPath or tcpPort listen address is required");
  }
  util::setNonBlocking(listenFd_);
}

bool Server::spawnWorker(std::size_t i) {
  ServerWorker& s = workers_[i];
  std::vector<std::string> argv = opt_.workerCommand;
  argv.push_back("--index");
  argv.push_back(std::to_string(i));
  argv.push_back("--generation");
  argv.push_back(std::to_string(s.generation));
  argv.push_back("--heartbeat-ms");
  argv.push_back(std::to_string(opt_.heartbeatIntervalMs));
  const util::SubprocessEnv env = {
      {"XLV_WORKER_INDEX", std::to_string(i)},
      {"XLV_WORKER_GENERATION", std::to_string(s.generation)},
  };
  // Chaos hook: a spawn "fail" leaves the slot holding a never-started
  // process, which takes the same retire/respawn path a real fork failure
  // would. Opt-in per call site so the native-compile subprocess path is
  // untouched.
  s.proc = util::faultPoint("worker.spawn") == util::FaultAction::None
               ? util::Subprocess::spawn(argv, env)
               : util::Subprocess{};
  s.reader = FrameReader{};
  s.out = OutboundBuffer{};
  s.ready = false;
  s.busy = false;
  s.timedOut = false;
  if (!s.proc.started()) {
    s.retired = true;
    XLV_ERROR("campaignd") << "worker " << i << ": spawn failed";
    return false;
  }
  util::setNonBlocking(s.proc.stdinFd());
  util::setNonBlocking(s.proc.stdoutFd());
  s.lastBeat = Clock::now();
  ++ledger_.workersSpawned;
  return true;
}

void Server::assignWork() {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    ServerWorker& s = workers_[i];
    if (s.retired || !s.ready || s.busy) continue;
    if (rr_.empty()) return;
    // Round-robin ACROSS campaigns (each idle worker serves the next
    // campaign in admission order that still has work), heaviest-first
    // WITHIN one (TaskQueue::claim is LPT). That is the fairness contract:
    // a small campaign never starves behind a huge one's unit backlog.
    bool assigned = false;
    const std::size_t n = rr_.size();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t pos = (rrCursor_ + k) % n;
      auto it = campaigns_.find(rr_[pos]);
      if (it == campaigns_.end() || !it->second.queue.hasPending()) continue;
      rrCursor_ = (pos + 1) % n;
      submitUnit(i, it->second);
      assigned = true;
      break;
    }
    if (!assigned) return;  // nothing pending anywhere
  }
}

void Server::submitUnit(std::size_t wi, Campaign& c) {
  ServerWorker& s = workers_[wi];
  const DispatchTask& t = c.queue.claim();
  SubmitFrame submit;
  submit.specFnv = c.specFnv;
  submit.campaignId = c.id;
  submit.seq = ++seqCounter_;
  submit.taskIndex = t.index;
  submit.taskCount = c.taskCount;
  submit.attempt = t.attempts - 1;
  submit.unit = t.unit;
  submit.specPath = c.specPath;
  s.ready = false;
  s.busy = true;
  s.campaignId = c.id;
  s.taskIndex = t.index;
  s.lastBeat = Clock::now();
  s.out.enqueue(frameWire(encodeSubmitFrame(submit)));
  if (!s.out.flushTo(s.proc.stdinFd())) {
    workerDeath(wi, "submit-write-failed");
    return;
  }
  ++ledger_.submissions;
}

void Server::acceptClients() {
  for (;;) {
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained the backlog
    }
    // Chaos hook: an accept "failure" drops the fresh connection on the
    // floor — the client sees an unexplained close and must retry, which is
    // exactly the behaviour of a listener backlog overflow.
    if (util::faultPoint("server.accept") != util::FaultAction::None) {
      ::close(fd);
      continue;
    }
    util::setNonBlocking(fd);
    auto conn = std::make_unique<ClientConn>();
    conn->fd = fd;
    // Client sockets are untrusted: cap declared frame lengths well below
    // the 1 GiB codec ceiling the trusted worker pipes keep.
    conn->reader.setMaxFrameBytes(opt_.maxClientFrameBytes);
    conn->openedAt = Clock::now();
    conns_.push_back(std::move(conn));
  }
}

void Server::onClientReadable(ClientConn& conn) {
  bool eof = false;
  char buf[65536];
  while (!conn.dead) {
    const ssize_t n = ::read(conn.fd, buf, sizeof buf);
    if (n > 0) {
      conn.reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    eof = true;  // clean close and read errors both mean: this client is gone
    break;
  }
  if (!conn.dead) processClientFrames(conn);
  if (eof && !conn.dead) clientGone(conn);
}

void Server::processClientFrames(ClientConn& conn) {
  std::string doc;
  try {
    // A closing connection's reader is never advanced again: trailing bytes
    // after a reject are left unparsed (and an oversize header would throw
    // on every poll tick otherwise).
    while (!conn.dead && !conn.closing && conn.reader.next(doc)) {
      if (conn.campaignId == 0) {
        if (util::peekDocumentTag(doc) != kClientSubmitFrameTag) {
          throw util::DecodeError("expected a client-submit frame");
        }
        admit(conn, decodeClientSubmitFrame(doc));
      } else {
        // One connection carries exactly one campaign; anything after the
        // submission is a protocol violation.
        throw util::DecodeError("unexpected frame after the submission");
      }
    }
  } catch (const FrameCapExceeded& e) {
    // The oversize length came from the header alone — no body bytes were
    // buffered — so the client gets a structured answer, not a slammed door.
    ++ledger_.frameCapRejects;
    reject(conn, e.what(), 0);
  } catch (const util::DecodeError& e) {
    XLV_WARN("campaignd") << "client protocol error: " << e.what();
    clientGone(conn);
  }
}

void Server::admit(ClientConn& conn, const ClientSubmitFrame& f) {
  if (draining_) {
    // The drain contract: in-flight campaigns finish, new ones go elsewhere.
    // The retry hint points clients at whoever replaces this server.
    reject(conn, "server draining: not admitting new campaigns",
           opt_.rejectRetryAfterMs);
    return;
  }
  CampaignSpec spec;
  DispatchUnitPlan plan;
  try {
    spec = decodeCampaignSpec(f.spec);
    const std::size_t frag =
        f.maxFragmentMutants > 0 ? static_cast<std::size_t>(f.maxFragmentMutants)
                                 : opt_.maxFragmentMutants;
    plan = planDispatchUnits(spec, frag);
  } catch (const std::exception& e) {
    // retryAfterMs = 0: the submission itself is broken, retrying is
    // pointless (backpressure rejects below DO carry a retry hint).
    reject(conn, std::string("malformed submission: ") + e.what(), 0);
    return;
  }
  if (campaigns_.size() >= opt_.maxCampaigns) {
    reject(conn, "campaign limit reached (" + std::to_string(opt_.maxCampaigns) + ")",
           opt_.rejectRetryAfterMs);
    return;
  }
  const std::size_t queued = totalPendingUnits();
  // An idle server admits anything — a single campaign larger than the whole
  // pending budget must still be servable; the bound protects a BUSY server
  // from buffering without limit.
  if (queued > 0 && queued + plan.units.size() > opt_.maxPendingUnits) {
    reject(conn,
           "admission queue full (" + std::to_string(queued) + " units pending)",
           opt_.rejectRetryAfterMs);
    return;
  }

  Campaign* c = startCampaign(spec, plan, f.clientName, f.deadlineMs);
  if (c == nullptr) {
    reject(conn, "server cannot stage the spec handoff file", opt_.rejectRetryAfterMs);
    return;
  }
  c->conn = &conn;
  conn.campaignId = c->id;

  AcceptFrame accept;
  accept.campaignId = c->id;
  accept.specFnv = c->specFnv;
  accept.unitCount = c->taskCount;
  conn.out.enqueue(frameWire(encodeAcceptFrame(accept)));
  flushConn(conn);  // may cancel c (client write failure sets finishing)
  if (!c->finishing && c->taskCount == 0) finishSuccess(*c);  // empty spec: done before it began
}

/// Stage the spec handoff file and put the campaign's units on the
/// scheduler; null when the handoff file cannot be written.
Campaign* Server::startCampaign(const CampaignSpec& spec, const DispatchUnitPlan& plan,
                                const std::string& name, std::uint64_t deadlineMs) {
  const std::uint64_t id = ++lastCampaignId_;
  const fs::path specPath =
      fs::temp_directory_path() / ("xlv-campaignd-" + std::to_string(::getpid()) + "-" +
                                   std::to_string(id) + ".xlv");
  {
    std::ofstream out(specPath, std::ios::binary | std::ios::trunc);
    out << encodeCampaignSpec(spec);  // canonical bytes: fnv-checkable by workers
    if (!out) return nullptr;
  }

  Campaign c;
  c.id = id;
  c.name = name;
  c.specFnv = plan.specFnv;
  c.specPath = specPath.string();
  c.queue = TaskQueue(plan);
  c.taskCount = c.queue.taskCount();
  if (deadlineMs > 0) {
    c.deadlineMs = deadlineMs;
    c.deadlineAt = Clock::now() + std::chrono::milliseconds(deadlineMs);
  }
  Campaign& live = campaigns_.emplace(id, std::move(c)).first->second;
  rr_.push_back(id);
  ++ledger_.campaignsAccepted;
  XLV_INFO("campaignd") << "campaign " << id << " ('" << name << "') admitted: "
                        << live.taskCount << " units";
  return &live;
}

void Server::reject(ClientConn& conn, const std::string& reason, std::uint64_t retryMs) {
  ++ledger_.campaignsRejected;
  XLV_WARN("campaignd") << "submission rejected: " << reason;
  RejectFrame rj;
  rj.reason = reason;
  rj.retryAfterMs = retryMs;
  conn.out.enqueue(frameWire(encodeRejectFrame(rj)));
  conn.closing = true;
  flushConn(conn);
}

void Server::flushConn(ClientConn& conn) {
  if (conn.dead || conn.fd < 0) return;
  if (!conn.out.flushTo(conn.fd)) {
    clientGone(conn);
    return;
  }
  if (conn.closing && conn.out.empty()) closeConn(conn);
}

void Server::clientGone(ClientConn& conn) {
  if (conn.dead) return;
  if (conn.campaignId != 0) {
    auto it = campaigns_.find(conn.campaignId);
    if (it != campaigns_.end() && !it->second.finishing) {
      Campaign& c = it->second;
      c.cancelled = true;
      c.finishing = true;
      rrRemove(c.id);
      XLV_WARN("campaignd") << "campaign " << c.id << " ('" << c.name
                            << "') cancelled: client disconnected with "
                            << c.queue.pendingCount() << " units pending, "
                            << inFlight(c.id) << " in flight";
    }
  }
  closeConn(conn);
}

void Server::closeConn(ClientConn& conn) {
  if (conn.fd >= 0) {
    ::close(conn.fd);
    conn.fd = -1;
  }
  conn.dead = true;
  if (conn.campaignId != 0) {
    auto it = campaigns_.find(conn.campaignId);
    if (it != campaigns_.end()) it->second.conn = nullptr;
  }
}

void Server::onWorkerReadable(std::size_t i) {
  ServerWorker& s = workers_[i];
  if (s.retired) return;
  char buf[65536];
  const ssize_t n = ::read(s.proc.stdoutFd(), buf, sizeof buf);
  if (n > 0) {
    s.reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    try {
      drainWorker(i);
    } catch (const util::DecodeError& e) {
      XLV_ERROR("campaignd") << "worker " << i << ": corrupt stream: " << e.what();
      s.proc.kill(SIGKILL);
      workerDeath(i, "protocol-error");
    }
  } else if (n == 0) {
    workerDeath(i, nullptr);
  } else if (errno != EINTR && errno != EAGAIN) {
    workerDeath(i, nullptr);
  }
}

void Server::drainWorker(std::size_t i) {
  std::string doc;
  while (workers_[i].reader.next(doc)) handleWorkerFrame(i, doc);
}

void Server::handleWorkerFrame(std::size_t i, const std::string& doc) {
  ServerWorker& s = workers_[i];
  const std::string tag = util::peekDocumentTag(doc);
  if (tag == kStatusFrameTag) {
    const StatusFrame st = decodeStatusFrame(doc);
    s.lastBeat = Clock::now();
    if (st.state == "ready") s.ready = true;
    return;
  }
  if (tag == kHeartbeatFrameTag) {
    decodeHeartbeatFrame(doc);
    s.lastBeat = Clock::now();
    ++ledger_.heartbeats;
    return;
  }
  if (tag == kResultFrameTag) {
    s.lastBeat = Clock::now();
    onResult(i, decodeResultFrame(doc));
    return;
  }
  throw util::DecodeError("unexpected frame '" + tag + "' from a worker");
}

void Server::onResult(std::size_t wi, ResultFrame rf) {
  ServerWorker& s = workers_[wi];
  auto it = campaigns_.find(rf.campaignId);
  if (it != campaigns_.end() && rf.taskIndex >= it->second.taskCount) {
    throw util::DecodeError("result for unknown task " + std::to_string(rf.taskIndex) +
                            " of campaign " + std::to_string(rf.campaignId));
  }
  if (s.busy && s.campaignId == rf.campaignId && s.taskIndex == rf.taskIndex) {
    s.busy = false;
  }
  if (it == campaigns_.end()) {
    // The owning campaign already finalized (cancelled and drained): spent
    // work with nowhere to go.
    ++ledger_.discardedResults;
    return;
  }
  Campaign& c = it->second;
  if (c.finishing) {
    ++c.discarded;
    ++ledger_.discardedResults;
    return;
  }
  if (!c.queue.complete(rf.taskIndex)) {
    // A retry raced its predecessor's drained result; copies are
    // bit-identical by construction, dropping one is safe.
    ++ledger_.duplicateResults;
    return;
  }
  streamOutput(c, rf.taskIndex, std::move(rf.output));
  if (!c.finishing && c.queue.done()) finishSuccess(c);
}

void Server::streamOutput(Campaign& c, std::size_t taskIndex, ShardOutput output) {
  if (c.sink != nullptr) {
    c.sink->push_back(std::move(output));
    return;
  }
  if (c.conn == nullptr || c.conn->dead) return;
  ItemResultFrame ir;
  ir.campaignId = c.id;
  ir.taskIndex = taskIndex;
  ir.taskCount = c.taskCount;
  ir.output = std::move(output);
  c.conn->out.enqueue(frameWire(encodeItemResultFrame(ir)));
  flushConn(*c.conn);  // may cancel c (client write failure sets finishing)
}

/// A unit exhausted its attempt budget. Before this layer existed that
/// failed the whole campaign; now the failure is narrowed to what is
/// actually unrunnable:
///   * a multi-mutant fragment is BISECTED — the parent task retires behind
///     an empty placeholder output (so the client's merge still sees its
///     shard index) and both halves re-queue with fresh attempt budgets,
///     homing in on the poison mutant in log2(fragment) rounds;
///   * an irreducible unit (whole item or single mutant) is QUARANTINED —
///     retired behind a synthesized output whose one item carries a
///     structured error, so every other item still completes bit-identical.
void Server::quarantineOrBisect(Campaign& c, std::size_t taskIndex,
                                const std::string& reason) {
  if (c.queue.isRetired(taskIndex)) return;
  // Copies: addTask grows the task vector, invalidating references into it.
  const DispatchTask t = c.queue.task(taskIndex);
  const ShardUnit unit = t.unit;
  if (!unit.wholeItem() && unit.mutantEnd - unit.mutantBegin >= 2) {
    c.queue.retire(taskIndex);
    const std::size_t mid = unit.mutantBegin + (unit.mutantEnd - unit.mutantBegin) / 2;
    // Heavier (or equal) half first so the front-of-queue insert keeps the
    // poison hunt ahead of untouched work: addTask prepends, so push the
    // high half, then the low half lands in front of it.
    c.queue.addTask(ShardUnit{unit.taskId, mid, unit.mutantEnd}, unit.mutantEnd - mid);
    c.queue.addTask(ShardUnit{unit.taskId, unit.mutantBegin, mid}, mid - unit.mutantBegin);
    c.taskCount = c.queue.taskCount();
    ++c.bisections;
    ++ledger_.bisections;
    XLV_WARN("campaignd") << "campaign " << c.id << " task " << taskIndex << " (item "
                          << unit.taskId << " mutants [" << unit.mutantBegin << ", "
                          << unit.mutantEnd << ")) lost after " << t.attempts
                          << " attempts (" << reason << "); bisected at " << mid;
    ShardOutput placeholder;
    placeholder.specFnv = c.specFnv;
    placeholder.shardIndex = static_cast<int>(taskIndex);
    placeholder.shardCount = static_cast<int>(c.taskCount);
    streamOutput(c, taskIndex, std::move(placeholder));
    return;
  }
  c.queue.retire(taskIndex);
  c.quarantined.push_back(taskIndex);
  ++ledger_.quarantinedUnits;
  const std::string what =
      unit.wholeItem()
          ? "item " + std::to_string(unit.taskId)
          : "item " + std::to_string(unit.taskId) + " mutant " +
                std::to_string(unit.mutantBegin);
  XLV_ERROR("campaignd") << "campaign " << c.id << " quarantined " << what
                         << " (task " << taskIndex << "): lost after " << t.attempts
                         << " attempts (last: " << reason << ")";
  ShardOutput q;
  q.specFnv = c.specFnv;
  q.shardIndex = static_cast<int>(taskIndex);
  q.shardCount = static_cast<int>(c.taskCount);
  q.units.push_back(unit);
  CampaignItemResult item;
  item.taskId = unit.taskId;
  item.error = "quarantined: " + what + " lost after " + std::to_string(t.attempts) +
               " attempts (last: " + reason + ")";
  q.result.items.push_back(std::move(item));
  streamOutput(c, taskIndex, std::move(q));
  if (!c.finishing && c.queue.done()) finishSuccess(c);
}

void Server::requeueLostUnit(std::size_t wi, const std::string& reason) {
  ServerWorker& s = workers_[wi];
  if (!s.busy) return;
  s.busy = false;
  auto it = campaigns_.find(s.campaignId);
  if (it == campaigns_.end()) return;
  Campaign& c = it->second;
  if (c.finishing) return;  // cancelled campaigns do not re-queue
  if (c.queue.isCompleted(s.taskIndex)) return;  // its result was drained in time
  const DispatchTask& t = c.queue.task(s.taskIndex);
  if (static_cast<int>(t.attempts) >= opt_.maxTaskAttempts) {
    // An unrunnable unit is isolated — bisected or quarantined — so it
    // costs its own item, not its campaign (and never the server).
    quarantineOrBisect(c, s.taskIndex, reason);
    return;
  }
  c.queue.requeue(s.taskIndex);
  ++c.requeues;
  ledger_.requeuedShards.push_back(RequeueRecord{c.id, t.index, t.unit, t.attempts, reason, wi,
                                                 static_cast<std::uint64_t>(s.generation)});
  XLV_WARN("campaignd") << "re-queued task " << t.index << " of campaign " << c.id
                        << " (attempt " << t.attempts << " lost to worker " << wi
                        << ": " << reason << ")";
}

void Server::workerDeath(std::size_t i, const char* reasonHint) {
  ServerWorker& s = workers_[i];
  try {
    drainWorker(i);  // salvage results already in the pipe
  } catch (const util::DecodeError&) {
    // A crash can truncate mid-frame; the re-queue below recovers the rest.
  }
  // A failed submit write declares the worker dead while the process may
  // still be alive (its stream is now desynced either way) — put it down
  // before reaping, or wait() blocks the whole event loop on a live child.
  if (s.proc.running()) s.proc.kill(SIGKILL);
  s.proc.wait();
  const std::string reason = reasonHint != nullptr ? reasonHint
                             : s.timedOut          ? "heartbeat-timeout"
                             : s.proc.termSignal() != 0 ? "worker-signal"
                                                        : "worker-exit";
  XLV_WARN("campaignd") << "worker " << i << " gen " << s.generation << " died ("
                        << reason << ", exit=" << s.proc.exitCode()
                        << ", signal=" << s.proc.termSignal() << ")";
  requeueLostUnit(i, reason);
  s.ready = false;
  if (s.respawns < opt_.maxWorkerRespawns) {
    ++s.respawns;
    ++s.generation;
    ++ledger_.workerRespawns;
    spawnWorker(i);
  } else {
    s.retired = true;
  }
  const bool anyAlive = std::any_of(workers_.begin(), workers_.end(),
                                    [](const ServerWorker& w) { return !w.retired; });
  if (!anyAlive && !campaigns_.empty()) {
    throw DispatchError("all workers lost with " +
                        std::to_string(campaigns_.size()) + " campaigns live");
  }
}

void Server::failCampaign(Campaign& c, const std::string& msg) {
  XLV_ERROR("campaignd") << "campaign " << c.id << " ('" << c.name << "') failed: " << msg;
  c.error = msg;
  c.finishing = true;
  rrRemove(c.id);
  if (c.conn != nullptr && !c.conn->dead) {
    CampaignDoneFrame done;
    done.campaignId = c.id;
    done.unitsTotal = c.taskCount;
    done.unitsCompleted = c.queue.completedCount();
    done.requeues = c.requeues;
    done.cancelled = false;
    done.error = msg;
    done.quarantined = c.quarantined;
    c.conn->out.enqueue(frameWire(encodeCampaignDoneFrame(done)));
    c.conn->closing = true;
    flushConn(*c.conn);
  }
  // Finalized by sweepFinished() once in-flight units drained.
}

void Server::finishSuccess(Campaign& c) {
  CampaignDoneFrame done;
  done.campaignId = c.id;
  done.unitsTotal = c.taskCount;
  done.unitsCompleted = c.queue.completedCount();
  done.requeues = c.requeues;
  // unitsTotal is the FINAL task count: bisection appended tasks, and the
  // client must normalize its streamed outputs' shardCount to this before
  // merging.
  done.quarantined = c.quarantined;
  ClientConn* conn = c.conn;
  if (conn != nullptr && !conn->dead) {
    conn->out.enqueue(frameWire(encodeCampaignDoneFrame(done)));
    conn->closing = true;
  }
  // Finalize BEFORE the flush: the campaign has left the scheduler either
  // way, and a write failure during the flush must not re-cancel it.
  finalize(c);
  if (conn != nullptr && !conn->dead) flushConn(*conn);
}

void Server::finalize(Campaign& c) {
  CampaignLedgerEntry e;
  e.campaignId = c.id;
  e.name = c.name;
  e.unitsTotal = c.taskCount;
  e.unitsCompleted = c.queue.completedCount();
  e.requeues = c.requeues;
  e.discardedResults = c.discarded;
  e.cancelled = c.cancelled;
  e.error = c.error;
  e.bisections = c.bisections;
  e.quarantined = c.quarantined;
  e.drained = c.drained;
  ledger_.campaigns.push_back(e);
  ledger_.tasksTotal += e.unitsTotal;
  ledger_.tasksCompleted += e.unitsCompleted;
  if (c.cancelled) {
    ++ledger_.campaignsCancelled;
  } else {
    ++ledger_.campaignsCompleted;
  }
  XLV_INFO("campaignd") << "campaign " << c.id << " ('" << c.name << "') finished: "
                        << e.unitsCompleted << "/" << e.unitsTotal << " units, "
                        << e.requeues << " re-queues"
                        << (c.cancelled ? " (cancelled)" : "");
  removeSpecFile(c);
  rrRemove(c.id);
  if (c.conn != nullptr) c.conn->campaignId = 0;
  const std::uint64_t id = c.id;
  campaigns_.erase(id);  // `c` is dangling from here on
  ++served_;
}

void Server::sweepFinished() {
  std::vector<std::uint64_t> doneIds;
  for (auto& [id, c] : campaigns_) {
    if (c.finishing && inFlight(id) == 0) doneIds.push_back(id);
  }
  for (const std::uint64_t id : doneIds) {
    auto it = campaigns_.find(id);
    if (it != campaigns_.end()) finalize(it->second);
  }
}

void Server::removeSpecFile(const Campaign& c) {
  if (c.specPath.empty()) return;
  std::error_code ec;
  fs::remove(c.specPath, ec);
}

void Server::rrRemove(std::uint64_t id) {
  const auto it = std::find(rr_.begin(), rr_.end(), id);
  if (it == rr_.end()) return;
  const std::size_t pos = static_cast<std::size_t>(it - rr_.begin());
  rr_.erase(it);
  if (rr_.empty()) {
    rrCursor_ = 0;
  } else {
    if (pos < rrCursor_) --rrCursor_;
    rrCursor_ %= rr_.size();
  }
}

std::size_t Server::inFlight(std::uint64_t id) const {
  std::size_t n = 0;
  for (const ServerWorker& s : workers_) {
    if (s.busy && s.campaignId == id) ++n;
  }
  return n;
}

std::size_t Server::totalPendingUnits() const {
  std::size_t n = 0;
  for (const auto& [id, c] : campaigns_) {
    if (!c.finishing) n += c.queue.pendingCount();
  }
  return n;
}

void Server::heartbeatScan() {
  const auto now = Clock::now();
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    ServerWorker& s = workers_[i];
    if (s.retired || !s.busy || s.timedOut) continue;
    const auto silentMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - s.lastBeat).count();
    if (silentMs > opt_.heartbeatTimeoutMs) {
      XLV_WARN("campaignd") << "worker " << i << " silent for " << silentMs
                            << " ms on campaign " << s.campaignId << " task "
                            << s.taskIndex << "; killing";
      s.timedOut = true;
      ++ledger_.workersKilled;
      s.proc.kill(SIGKILL);
    }
  }
}

void Server::deadlineScan() {
  const auto now = Clock::now();
  std::vector<std::uint64_t> overdue;
  for (auto& [id, c] : campaigns_) {
    if (!c.finishing && c.deadlineMs > 0 && now >= c.deadlineAt) overdue.push_back(id);
  }
  for (const std::uint64_t id : overdue) {
    auto it = campaigns_.find(id);
    if (it == campaigns_.end() || it->second.finishing) continue;
    ++ledger_.deadlineFailures;
    failCampaign(it->second, "deadline exceeded (" +
                                 std::to_string(it->second.deadlineMs) + " ms)");
  }
}

void Server::clientReadScan() {
  if (opt_.clientReadTimeoutMs <= 0) return;
  const auto now = Clock::now();
  for (auto& connPtr : conns_) {
    ClientConn& conn = *connPtr;
    // Only pre-submission connections: once a campaign is admitted the
    // client is a pure reader and owes us nothing further.
    if (conn.dead || conn.closing || conn.campaignId != 0) continue;
    const auto idleMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - conn.openedAt)
            .count();
    if (idleMs > opt_.clientReadTimeoutMs) {
      ++ledger_.clientReadTimeouts;
      XLV_WARN("campaignd") << "client connection idle " << idleMs
                            << " ms without a complete submission; closing";
      reject(conn,
             "no complete submission within " +
                 std::to_string(opt_.clientReadTimeoutMs) + " ms",
             0);
    }
  }
}

void Server::onDrainRequest() {
  ++ledger_.drainRequests;
  if (!draining_) {
    draining_ = true;
    ledger_.drained = true;
    for (auto& [id, c] : campaigns_) c.drained = true;
    XLV_INFO("campaignd") << "drain requested: finishing " << campaigns_.size()
                          << " live campaigns, rejecting new submissions";
  } else {
    XLV_WARN("campaignd") << "second drain signal: stopping immediately";
    drainHard_ = true;
  }
}

/// Drain exits the poll loop the moment the last campaign finalizes, which
/// can leave final CampaignDoneFrames sitting in client outbound buffers
/// (the frame is enqueued and finalization does not wait for the socket).
/// Give those sockets a short, bounded POLLOUT window before the workers go
/// down — losing the done frame would turn a clean drain into a client-side
/// "connection closed mid-campaign" error.
void Server::flushClosingConns() {
  const auto deadline = Clock::now() + std::chrono::milliseconds(500);
  for (auto& connPtr : conns_) {
    ClientConn& conn = *connPtr;
    while (!conn.dead && conn.fd >= 0 && !conn.out.empty()) {
      const auto leftMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                              deadline - Clock::now())
                              .count();
      if (leftMs <= 0) return;
      pollfd p{conn.fd, POLLOUT, 0};
      const int got = ::poll(&p, 1, static_cast<int>(leftMs));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      flushConn(conn);
    }
  }
}

void Server::shutdownWorkers() {
  for (ServerWorker& s : workers_) {
    if (s.retired || !s.proc.started()) continue;
    SubmitFrame bye;
    bye.seq = ++seqCounter_;
    bye.shutdown = true;
    s.out.enqueue(frameWire(encodeSubmitFrame(bye)));
    // poll(2) for writability under the deadline instead of a sleep-tick
    // loop: the wait ends the instant the pipe drains (or the worker dies),
    // and a wedged worker costs exactly the deadline, not deadline + tick.
    const auto deadline = Clock::now() + std::chrono::milliseconds(200);
    while (!s.out.empty()) {
      const auto leftMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                              deadline - Clock::now())
                              .count();
      if (leftMs <= 0) break;
      pollfd p{s.proc.stdinFd(), POLLOUT, 0};
      const int got = ::poll(&p, 1, static_cast<int>(leftMs));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;  // timeout or poll failure: give up on this pipe
      if (!s.out.flushTo(s.proc.stdinFd())) break;
    }
    s.proc.closeStdin();
  }
  const auto grace = Clock::now() + std::chrono::seconds(2);
  for (ServerWorker& s : workers_) {
    if (s.retired || !s.proc.started()) continue;
    // Exit detection rides the worker's stdout: its close (POLLHUP/EOF) is
    // the event poll can wait on, so no fixed-tick running() sampling.
    while (s.proc.running()) {
      const auto leftMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                              grace - Clock::now())
                              .count();
      if (leftMs <= 0) break;
      pollfd p{s.proc.stdoutFd(), POLLIN, 0};
      const int got =
          ::poll(&p, 1, static_cast<int>(std::min<long long>(leftMs, 50)));
      if (got < 0 && errno == EINTR) continue;
      if (got > 0 && (p.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        // Discard straggler frames; EOF here usually means the exit we are
        // waiting for, which the running() check above confirms.
        char buf[4096];
        while (::read(s.proc.stdoutFd(), buf, sizeof buf) > 0) {
        }
      }
    }
    if (s.proc.running()) s.proc.kill(SIGKILL);
    s.proc.wait();
  }
}

ServeResult Server::run() {
  ignoreSigpipe();

  if (opt_.enableSignalDrain) {
    int p[2];
    if (::pipe(p) != 0) {
      throw DispatchError(std::string("drain pipe failed: ") + std::strerror(errno));
    }
    drainReadFd_ = p[0];
    drainWriteFd_ = p[1];
    util::setNonBlocking(drainReadFd_);
    util::setNonBlocking(drainWriteFd_);
    gDrainPipeWrite = drainWriteFd_;
    struct sigaction sa{};
    sa.sa_handler = onDrainSignal;
    ::sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART;  // the self-pipe wakes poll; no EINTR churn
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
  }

  const int workerCount = resolveWorkerCount(opt_.workers);
  ledger_.workersRequested = static_cast<std::uint64_t>(workerCount);
  workers_.resize(static_cast<std::size_t>(workerCount));
  std::size_t live = 0;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (spawnWorker(i)) ++live;
  }
  if (live == 0) throw DispatchError("could not spawn any worker process");
  XLV_INFO("campaignd") << "serving on "
                        << (!boundPath_.empty()  ? boundPath_
                            : listenFd_ >= 0     ? "127.0.0.1:" + std::to_string(opt_.tcpPort)
                                                 : std::string("no listener"))
                        << " with " << live << " workers";

  struct PollRef {
    Ref kind;
    std::size_t idx;
  };

  for (;;) {
    if (drainHard_) break;
    if (draining_ && campaigns_.empty()) break;
    if (opt_.maxCampaignsServed > 0 && served_ >= opt_.maxCampaignsServed &&
        campaigns_.empty()) {
      break;
    }

    assignWork();

    std::vector<pollfd> fds;
    std::vector<PollRef> refs;
    if (listenFd_ >= 0) {
      fds.push_back(pollfd{listenFd_, POLLIN, 0});
      refs.push_back({Ref::Listener, 0});
    }
    if (drainReadFd_ >= 0) {
      fds.push_back(pollfd{drainReadFd_, POLLIN, 0});
      refs.push_back({Ref::DrainPipe, 0});
    }
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const ServerWorker& s = workers_[i];
      if (s.retired || !s.proc.started()) continue;
      fds.push_back(pollfd{s.proc.stdoutFd(), POLLIN, 0});
      refs.push_back({Ref::WorkerOut, i});
      if (!s.out.empty() && s.proc.stdinFd() >= 0) {
        fds.push_back(pollfd{s.proc.stdinFd(), POLLOUT, 0});
        refs.push_back({Ref::WorkerIn, i});
      }
    }
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      const ClientConn& conn = *conns_[i];
      if (conn.dead || conn.fd < 0) continue;
      const short events =
          static_cast<short>(conn.out.empty() ? POLLIN : (POLLIN | POLLOUT));
      fds.push_back(pollfd{conn.fd, events, 0});
      refs.push_back({Ref::Client, i});
    }

    const int pollMs = std::clamp(opt_.heartbeatTimeoutMs / 4, 10, 100);
    const int got = ::poll(fds.data(), fds.size(), pollMs);
    if (got < 0 && errno != EINTR) {
      throw DispatchError(std::string("poll failed: ") + std::strerror(errno));
    }

    for (std::size_t k = 0; k < fds.size(); ++k) {
      if (fds[k].revents == 0) continue;
      const PollRef ref = refs[k];
      switch (ref.kind) {
        case Ref::Listener:
          if (fds[k].revents & POLLIN) acceptClients();
          break;
        case Ref::WorkerOut:
          if (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) onWorkerReadable(ref.idx);
          break;
        case Ref::WorkerIn: {
          ServerWorker& s = workers_[ref.idx];
          if (s.retired) break;
          if (fds[k].revents & (POLLOUT | POLLHUP | POLLERR)) {
            if (!s.out.flushTo(s.proc.stdinFd())) {
              workerDeath(ref.idx, "submit-write-failed");
            }
          }
          break;
        }
        case Ref::Client: {
          ClientConn& conn = *conns_[ref.idx];
          if (conn.dead) break;
          if (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) onClientReadable(conn);
          if (!conn.dead && (fds[k].revents & POLLOUT)) flushConn(conn);
          break;
        }
        case Ref::DrainPipe: {
          char buf[64];
          ssize_t n;
          while ((n = ::read(drainReadFd_, buf, sizeof buf)) > 0) {
            for (ssize_t b = 0; b < n; ++b) onDrainRequest();
          }
          break;
        }
      }
    }

    heartbeatScan();
    deadlineScan();
    clientReadScan();
    sweepFinished();
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const std::unique_ptr<ClientConn>& c) {
                                  return c->dead;
                                }),
                 conns_.end());
  }

  flushClosingConns();
  shutdownWorkers();
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }
  if (!boundPath_.empty()) {
    ::unlink(boundPath_.c_str());
    boundPath_.clear();
  }
  XLV_INFO("campaignd") << "served " << served_ << " campaigns ("
                        << ledger_.campaignsCompleted << " completed, "
                        << ledger_.campaignsCancelled << " cancelled, "
                        << ledger_.campaignsRejected << " rejected)"
                        << (ledger_.drained ? " [drained]" : "");
  return ServeResult{ledger_};
}

/// Merge one campaign's unit outputs. Bisection appends tasks mid-campaign,
/// so outputs produced before a split carry a stale shardCount; every output
/// is normalized to the final unit count first.
CampaignResult mergeUnitOutputs(const CampaignSpec& spec, std::vector<ShardOutput>& outputs,
                                std::uint64_t unitCount) {
  for (ShardOutput& o : outputs) o.shardCount = static_cast<int>(unitCount);
  return mergeShards(spec, outputs);
}

}  // namespace

ServeResult runCampaignServer(const ServeOptions& opt) {
  Server server(opt);
  server.listen();
  return server.run();
}

DispatchResult runDispatcher(const CampaignSpec& spec, const DispatchOptions& opt) {
  ServeOptions so;
  static_cast<PoolOptions&>(so) = opt;
  so.maxCampaignsServed = 1;
  Server server(so);
  DispatchResult res;
  const DispatchUnitPlan plan = planDispatchUnits(spec, opt.maxFragmentMutants);
  if (plan.units.empty()) {
    res.result.name = spec.name;
    return res;
  }
  std::vector<ShardOutput> outputs;
  server.addLocalCampaign(spec, plan, outputs);
  res.ledger = server.run().ledger;
  res.result = mergeUnitOutputs(spec, outputs, res.ledger.campaigns.front().unitsTotal);
  return res;
}

// --- client ------------------------------------------------------------------

namespace {

/// One connect-submit-stream attempt; submitCampaign wraps it in the retry
/// loop.
SubmitOutcome submitCampaignOnce(const CampaignSpec& spec, const SubmitOptions& opt) {
  SubmitOutcome out;
  const int fd = connectToServer(opt.socketPath, opt.tcpPort, out.error);
  if (fd < 0) return out;

  ClientSubmitFrame submit;
  submit.clientName = opt.clientName;
  submit.spec = encodeCampaignSpec(spec);
  submit.maxFragmentMutants = static_cast<std::uint64_t>(opt.maxFragmentMutants);
  submit.deadlineMs = opt.deadlineMs;
  if (!writeFdAll(fd, frameWire(encodeClientSubmitFrame(submit)))) {
    out.error = std::string("submit write failed: ") + std::strerror(errno);
    ::close(fd);
    return out;
  }

  FrameReader reader;
  std::string doc;
  long items = 0;
  auto disconnectDue = [&] {
    return opt.disconnectAfterItems >= 0 && items >= opt.disconnectAfterItems &&
           out.accepted;
  };
  while (out.error.empty() && !out.done && !out.rejected && !out.disconnected) {
    int readErrno = 0;
    FrameRead got = FrameRead::Eof;
    try {
      got = readFrameBlocking(fd, reader, doc, &readErrno);
    } catch (const util::DecodeError& e) {
      out.error = std::string("corrupt stream from server: ") + e.what();
      break;
    }
    if (got == FrameRead::Eof) {
      out.error = "server closed the connection mid-campaign";
      break;
    }
    if (got == FrameRead::Error) {
      out.error = std::string("socket read failed: ") + std::strerror(readErrno);
      break;
    }
    try {
      const std::string tag = util::peekDocumentTag(doc);
      if (tag == kAcceptFrameTag) {
        const AcceptFrame accept = decodeAcceptFrame(doc);
        out.accepted = true;
        out.campaignId = accept.campaignId;
        out.unitCount = accept.unitCount;
      } else if (tag == kRejectFrameTag) {
        const RejectFrame rj = decodeRejectFrame(doc);
        out.rejected = true;
        out.rejectReason = rj.reason;
        out.retryAfterMs = rj.retryAfterMs;
      } else if (tag == kItemResultFrameTag) {
        ItemResultFrame ir = decodeItemResultFrame(doc);
        out.outputs.push_back(std::move(ir.output));
        ++items;
      } else if (tag == kCampaignDoneFrameTag) {
        const CampaignDoneFrame done = decodeCampaignDoneFrame(doc);
        out.done = true;
        out.quarantined = done.quarantined;
        // The FINAL unit count: server-side bisection appends tasks.
        if (done.unitsTotal > 0) out.unitCount = done.unitsTotal;
        if (!done.error.empty()) {
          out.error = done.error;
        } else if (done.cancelled) {
          out.error = "campaign cancelled by the server";
        }
      } else {
        out.error = "unexpected frame '" + tag + "' from the server";
      }
    } catch (const util::DecodeError& e) {
      out.error = std::string("bad frame from server: ") + e.what();
    }
    if (out.error.empty() && disconnectDue()) out.disconnected = true;
  }
  ::close(fd);

  if (out.done && out.error.empty()) {
    try {
      out.result = mergeUnitOutputs(spec, out.outputs, out.unitCount);
    } catch (const std::exception& e) {
      out.error = std::string("merge failed: ") + e.what();
    }
  }
  return out;
}

}  // namespace

SubmitOutcome submitCampaign(const CampaignSpec& spec, const SubmitOptions& opt) {
  ignoreSigpipe();
  // Deterministic when seeded (tests); otherwise derived from the pid so a
  // herd of clients rejected together does not retry together.
  util::Prng jitter(opt.retryJitterSeed != 0
                        ? opt.retryJitterSeed
                        : static_cast<std::uint64_t>(::getpid()) + 1);
  std::uint64_t backoffMs = std::max<std::uint64_t>(opt.retryBaseMs, 1);
  SubmitOutcome out;
  for (int attempt = 0;; ++attempt) {
    out = submitCampaignOnce(spec, opt);
    out.retries = static_cast<std::uint64_t>(attempt);
    if (attempt >= opt.maxRetries) break;
    // Retry ONLY failures where the campaign provably never started: a
    // structured backpressure reject carrying a retry hint, or a connection
    // that never opened. A mid-stream disconnect is NOT retried — the
    // campaign may still be running server-side and a blind resubmit would
    // double-run it.
    const bool retryableReject = out.rejected && out.retryAfterMs > 0;
    const bool retryableConnect = !out.accepted && !out.rejected && !out.done &&
                                  out.error.rfind("cannot connect", 0) == 0;
    if (!retryableReject && !retryableConnect) break;
    std::uint64_t delayMs =
        std::max(backoffMs, retryableReject ? out.retryAfterMs : 0);
    // ±50% jitter: spread [delay/2, 3*delay/2] keeps synchronized clients
    // from re-colliding on the same backoff schedule.
    delayMs = delayMs / 2 + jitter.below(delayMs + 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(delayMs));
    backoffMs *= 2;
  }
  return out;
}

// --- ledger JSON -------------------------------------------------------------

std::string encodeServeLedgerJson(const ServeLedger& ledger) {
  std::string out = "{\n";
  auto num = [&](const char* key, std::uint64_t v) {
    out += "  \"";
    out += key;
    out += "\": ";
    out += std::to_string(v);
    out += ",\n";
  };
  auto escape = [](const std::string& s) {
    std::string r;
    for (char ch : s) {
      if (ch == '"' || ch == '\\') {
        r += '\\';
        r += ch;
      } else if (ch == '\n') {
        r += "\\n";
      } else {
        r += ch;
      }
    }
    return r;
  };
  num("campaignsAccepted", ledger.campaignsAccepted);
  num("campaignsRejected", ledger.campaignsRejected);
  num("campaignsCompleted", ledger.campaignsCompleted);
  num("campaignsCancelled", ledger.campaignsCancelled);
  num("tasksTotal", ledger.tasksTotal);
  num("tasksCompleted", ledger.tasksCompleted);
  num("submissions", ledger.submissions);
  num("duplicateResults", ledger.duplicateResults);
  num("discardedResults", ledger.discardedResults);
  num("workersRequested", ledger.workersRequested);
  num("workersSpawned", ledger.workersSpawned);
  num("workerRespawns", ledger.workerRespawns);
  num("workersKilled", ledger.workersKilled);
  num("heartbeats", ledger.heartbeats);
  num("quarantinedUnits", ledger.quarantinedUnits);
  num("bisections", ledger.bisections);
  num("deadlineFailures", ledger.deadlineFailures);
  num("clientReadTimeouts", ledger.clientReadTimeouts);
  num("frameCapRejects", ledger.frameCapRejects);
  num("drainRequests", ledger.drainRequests);
  out += std::string("  \"drained\": ") + (ledger.drained ? "true" : "false") + ",\n";
  out += "  \"requeuedShards\": [";
  for (std::size_t i = 0; i < ledger.requeuedShards.size(); ++i) {
    const RequeueRecord& r = ledger.requeuedShards[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"campaignId\": " + std::to_string(r.campaignId);
    out += ", \"taskIndex\": " + std::to_string(r.taskIndex);
    out += ", \"itemId\": " + std::to_string(r.unit.taskId);
    out += ", \"mutantBegin\": " + std::to_string(r.unit.mutantBegin);
    out += ", \"mutantEnd\": " + std::to_string(r.unit.mutantEnd);
    out += ", \"attempt\": " + std::to_string(r.attempt);
    out += ", \"reason\": \"" + escape(r.reason) + "\"";
    out += ", \"workerIndex\": " + std::to_string(r.workerIndex);
    out += ", \"generation\": " + std::to_string(r.generation);
    out += "}";
  }
  out += ledger.requeuedShards.empty() ? "],\n" : "\n  ],\n";
  out += "  \"campaigns\": [";
  for (std::size_t i = 0; i < ledger.campaigns.size(); ++i) {
    const CampaignLedgerEntry& c = ledger.campaigns[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"campaignId\": " + std::to_string(c.campaignId);
    out += ", \"name\": \"" + escape(c.name) + "\"";
    out += ", \"unitsTotal\": " + std::to_string(c.unitsTotal);
    out += ", \"unitsCompleted\": " + std::to_string(c.unitsCompleted);
    out += ", \"requeues\": " + std::to_string(c.requeues);
    out += ", \"discardedResults\": " + std::to_string(c.discardedResults);
    out += std::string(", \"cancelled\": ") + (c.cancelled ? "true" : "false");
    out += ", \"error\": \"" + escape(c.error) + "\"";
    out += ", \"bisections\": " + std::to_string(c.bisections);
    out += ", \"quarantined\": [";
    for (std::size_t q = 0; q < c.quarantined.size(); ++q) {
      if (q > 0) out += ", ";
      out += std::to_string(c.quarantined[q]);
    }
    out += "]";
    out += std::string(", \"drained\": ") + (c.drained ? "true" : "false");
    out += "}";
  }
  out += ledger.campaigns.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace xlv::campaign
