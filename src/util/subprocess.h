// Child-process management for toolchain invocations and worker pools.
//
// Two layers:
//   * runCommandCapture — the original blocking runner (the native
//     simulation backend shells out to the system C++ compiler): POSIX
//     fork/execvp with stdout+stderr captured into one string.
//   * Subprocess — an asynchronous child handle for long-lived workers
//     (campaign/dispatch.h): stdin/stdout pipes for a frame protocol,
//     non-blocking liveness polling via waitpid(WNOHANG), signal delivery
//     (SIGKILL on heartbeat timeout) and guaranteed reaping on destruction,
//     so a dispatcher owning N workers never leaks zombies.
#pragma once

#include <sys/types.h>

#include <string>
#include <utility>
#include <vector>

namespace xlv::util {

struct SubprocessResult {
  /// False when the child could not be spawned at all (fork/exec failure,
  /// command not found). exitCode/output are meaningless then.
  bool started = false;
  /// Child exit code; -1 when it terminated abnormally (signal).
  int exitCode = -1;
  /// Combined stdout+stderr of the child.
  std::string output;

  bool ok() const noexcept { return started && exitCode == 0; }
};

/// Run `argv` (argv[0] resolved through PATH) and wait for it to finish.
/// Never throws; a spawn failure reports started == false.
SubprocessResult runCommandCapture(const std::vector<std::string>& argv);

/// Put `fd` into O_NONBLOCK mode (preserving the other status flags).
/// The dispatcher and the campaign server switch every worker/client fd to
/// non-blocking and buffer outbound bytes per connection, so one peer with
/// a full pipe can never wedge the single-threaded poll loop. Returns false
/// when fcntl fails (bad fd).
bool setNonBlocking(int fd) noexcept;

/// Extra environment entries set in the child after fork (inheriting the
/// parent environment otherwise). setenv between fork and exec is not
/// async-signal-safe in a multi-threaded parent, so the daemon's worker
/// spawn passes none (workers take their coordinates as flags); the chaos
/// tests use it to arm fault knobs (XLV_FAULTS, XLV_TEST_*) in a daemon
/// they spawn.
using SubprocessEnv = std::vector<std::pair<std::string, std::string>>;

/// Asynchronous child process with piped stdin/stdout (stderr is inherited
/// so worker diagnostics land on the parent's stderr). Move-only; the
/// destructor SIGKILLs and reaps a still-running child.
class Subprocess {
 public:
  Subprocess() = default;
  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;
  ~Subprocess();

  /// Fork/execvp `argv` (argv[0] resolved through PATH) with pipes on the
  /// child's stdin and stdout. Never throws; on failure the returned handle
  /// reports started() == false.
  static Subprocess spawn(const std::vector<std::string>& argv,
                          const SubprocessEnv& extraEnv = {});

  bool started() const noexcept { return pid_ > 0; }
  pid_t pid() const noexcept { return pid_; }

  /// Pipe ends owned by the parent: write tasks into stdinFd, poll/read
  /// frames from stdoutFd. -1 once closed (or when spawn failed).
  int stdinFd() const noexcept { return stdinFd_; }
  int stdoutFd() const noexcept { return stdoutFd_; }

  /// Close the child's stdin (EOF = clean shutdown request for workers).
  void closeStdin() noexcept;

  /// Non-blocking liveness check (waitpid WNOHANG). Once this returns
  /// false, exitCode()/termSignal() describe how the child ended.
  bool running() noexcept;
  /// Deliver a signal; no-op once the child was reaped.
  void kill(int signal) noexcept;
  /// Block until the child exits (reaping it), then return exitCode().
  int wait() noexcept;

  /// After the child was reaped: its exit code, or -1 when it was
  /// terminated by a signal (see termSignal()).
  int exitCode() const noexcept { return exitCode_; }
  /// Terminating signal number, or 0 when the child exited normally.
  int termSignal() const noexcept { return termSignal_; }

 private:
  void reapStatus(int status) noexcept;
  void closeFds() noexcept;

  pid_t pid_ = -1;
  int stdinFd_ = -1;
  int stdoutFd_ = -1;
  bool reaped_ = false;
  int exitCode_ = -1;
  int termSignal_ = 0;
};

}  // namespace xlv::util
