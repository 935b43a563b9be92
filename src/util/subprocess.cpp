#include "util/subprocess.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace xlv::util {

SubprocessResult runCommandCapture(const std::vector<std::string>& argv) {
  SubprocessResult res;
  if (argv.empty()) return res;

  // Close-on-exec: a child another thread forks concurrently must not
  // inherit this pipe's write end, or this read would wait for that
  // unrelated child to exit before it sees EOF.
  int pipefd[2];
  if (pipe2(pipefd, O_CLOEXEC) != 0) return res;

  const pid_t pid = fork();
  if (pid < 0) {
    close(pipefd[0]);
    close(pipefd[1]);
    return res;
  }
  if (pid == 0) {
    // Child: stdout+stderr into the pipe, stdin from /dev/null.
    dup2(pipefd[1], STDOUT_FILENO);
    dup2(pipefd[1], STDERR_FILENO);
    close(pipefd[0]);
    close(pipefd[1]);
    const int devnull = open("/dev/null", O_RDONLY);
    if (devnull >= 0) {
      dup2(devnull, STDIN_FILENO);
      close(devnull);
    }
    std::vector<char*> args;
    args.reserve(argv.size() + 1);
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    execvp(args[0], args.data());
    _exit(127);  // exec failed (command not found)
  }

  close(pipefd[1]);
  res.started = true;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(pipefd[0], buf, sizeof buf);
    if (n > 0) {
      res.output.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(pipefd[0]);

  int status = 0;
  pid_t waited;
  do {
    waited = waitpid(pid, &status, 0);
  } while (waited < 0 && errno == EINTR);
  if (waited == pid && WIFEXITED(status)) {
    res.exitCode = WEXITSTATUS(status);
    // execvp failure in the child surfaces as exit 127 with no output;
    // report it as "not started" so callers treat a missing compiler the
    // same as an unspawnable one.
    if (res.exitCode == 127 && res.output.empty()) res.started = false;
  } else {
    res.exitCode = -1;
  }
  return res;
}

bool setNonBlocking(int fd) noexcept {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// --- Subprocess --------------------------------------------------------------

Subprocess::Subprocess(Subprocess&& other) noexcept { *this = std::move(other); }

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  if (this == &other) return *this;
  // Dispose of whatever this handle owned before adopting the other's child.
  if (started() && !reaped_) {
    kill(SIGKILL);
    wait();
  }
  closeFds();
  pid_ = other.pid_;
  stdinFd_ = other.stdinFd_;
  stdoutFd_ = other.stdoutFd_;
  reaped_ = other.reaped_;
  exitCode_ = other.exitCode_;
  termSignal_ = other.termSignal_;
  other.pid_ = -1;
  other.stdinFd_ = -1;
  other.stdoutFd_ = -1;
  other.reaped_ = true;
  return *this;
}

Subprocess::~Subprocess() {
  if (started() && !reaped_) {
    kill(SIGKILL);
    wait();
  }
  closeFds();
}

Subprocess Subprocess::spawn(const std::vector<std::string>& argv,
                             const SubprocessEnv& extraEnv) {
  Subprocess p;
  if (argv.empty()) return p;

  // Close-on-exec, so no other child (a later worker, a compiler) inherits
  // this worker's pipe ends; dup2 onto stdin/stdout clears the flag.
  int inPipe[2], outPipe[2];  // parent -> child stdin, child stdout -> parent
  if (pipe2(inPipe, O_CLOEXEC) != 0) return p;
  if (pipe2(outPipe, O_CLOEXEC) != 0) {
    close(inPipe[0]);
    close(inPipe[1]);
    return p;
  }

  const pid_t pid = fork();
  if (pid < 0) {
    close(inPipe[0]);
    close(inPipe[1]);
    close(outPipe[0]);
    close(outPipe[1]);
    return p;
  }
  if (pid == 0) {
    // Child: stdin from the in-pipe, stdout into the out-pipe; stderr
    // inherited so worker diagnostics surface on the parent's stderr.
    dup2(inPipe[0], STDIN_FILENO);
    dup2(outPipe[1], STDOUT_FILENO);
    close(inPipe[0]);
    close(inPipe[1]);
    close(outPipe[0]);
    close(outPipe[1]);
    for (const auto& [name, value] : extraEnv) {
      setenv(name.c_str(), value.c_str(), 1);
    }
    std::vector<char*> args;
    args.reserve(argv.size() + 1);
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    execvp(args[0], args.data());
    _exit(127);  // exec failed (command not found)
  }

  close(inPipe[0]);
  close(outPipe[1]);
  p.pid_ = pid;
  p.stdinFd_ = inPipe[1];
  p.stdoutFd_ = outPipe[0];
  p.reaped_ = false;
  return p;
}

void Subprocess::closeStdin() noexcept {
  if (stdinFd_ >= 0) {
    close(stdinFd_);
    stdinFd_ = -1;
  }
}

bool Subprocess::running() noexcept {
  if (!started() || reaped_) return false;
  int status = 0;
  const pid_t r = waitpid(pid_, &status, WNOHANG);
  if (r == 0) return true;
  if (r == pid_) reapStatus(status);
  // r < 0 (ECHILD — already reaped elsewhere): treat as gone.
  if (r < 0) reaped_ = true;
  return false;
}

void Subprocess::kill(int signal) noexcept {
  if (started() && !reaped_) ::kill(pid_, signal);
}

int Subprocess::wait() noexcept {
  if (!started()) return -1;
  if (!reaped_) {
    int status = 0;
    pid_t r;
    do {
      r = waitpid(pid_, &status, 0);
    } while (r < 0 && errno == EINTR);
    if (r == pid_) {
      reapStatus(status);
    } else {
      reaped_ = true;
    }
  }
  return exitCode_;
}

void Subprocess::reapStatus(int status) noexcept {
  reaped_ = true;
  if (WIFEXITED(status)) {
    exitCode_ = WEXITSTATUS(status);
    termSignal_ = 0;
  } else if (WIFSIGNALED(status)) {
    exitCode_ = -1;
    termSignal_ = WTERMSIG(status);
  }
}

void Subprocess::closeFds() noexcept {
  closeStdin();
  if (stdoutFd_ >= 0) {
    close(stdoutFd_);
    stdoutFd_ = -1;
  }
}

}  // namespace xlv::util
