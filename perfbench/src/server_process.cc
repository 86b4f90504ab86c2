#include "perfbench/src/server_process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "perfbench/src/client.h"
#include "src/server/loadgen.h"

namespace perfbench {

using knnq::Result;
using knnq::Status;

ServerProcess::~ServerProcess() { Kill(); }

Result<double> ServerProcess::Start(const std::vector<std::string>& argv,
                                    const std::string& log_path,
                                    double timeout_seconds) {
  std::vector<char*> cargv;
  for (const std::string& arg : argv) {
    cargv.push_back(const_cast<char*>(arg.c_str()));
  }
  cargv.push_back(nullptr);
  const int log = ::open(log_path.c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log < 0) return Status::Internal("cannot open " + log_path);
  const pid_t parent = ::getpid();
  const std::int64_t spawned = NowNs();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(log);
    return Status::Internal("fork failed");
  }
  if (pid_ == 0) {
    // The server must not outlive the benchmark.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log, STDOUT_FILENO);
    ::dup2(log, STDERR_FILENO);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  ::close(log);

  const std::int64_t deadline =
      spawned + static_cast<std::int64_t>(timeout_seconds * 1e9);
  constexpr std::string_view kBanner = "serving KNNQL on 127.0.0.1:";
  while (port_ == 0) {
    std::ifstream in(log_path);
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t at = line.find(kBanner);
      if (at != std::string::npos) {
        port_ = std::atoi(line.c_str() + at + kBanner.size());
      }
    }
    if (port_ != 0) break;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return Status::Internal("server exited during startup; see " +
                              log_path);
    }
    if (NowNs() > deadline) {
      return Status::Internal("server did not start within the timeout");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  while (true) {
    auto pong = knnq::server::SendAdminVerb(
        "127.0.0.1", static_cast<std::uint16_t>(port_), "PING");
    if (pong.ok() && pong->find("\"pong\": true") != std::string::npos) break;
    if (NowNs() > deadline) return Status::Internal("server never answered PING");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return static_cast<double>(NowNs() - spawned) / 1e9;
}

Result<double> ServerProcess::PeakRssMib() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return Status::Internal("no VmHWM for the server process");
}

Result<double> ServerProcess::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesized command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) {
    return Status::Internal("no /proc stat for the server process");
  }
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::atof(field.c_str());
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

void ServerProcess::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

bool ServerProcess::Stop(double grace_seconds) {
  if (pid_ <= 0) return true;
  ::kill(pid_, SIGTERM);
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(grace_seconds * 1e9);
  int status = 0;
  while (NowNs() < deadline) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Kill();
  return false;
}

}  // namespace perfbench
