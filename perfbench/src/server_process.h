// A `knnq_cli serve` child process: spawned on the generated files,
// ready once it answers PING, stopped (gracefully or by SIGKILL) and
// reaped before the benchmark exits.

#ifndef PERFBENCH_SRC_SERVER_PROCESS_H_
#define PERFBENCH_SRC_SERVER_PROCESS_H_

#include <sys/types.h>

#include <string>
#include <vector>

#include "src/common/status.h"

namespace perfbench {

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();  // SIGKILLs and reaps a still-running child.
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `argv` (stdout and stderr to `log_path`) and waits until
  /// the server logs its port and answers PING. Returns the seconds
  /// from spawn to the PING answer.
  knnq::Result<double> Start(const std::vector<std::string>& argv,
                             const std::string& log_path,
                             double timeout_seconds);

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// Peak resident set (VmHWM) in MiB, read from /proc/<pid>/status.
  knnq::Result<double> PeakRssMib() const;

  /// CPU seconds (user + system) the server has used so far, from
  /// /proc/<pid>/stat. Time the hypervisor steals is not charged, so
  /// CPU per statement holds still when the shared host is busy.
  knnq::Result<double> CpuSeconds() const;

  /// SIGKILL + reap: the crash of the recovery drill.
  void Kill();

  /// SIGTERM (graceful drain) + reap, escalating to SIGKILL after
  /// `grace_seconds`. Returns false when the server had to be killed
  /// or did not exit 0.
  bool Stop(double grace_seconds);

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SERVER_PROCESS_H_
