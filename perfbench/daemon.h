#ifndef PPRL_PERFBENCH_DAEMON_H_
#define PPRL_PERFBENCH_DAEMON_H_

// The daemon under test as a child process: started with an ephemeral
// service port and metrics port, read back from its log, and always
// stopped and reaped before the benchmark exits.

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

class Daemon {
 public:
  /// Spawns `binary args... 0 2 --online --metrics 0` with stdout and
  /// stderr appended to `log_path`, and waits until the log names both
  /// bound ports. `args` go after the role flags.
  static pprl::Result<std::unique_ptr<Daemon>> Start(const std::string& binary,
                                                     const std::vector<std::string>& args,
                                                     const std::string& log_path,
                                                     int timeout_ms = 60000);

  /// Kills (SIGKILL) and reaps the child if it is still running.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  uint16_t port() const { return port_; }
  uint16_t metrics_port() const { return metrics_port_; }

  /// Peak resident set of the child so far (VmHWM), in MiB; 0 when it
  /// cannot be read.
  double PeakRssMb() const;

  /// Sends SIGTERM and waits for a clean exit (graceful drain and final
  /// checkpoint); SIGKILL and an error after `timeout_ms`.
  pprl::Status Terminate(int timeout_ms = 60000);

  /// GET /metrics from the daemon's metrics endpoint.
  pprl::Result<std::string> ScrapeMetrics() const;

 private:
  Daemon(pid_t pid, std::string log_path) : pid_(pid), log_path_(std::move(log_path)) {}

  pid_t pid_;
  std::string log_path_;
  uint16_t port_ = 0;
  uint16_t metrics_port_ = 0;
  bool reaped_ = false;
};

/// Sum and count of a Prometheus histogram family in exposition text
/// (all label sets added up); {0, 0} when absent.
struct HistogramTotals {
  double sum = 0;
  double count = 0;
};
HistogramTotals ParseHistogram(const std::string& text, const std::string& name);

}  // namespace perfbench

#endif  // PPRL_PERFBENCH_DAEMON_H_
