#include "daemon.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

/// The number after `marker` in `text`, or 0.
uint16_t PortAfter(const std::string& text, const std::string& marker) {
  const size_t at = text.find(marker);
  if (at == std::string::npos) return 0;
  return static_cast<uint16_t>(std::atoi(text.c_str() + at + marker.size()));
}

}  // namespace

pprl::Result<std::unique_ptr<Daemon>> Daemon::Start(const std::string& binary,
                                                   const std::vector<std::string>& args,
                                                   const std::string& log_path,
                                                   int timeout_ms) {
  std::vector<std::string> argv_storage = {binary,   "0", "2", "--online",
                                           "--metrics", "0"};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) return pprl::Status::Internal("cannot open daemon log " + log_path);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return pprl::Status::Internal("fork failed");
  }
  if (pid == 0) {
    // Never outlive the benchmark, even if it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  std::unique_ptr<Daemon> daemon(new Daemon(pid, log_path));

  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::string log;
  while (Clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      daemon->reaped_ = true;
      ReadFile(log_path, &log);
      return pprl::Status::Internal("daemon exited during startup: " + log);
    }
    if (ReadFile(log_path, &log)) {
      daemon->port_ = PortAfter(log, "ONLINE on port ");
      daemon->metrics_port_ = PortAfter(log, "metrics at http://127.0.0.1:");
      if (daemon->port_ != 0 && daemon->metrics_port_ != 0) return daemon;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return pprl::Status::Internal("daemon did not report its ports: " + log);
}

Daemon::~Daemon() {
  if (reaped_) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
}

double Daemon::PeakRssMb() const {
  std::string status;
  if (reaped_ || !ReadFile("/proc/" + std::to_string(pid_) + "/status", &status)) {
    return 0;
  }
  const size_t at = status.find("VmHWM:");
  if (at == std::string::npos) return 0;
  return std::atof(status.c_str() + at + 6) / 1024.0;  // kB -> MiB
}

pprl::Status Daemon::Terminate(int timeout_ms) {
  if (reaped_) return pprl::Status::FailedPrecondition("daemon already exited");
  ::kill(pid_, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      reaped_ = true;
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return pprl::Status::OK();
      return pprl::Status::Internal("daemon exited abnormally (status " +
                                    std::to_string(status) + ")");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  reaped_ = true;
  return pprl::Status::Internal("daemon ignored SIGTERM");
}

pprl::Result<std::string> Daemon::ScrapeMetrics() const {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return pprl::Status::Internal("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(metrics_port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  timeval tv{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return pprl::Status::IoError("metrics endpoint refused the connection");
  }
  const char request[] = "GET /metrics HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  if (::send(fd, request, sizeof(request) - 1, MSG_NOSIGNAL) < 0) {
    ::close(fd);
    return pprl::Status::Internal("metrics request failed");
  }
  std::string response;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t body = response.find("\r\n\r\n");
  if (response.compare(0, 12, "HTTP/1.0 200") != 0 &&
      response.compare(0, 12, "HTTP/1.1 200") != 0) {
    return pprl::Status::Internal("metrics endpoint answered: " + response.substr(0, 64));
  }
  return body == std::string::npos ? response : response.substr(body + 4);
}

HistogramTotals ParseHistogram(const std::string& text, const std::string& name) {
  HistogramTotals totals;
  std::istringstream lines(text);
  std::string line;
  const std::string sum_name = name + "_sum";
  const std::string count_name = name + "_count";
  const auto value_of = [](const std::string& l) {
    const size_t space = l.rfind(' ');
    return space == std::string::npos ? 0.0 : std::atof(l.c_str() + space + 1);
  };
  const auto is_series = [](const std::string& l, const std::string& series) {
    return l.compare(0, series.size(), series) == 0 && l.size() > series.size() &&
           (l[series.size()] == ' ' || l[series.size()] == '{');
  };
  while (std::getline(lines, line)) {
    if (is_series(line, sum_name)) totals.sum += value_of(line);
    if (is_series(line, count_name)) totals.count += value_of(line);
  }
  return totals;
}

}  // namespace perfbench
