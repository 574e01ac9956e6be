#include "fleet/fleet_supervisor.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace rcj {
namespace fleet {
namespace {

/// How long a spawned backend may take to print its `listening on` line.
constexpr int kStartupTimeoutMs = 15000;

/// Fleet-tier health metrics: death/respawn totals plus a per-backend
/// up/down gauge (labelled by backend index) the smoke can watch flip.
struct SupervisorMetrics {
  obs::Counter* deaths;
  obs::Counter* respawns;

  static SupervisorMetrics& Get() {
    static SupervisorMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
      SupervisorMetrics m;
      m.deaths = registry.counter("rcj_fleet_backend_deaths_total");
      m.respawns = registry.counter("rcj_fleet_backend_respawns_total");
      return m;
    }();
    return metrics;
  }
};

obs::Gauge* BackendUpGauge(size_t index) {
  static std::mutex mu;
  static std::vector<obs::Gauge*> gauges;
  std::lock_guard<std::mutex> lock(mu);
  while (gauges.size() <= index) {
    gauges.push_back(obs::MetricsRegistry::Default().gauge(
        "rcj_fleet_backend_up{backend=\"" + std::to_string(gauges.size()) +
        "\"}"));
  }
  return gauges[index];
}

/// Scans `text` from `*offset` for a serve startup line
/// ("listening on host:port (...)"), advancing `*offset` past consumed
/// full lines. True once a port was parsed.
bool FindListeningLine(const std::string& text, size_t* offset,
                       BackendAddress* address) {
  while (*offset < text.size()) {
    const size_t newline = text.find('\n', *offset);
    if (newline == std::string::npos) return false;  // partial line: wait
    const std::string line = text.substr(*offset, newline - *offset);
    *offset = newline + 1;
    if (line.rfind("listening on ", 0) != 0) continue;
    const size_t start = strlen("listening on ");
    const size_t space = line.find(' ', start);
    const std::string host_port =
        line.substr(start, space == std::string::npos ? std::string::npos
                                                      : space - start);
    BackendAddress parsed;
    if (ParseBackendAddress(host_port, &parsed).ok()) {
      *address = parsed;
      return true;
    }
  }
  return false;
}

/// Reads a whole file into `*out` (best-effort; empty on failure).
void ReadFileTail(const std::string& path, std::string* out) {
  out->clear();
  FILE* file = std::fopen(path.c_str(), "rb");
  if (!file) return;
  char buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    out->append(buffer, got);
  }
  std::fclose(file);
}

}  // namespace

FleetSupervisor::FleetSupervisor(FleetSupervisorOptions options)
    : options_(std::move(options)) {
  if (options_.backends == 0) options_.backends = 1;
}

FleetSupervisor::~FleetSupervisor() { Stop(); }

Status FleetSupervisor::Spawn(size_t index) {
  Backend& backend = backends_[index];
  const int log_fd = open(backend.log_path.c_str(),
                          O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log_fd < 0) {
    return Status::IoError("open " + backend.log_path + ": " +
                           std::strerror(errno));
  }
  // Start scanning the log where it ends now: a respawn appends, and the
  // old process's lines must not satisfy the new port search.
  struct stat st;
  backend.log_scanned = fstat(log_fd, &st) == 0
                            ? static_cast<size_t>(st.st_size)
                            : 0;

  std::vector<std::string> args;
  args.push_back(options_.argv0);
  args.push_back("serve");
  for (const std::string& arg : options_.serve_args) args.push_back(arg);
  if (index < options_.per_backend_args.size()) {
    for (const std::string& arg : options_.per_backend_args[index]) {
      args.push_back(arg);
    }
  }
  args.push_back("--port");
  args.push_back("0");
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(&arg[0]);
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) {
    close(log_fd);
    return Status::IoError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    dup2(log_fd, STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    close(log_fd);
    execv(argv[0], argv.data());
    // Only reached when exec failed; report into the (redirected) log.
    std::fprintf(stderr, "exec %s: %s\n", argv[0], std::strerror(errno));
    _exit(127);
  }
  close(log_fd);
  backend.pid = pid;

  // Tail the log for the listening line to learn the ephemeral port.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(kStartupTimeoutMs);
  std::string log;
  while (std::chrono::steady_clock::now() < deadline) {
    int wait_status = 0;
    if (waitpid(pid, &wait_status, WNOHANG) == pid) {
      backend.pid = -1;
      return Status::IoError("backend " + std::to_string(index) +
                             " exited during startup; see " +
                             backend.log_path);
    }
    ReadFileTail(backend.log_path, &log);
    if (FindListeningLine(log, &backend.log_scanned, &backend.address)) {
      BackendUpGauge(index)->Set(1);
      return Status::OK();
    }
    poll(nullptr, 0, 20);
  }
  kill(pid, SIGKILL);
  waitpid(pid, nullptr, 0);
  backend.pid = -1;
  return Status::IoError("backend " + std::to_string(index) +
                         " did not report a port within " +
                         std::to_string(kStartupTimeoutMs) +
                         "ms; see " + backend.log_path);
}

Status FleetSupervisor::Start() {
  if (mkdir(options_.log_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("mkdir " + options_.log_dir + ": " +
                           std::strerror(errno));
  }
  backends_.resize(options_.backends);
  for (size_t i = 0; i < backends_.size(); ++i) {
    backends_[i].log_path =
        options_.log_dir + "/backend-" + std::to_string(i) + ".log";
  }
  started_ = true;
  for (size_t i = 0; i < backends_.size(); ++i) {
    const Status status = Spawn(i);
    if (!status.ok()) {
      Stop();
      return status;
    }
  }
  return Status::OK();
}

void FleetSupervisor::Stop() {
  if (!started_) return;
  for (Backend& backend : backends_) {
    if (backend.pid > 0) kill(backend.pid, SIGTERM);
  }
  for (size_t i = 0; i < backends_.size(); ++i) {
    Backend& backend = backends_[i];
    if (backend.pid > 0) {
      waitpid(backend.pid, nullptr, 0);
      backend.pid = -1;
      BackendUpGauge(i)->Set(0);
    }
  }
  started_ = false;
}

std::vector<BackendAddress> FleetSupervisor::addresses() const {
  std::vector<BackendAddress> out;
  out.reserve(backends_.size());
  for (const Backend& backend : backends_) out.push_back(backend.address);
  return out;
}

size_t FleetSupervisor::Supervise(
    const std::function<void(size_t index, const BackendAddress& address)>&
        on_respawn) {
  size_t deaths = 0;
  for (size_t i = 0; i < backends_.size(); ++i) {
    Backend& backend = backends_[i];
    if (backend.pid <= 0) continue;
    int wait_status = 0;
    if (waitpid(backend.pid, &wait_status, WNOHANG) != backend.pid) {
      continue;
    }
    ++deaths;
    backend.pid = -1;
    SupervisorMetrics::Get().deaths->Add();
    BackendUpGauge(i)->Set(0);
    if (!options_.respawn) continue;
    if (Spawn(i).ok()) {
      SupervisorMetrics::Get().respawns->Add();
      if (on_respawn) on_respawn(i, backend.address);
    }
  }
  return deaths;
}

}  // namespace fleet
}  // namespace rcj
