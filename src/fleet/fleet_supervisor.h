// FleetSupervisor — spawns and babysits N local backend serve processes
// for `rcj_tool fleet` (the dev/CI topology: one machine, one proxy, N
// backends on ephemeral ports).
//
// Each backend is fork/exec'd as `<argv0> serve <serve_args...> --port 0`
// with stdout+stderr redirected to `<log_dir>/backend-<i>.log`; the
// supervisor tails the log for the server's `listening on host:port`
// line to learn the ephemeral port. Redirecting to a file (rather than a
// pipe) kills two birds: the parent never has to drain a pipe to keep
// the child from blocking, and the per-backend logs are exactly what the
// CI smoke uploads as artifacts on failure.
//
// Supervise() reaps dead children (waitpid WNOHANG) and respawns them;
// the respawn callback hands the new address to the proxy
// (FleetProxy::SetBackendAddress), which drops any pooled connections to
// the dead process. A respawned backend re-registers its environments
// from the same command line; when the fleet runs with per-backend WAL
// dirs (per_backend_args carrying --wal-dir), the new process replays
// its own journal and the proxy's catch-up protocol
// (FleetProxy::CatchUp) feeds it the mutations relayed while it was
// down, so no acknowledged write is lost across a kill -9.
#ifndef RINGJOIN_FLEET_FLEET_SUPERVISOR_H_
#define RINGJOIN_FLEET_FLEET_SUPERVISOR_H_

#include <sys/types.h>

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "fleet/backend_pool.h"

namespace rcj {
namespace fleet {

struct FleetSupervisorOptions {
  /// The rcj_tool binary to exec (usually /proc/self/exe).
  std::string argv0;
  /// Arguments after "serve" shared by every backend (--q/--p/--envs...).
  /// The supervisor appends `--port 0` itself.
  std::vector<std::string> serve_args;
  /// Extra per-backend arguments appended after `serve_args` — the slot
  /// for state each backend must own alone, like its `--wal-dir`.
  /// Indexed by backend; backends past the vector's end get no extras.
  /// A respawn reuses the same extras, which is what lets the new
  /// process find its predecessor's journal.
  std::vector<std::vector<std::string>> per_backend_args;
  /// Number of backend processes.
  size_t backends = 2;
  /// Directory for per-backend logs; created if missing.
  std::string log_dir = "fleet-logs";
  /// Respawn dead backends in Supervise().
  bool respawn = true;
};

class FleetSupervisor {
 public:
  explicit FleetSupervisor(FleetSupervisorOptions options);
  ~FleetSupervisor();

  RINGJOIN_DISALLOW_COPY_AND_ASSIGN(FleetSupervisor);

  /// Spawns every backend and waits for each to report its port.
  Status Start();

  /// SIGTERMs and reaps every live backend. Idempotent; also run by the
  /// destructor.
  void Stop();

  /// The backends' dialing addresses, in index order; valid after
  /// Start() (and updated by Supervise() respawns).
  std::vector<BackendAddress> addresses() const;

  BackendAddress address(size_t index) const { return backends_[index].address; }
  pid_t pid(size_t index) const { return backends_[index].pid; }

  /// One supervision pass: reaps exited backends and (when configured)
  /// respawns them, reporting each respawn's index and new address via
  /// `on_respawn` (may be null). Returns the number of deaths observed.
  /// Call periodically from the serving loop.
  size_t Supervise(
      const std::function<void(size_t index, const BackendAddress& address)>&
          on_respawn);

 private:
  struct Backend {
    pid_t pid = -1;
    BackendAddress address;
    std::string log_path;
    /// Byte offset into the log already scanned for `listening on`
    /// lines; a respawned backend appends to the same log, and its new
    /// port line is found past this offset.
    size_t log_scanned = 0;
  };

  /// Forks and execs backend `index`, then tails its log for the
  /// listening line to fill in the address.
  Status Spawn(size_t index);

  FleetSupervisorOptions options_;
  std::vector<Backend> backends_;
  bool started_ = false;
};

}  // namespace fleet
}  // namespace rcj

#endif  // RINGJOIN_FLEET_FLEET_SUPERVISOR_H_
