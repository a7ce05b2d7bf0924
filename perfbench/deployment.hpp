// The loopback 3-process deployment the classify_served workload drives:
// `ddnn serve --role cloud` and `--role edge` as child processes, each at
// DDNN_THREADS=1, with the driver in the benchmark process.
#pragma once

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "dist/transport.hpp"
#include "harness.hpp"

namespace perfbench {

/// Owns spawned role processes: whatever is still running at destruction
/// is killed and reaped, on every exit path.
class Children {
 public:
  Children() = default;
  ~Children();
  Children(const Children&) = delete;
  Children& operator=(const Children&) = delete;

  pid_t spawn(const std::vector<std::string>& argv, const std::string& log);
  /// True while `pid` has not exited (reaps it when it has).
  bool alive(pid_t pid);
  /// Wait up to `timeout_s` for every child to exit on its own.
  void wait_all(double timeout_s);

 private:
  std::vector<pid_t> pids_;
};

class Deployment {
 public:
  /// Start the cloud, then the edge, on OS-assigned ports, both serving
  /// `model_path`. Throws if a role exits or has not written its port file
  /// within the start timeout; the roles already started are killed.
  Deployment(const Options& options, const std::string& model_path);
  /// Release the edge's keepalive connection so both roles exit on their
  /// own; kill whichever is still running after a bounded wait.
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const std::string& edge_addr() const { return edge_addr_; }
  const std::string& cloud_addr() const { return cloud_addr_; }
  pid_t edge_pid() const { return edge_pid_; }
  pid_t cloud_pid() const { return cloud_pid_; }

 private:
  int await_port(pid_t pid, const std::string& role,
                 const std::string& port_file, const std::string& log);

  Children children_;
  pid_t cloud_pid_ = -1;
  pid_t edge_pid_ = -1;
  std::string cloud_addr_;
  std::string edge_addr_;
  /// An idle connection to the edge. A serving role exits once every peer
  /// has hung up; holding this open lets the benchmark run many driver
  /// sessions (one per drive_hierarchy call) against one deployment.
  std::shared_ptr<ddnn::dist::FrameConn> keepalive_;
};

}  // namespace perfbench
