#include "deployment.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {

namespace {

constexpr double kStartTimeout_s = 30.0;
constexpr double kStopTimeout_s = 5.0;

std::string log_tail(const std::string& path) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text.size() > 2000 ? text.substr(text.size() - 2000) : text;
}

}  // namespace

Children::~Children() {
  for (const pid_t pid : pids_) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
}

pid_t Children::spawn(const std::vector<std::string>& argv,
                      const std::string& log) {
  // Roles inherit the benchmark's environment (DDNN_RESULTS_DIR=off,
  // DDNN_CACHE_DIR=off) with the thread count pinned to one.
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DDNN_THREADS=", 13) != 0) env.emplace_back(*e);
  }
  env.emplace_back("DDNN_THREADS=1");
  std::vector<char*> envp;
  for (auto& s : env) envp.push_back(s.data());
  envp.push_back(nullptr);
  std::vector<std::string> args = argv;
  std::vector<char*> argp;
  for (auto& s : args) argp.push_back(s.data());
  argp.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, argp[0], &actions, nullptr, argp.data(),
                             envp.data());
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw std::runtime_error("cannot start " + argv[0] + ": " +
                             std::strerror(rc));
  }
  pids_.push_back(pid);
  return pid;
}

bool Children::alive(pid_t pid) {
  const auto it = std::find(pids_.begin(), pids_.end(), pid);
  if (it == pids_.end()) return false;
  if (::waitpid(pid, nullptr, WNOHANG) == 0) return true;
  pids_.erase(it);
  return false;
}

void Children::wait_all(double timeout_s) {
  const double deadline = now_s() + timeout_s;
  while (!pids_.empty() && now_s() < deadline) {
    const std::vector<pid_t> pids = pids_;
    for (const pid_t pid : pids) alive(pid);
    if (!pids_.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

Deployment::Deployment(const Options& options, const std::string& model_path) {
  const auto role_argv = [&](const std::string& role) {
    return std::vector<std::string>{
        options.ddnn, "serve", "--role", role, "--preset", "e", "--devices",
        "6", "--filters", "4", "--model", model_path, "--threshold=-1",
        "--listen", "0", "--port-file",
        options.workdir + "/" + role + ".port", "--idle-timeout", "60"};
  };
  for (const char* role : {"cloud", "edge"}) {
    std::remove((options.workdir + "/" + role + ".port").c_str());
  }

  const std::string cloud_log = options.workdir + "/cloud.log";
  cloud_pid_ = children_.spawn(role_argv("cloud"), cloud_log);
  cloud_addr_ = "127.0.0.1:" + std::to_string(await_port(
                                   cloud_pid_, "cloud",
                                   options.workdir + "/cloud.port", cloud_log));

  auto edge_argv = role_argv("edge");
  edge_argv.insert(edge_argv.end(), {"--cloud", cloud_addr_});
  const std::string edge_log = options.workdir + "/edge.log";
  edge_pid_ = children_.spawn(edge_argv, edge_log);
  edge_addr_ = "127.0.0.1:" + std::to_string(await_port(
                                  edge_pid_, "edge",
                                  options.workdir + "/edge.port", edge_log));

  keepalive_ = ddnn::dist::connect_to(edge_addr_, kStartTimeout_s);
  if (keepalive_ == nullptr) {
    throw std::runtime_error("cannot connect to the edge at " + edge_addr_);
  }
}

Deployment::~Deployment() {
  keepalive_.reset();
  children_.wait_all(kStopTimeout_s);
}

int Deployment::await_port(pid_t pid, const std::string& role,
                           const std::string& port_file,
                           const std::string& log) {
  const double deadline = now_s() + kStartTimeout_s;
  while (now_s() < deadline) {
    std::ifstream in(port_file);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // The role writes "<port>\n"; the newline marks a complete write.
    if (!text.empty() && text.back() == '\n') return std::stoi(text);
    if (!children_.alive(pid)) {
      throw std::runtime_error(role + " role exited before listening:\n" +
                               log_tail(log));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  throw std::runtime_error(role + " role wrote no port file within " +
                           std::to_string(kStartTimeout_s) + " s:\n" +
                           log_tail(log));
}

}  // namespace perfbench
