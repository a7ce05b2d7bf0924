#include "harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double child_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  // The command name (field 2) may hold spaces; fields resume after ')'.
  const auto close = line.rfind(')');
  if (close == std::string::npos) {
    throw std::runtime_error("cannot read /proc/" + std::to_string(pid) +
                             "/stat");
  }
  std::istringstream fields(line.substr(close + 2));
  std::string skip;
  for (int field = 3; field < 14; ++field) fields >> skip;
  double utime = 0.0;
  double stime = 0.0;
  fields >> utime >> stime;
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("no VmHWM in " + path);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::runtime_error("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::fail(const std::string& why) { errors_.push_back(why); }

std::string Result::to_json(std::int64_t attempted,
                            std::int64_t failed) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (!std::isfinite(m.value)) {
      throw std::runtime_error("metric " + m.name + " is not finite");
    }
    std::snprintf(num, sizeof num, "%.17g", m.value);
    os << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << num
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

std::vector<double> durations(const ddnn::obs::SpanTracer& spans,
                              const std::string& name) {
  std::vector<double> out;
  for (const auto& s : spans.spans()) {
    if (s.name == name) out.push_back(s.dur_s);
  }
  return out;
}

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h = (h ^ c) * 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace perfbench
