// Shared pieces of the wall-clock benchmark: clocks, process accounting,
// order statistics, the result document and wall-clock spans.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string ddnn;     // the `ddnn` CLI binary the served roles run
  std::string workdir;  // scratch directory for the model file + port files
  std::string commit;   // source identity for the fingerprint
};

/// Monotonic wall clock in seconds.
double now_s();
/// CPU time (user + system) consumed by this process so far, in seconds.
double process_cpu_s();
/// CPU time (user + system) of another live process, from /proc.
double child_cpu_s(pid_t pid);
/// Peak resident set (VmHWM) in MB; pid 0 means this process.
double peak_rss_mb(pid_t pid = 0);

/// Nearest-rank quantile (q in (0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// What one closed-loop timing phase measured.
struct Loop {
  std::vector<double> op_s;  // wall time of every op, seconds
  double wall_s = 0.0;       // loop wall time
  double cpu_s = 0.0;        // CPU time of every process doing the work
  std::int64_t units = 0;    // samples classified/trained, or arrivals
  std::int64_t failed = 0;   // ops that failed or degraded
};

/// The result object, printed as the last stdout line.
class Result {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Record a correctness-gate failure (the run then reports correct=false).
  void fail(const std::string& why);
  bool correct() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }
  std::string to_json(std::int64_t attempted, std::int64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
};

/// Durations (seconds) of every span with this name.
std::vector<double> durations(const ddnn::obs::SpanTracer& spans,
                              const std::string& name);

/// FNV-1a hash of `bytes` as 16 hex digits: a short output digest that
/// runs with equal inputs can be compared by.
std::string fnv1a_hex(const std::string& bytes);

/// RAII span around a call into a layer, on the wall clock: recorded in the
/// tracer when it closes; inert when the tracer is null (untraced runs pay
/// one branch).
class Scope {
 public:
  Scope(ddnn::obs::SpanTracer* spans, const char* name)
      : spans_(spans), name_(name), start_s_(spans != nullptr ? now_s() : 0.0) {}
  ~Scope() {
    if (spans_ != nullptr) spans_->add(name_, "bench", 0, start_s_, now_s() - start_s_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  ddnn::obs::SpanTracer* spans_;
  const char* name_;
  double start_s_;
};

}  // namespace perfbench
