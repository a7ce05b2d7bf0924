// Wall-clock benchmark of the DDNN hierarchy. Run it through run.py, which
// builds it and pins each workload's DDNN_THREADS:
//
//   python3 perfbench/run.py --workload classify_inproc --seed 1 --seconds 10 --trace 0
//
// An untraced run (--trace 0) sets up the workload several times and
// reports the median set-up time, then runs one caller in a closed loop for
// --seconds and reports the end-to-end metrics. A traced run (--trace 1)
// runs the loop half untraced, half traced, and adds the per-layer probes
// (layers.cpp). Both end with the workload's correctness gate. The last
// stdout line is the result object; the line before it is the host and
// build fingerprint.
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "harness.hpp"
#include "layers.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

// Set-up is repeated at least kSetupRuns times and for at least
// kSetupSeconds, and the median is reported.
constexpr int kSetupRuns = 7;
constexpr double kSetupSeconds = 3.0;

Options parse(int argc, char** argv) {
  Options o;
  bool seen_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
      seen_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::runtime_error("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--ddnn") {
      o.ddnn = value;
    } else if (flag == "--workdir") {
      o.workdir = value;
    } else if (flag == "--commit") {
      o.commit = value;
    } else {
      throw std::runtime_error("unknown option " + flag);
    }
  }
  if (!seen_workload) throw std::runtime_error("--workload is required");
  if (!(o.seconds > 0.0)) throw std::runtime_error("--seconds must be positive");
  // Traced runs of every workload start the served deployment too.
  if (o.workdir.empty() || o.ddnn.empty()) {
    throw std::runtime_error("--workdir and --ddnn are required");
  }
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Median time of a fixed scalar loop: a host-speed reference taken before
/// set-up and after the timed loop, so a reader can tell a slow host from
/// slow code. (Shared hosts shift speed by more than half in phases of
/// seconds to minutes.)
double host_reference_us() {
  std::vector<double> t;
  for (int rep = 0; rep < 21; ++rep) {
    const double t0 = now_s();
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 200000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    t.push_back(now_s() - t0);
    if (x == 0) std::fprintf(stderr, "unreachable\n");
  }
  return 1e6 * median(t);
}

void print_fingerprint(const Options& o, const std::string& output_digest,
                       double ref_before_us, double ref_after_us) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int usable = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : -1;
  std::printf(
      "{\"fingerprint\": {\"cpu_model\": %s, \"nproc\": %d, \"online_cpus\": "
      "%ld, \"ddnn_threads\": %d, \"build_type\": %s, \"cxx_flags\": %s, "
      "\"commit\": %s, \"workload\": %s, \"seed\": %llu, \"seconds\": %.17g, "
      "\"trace\": %d, \"output_digest\": %s, \"host_ref_us_before\": %.1f, "
      "\"host_ref_us_after\": %.1f}}\n",
      json_string(cpu_model()).c_str(), usable, sysconf(_SC_NPROCESSORS_ONLN),
      ddnn::ThreadPool::instance().size(), json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(PERFBENCH_CXX_FLAGS).c_str(), json_string(o.commit).c_str(),
      json_string(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      o.seconds, o.trace ? 1 : 0, json_string(output_digest).c_str(), ref_before_us,
      ref_after_us);
}

// Throughput and CPU per op are means over the loop, so they follow the
// share of ops a run spends in the host's slow mode (perfbench/README.md);
// traced runs report them ungated as per-layer metrics.
void set_end_to_end(Result& r, const std::vector<double>& setup_s, const Loop& loop,
                    double peak_rss_mb) {
  r.set("setup_s", median(setup_s), "s");
  r.set("latency_p90_ms", 1e3 * quantile(loop.op_s, 0.90), "ms");
  r.set("peak_rss_mb", peak_rss_mb, "MB");
}

int run(const Options& o) {
  std::filesystem::create_directories(o.workdir);
  const double ref_before_us = host_reference_us();
  const auto workload = make_workload(o.workload, o);
  Result result;
  std::vector<double> setup_s;
  const double setup_end = now_s() + (o.trace ? 0.0 : kSetupSeconds);
  for (int i = 0; i < (o.trace ? 1 : kSetupRuns) || now_s() < setup_end; ++i) {
    const double t0 = now_s();
    workload->setup();
    setup_s.push_back(now_s() - t0);
  }
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  if (!o.trace) {
    const Loop loop = workload->run(o.seconds, nullptr);
    workload->check(result);
    set_end_to_end(result, setup_s, loop, workload->peak_rss_mb());
    attempted = static_cast<std::int64_t>(loop.op_s.size());
    failed = loop.failed;
  } else {
    ddnn::obs::SpanTracer spans;
    const Loop plain = workload->run(0.5 * o.seconds, nullptr);
    const Loop traced = workload->run(0.5 * o.seconds, &spans);
    workload->check(result);
    probe_layers(o, spans, result);
    // Ungated: the host's noisy phases move a millisecond op's p99 by a
    // third between sets of runs, and the loop means with the share of ops
    // in the host's slow mode (perfbench/README.md).
    result.set("tail.latency_p99_ms", 1e3 * quantile(plain.op_s, 0.99), "ms");
    result.set("loop.samples_per_s", static_cast<double>(plain.units) / plain.wall_s,
               "1/s");
    result.set("loop.cpu_us_per_op",
               1e6 * plain.cpu_s / static_cast<double>(plain.op_s.size()), "us");
    result.set("trace_overhead_frac",
               quantile(traced.op_s, 0.90) / quantile(plain.op_s, 0.90) - 1.0, "frac");
    spans.write_json(o.workdir + "/spans.json");
    attempted = static_cast<std::int64_t>(plain.op_s.size() + traced.op_s.size());
    failed = plain.failed + traced.failed;
  }
  print_fingerprint(o, workload->output_digest(), ref_before_us, host_reference_us());
  for (const auto& e : result.errors()) {
    std::fprintf(stderr, "perfbench: correctness gate failed: %s\n", e.c_str());
  }
  std::printf("%s\n", result.to_json(attempted, failed).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Nothing under results/ or .ddnn_cache, in this process or the roles
  // it spawns.
  setenv("DDNN_RESULTS_DIR", "off", 1);
  setenv("DDNN_CACHE_DIR", "off", 1);
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
