#include "obs/slo.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/json.hpp"
#include "obs/timeseries.hpp"
#include "util/error.hpp"

namespace ddnn::obs {

namespace {

/// Burn when the error budget is zero (target == 1): any bad event is an
/// immediate, unbounded overspend; report a large finite rate so the JSON
/// stays parseable.
constexpr double kInfiniteBurn = 1.0e9;

/// Both-window burn rates at or above which an objective is warn/critical.
constexpr double kWarnBurn = 1.0;
constexpr double kCriticalBurn = 2.0;

double burn_rate(std::int64_t good, std::int64_t bad, double target) {
  const std::int64_t total = good + bad;
  if (total == 0) return 0.0;
  const double err = static_cast<double>(bad) / static_cast<double>(total);
  const double budget = 1.0 - target;
  if (budget <= 0.0) return bad > 0 ? kInfiniteBurn : 0.0;
  return err / budget;
}

}  // namespace

const char* to_string(HealthState s) {
  switch (s) {
    case HealthState::kOk:
      return "ok";
    case HealthState::kWarn:
      return "warn";
    case HealthState::kCritical:
      return "critical";
  }
  return "ok";
}

HealthState worse(HealthState a, HealthState b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

int SloEngine::add_objective(const SloObjective& objective) {
  DDNN_CHECK(!objective.name.empty(), "slo objective needs a name");
  DDNN_CHECK(objective.target > 0.0 && objective.target <= 1.0,
             "slo '" << objective.name << "' target " << objective.target
                     << " not in (0, 1]");
  DDNN_CHECK(objective.fast_window > 0.0 &&
                 objective.slow_window >= objective.fast_window,
             "slo '" << objective.name
                     << "' windows must satisfy 0 < fast <= slow");
  const int existing = objective_id(objective.name);
  if (existing >= 0) return existing;
  Objective o;
  o.config = objective;
  o.bucket_width = objective.fast_window / 12.0;
  objectives_.push_back(std::move(o));
  return static_cast<int>(objectives_.size()) - 1;
}

int SloEngine::objective_id(const std::string& name) const {
  for (std::size_t i = 0; i < objectives_.size(); ++i) {
    if (objectives_[i].config.name == name) return static_cast<int>(i);
  }
  return -1;
}

void SloEngine::record_slow(int id, double t, bool good) {
  DDNN_CHECK(id >= 0 && id < static_cast<int>(objectives_.size()),
             "record into unknown slo objective " << id);
  DDNN_CHECK(t >= 0.0, "slo clock " << t << " is negative");
  DDNN_CHECK(t >= last_t_, "slo clock went backwards: " << t << " < "
                                                        << last_t_);
  last_t_ = t;
  Objective& o = objectives_[static_cast<std::size_t>(id)];
  const auto b = static_cast<std::size_t>(t / o.bucket_width);
  if (b >= o.good.size()) {
    o.good.resize(b + 1, 0);
    o.bad.resize(b + 1, 0);
  }
  o.open_bucket = b;
  o.open_lo = window_start(o.bucket_width, static_cast<std::int64_t>(b));
  o.open_hi = window_start(o.bucket_width, static_cast<std::int64_t>(b) + 1);
  if (good) {
    ++o.good[b];
    ++o.total_good;
  } else {
    ++o.bad[b];
    ++o.total_bad;
  }
}

double SloEngine::window_burn(const Objective& o, double window) const {
  if (o.good.empty()) return 0.0;
  const auto cur = static_cast<std::int64_t>(last_t_ / o.bucket_width);
  const auto span = static_cast<std::int64_t>(
      std::ceil(window / o.bucket_width));
  const std::int64_t first = std::max<std::int64_t>(0, cur - span + 1);
  std::int64_t good = 0;
  std::int64_t bad = 0;
  const auto last = std::min<std::int64_t>(
      cur, static_cast<std::int64_t>(o.good.size()) - 1);
  for (std::int64_t b = first; b <= last; ++b) {
    good += o.good[static_cast<std::size_t>(b)];
    bad += o.bad[static_cast<std::size_t>(b)];
  }
  return burn_rate(good, bad, o.config.target);
}

SloStatus SloEngine::status_of(const Objective& o) const {
  SloStatus s;
  s.name = o.config.name;
  s.tier = o.config.tier;
  s.target = o.config.target;
  s.good = o.total_good;
  s.bad = o.total_bad;
  const std::int64_t total = s.good + s.bad;
  s.ratio = total == 0
                ? 1.0
                : static_cast<double>(s.good) / static_cast<double>(total);
  s.fast_burn = window_burn(o, o.config.fast_window);
  s.slow_burn = window_burn(o, o.config.slow_window);
  // Multi-window rule: degrade only when both windows agree — the fast one
  // proves it is happening now, the slow one that it is not a blip.
  if (s.fast_burn >= kCriticalBurn && s.slow_burn >= kCriticalBurn) {
    s.state = HealthState::kCritical;
  } else if (s.fast_burn >= kWarnBurn && s.slow_burn >= kWarnBurn) {
    s.state = HealthState::kWarn;
  } else {
    s.state = HealthState::kOk;
  }
  return s;
}

std::vector<SloStatus> SloEngine::evaluate() const {
  std::vector<SloStatus> out;
  out.reserve(objectives_.size());
  for (const auto& o : objectives_) out.push_back(status_of(o));
  return out;
}

std::vector<TierHealth> SloEngine::tier_health() const {
  std::vector<TierHealth> out;
  for (const auto& status : evaluate()) {
    TierHealth* slot = nullptr;
    for (auto& t : out) {
      if (t.tier == status.tier) slot = &t;
    }
    if (slot == nullptr) {
      out.push_back({status.tier, status.state});
    } else {
      slot->state = worse(slot->state, status.state);
    }
  }
  return out;
}

HealthState SloEngine::overall() const {
  HealthState state = HealthState::kOk;
  for (const auto& status : evaluate()) state = worse(state, status.state);
  return state;
}

std::string SloEngine::to_json() const {
  std::ostringstream os;
  os << "{\n  \"objectives\": [\n";
  const auto statuses = evaluate();
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    const SloStatus& s = statuses[i];
    os << "    {\"name\": \"" << s.name << "\", \"tier\": \"" << s.tier
       << "\", \"target\": " << json_double(s.target)
       << ", \"good\": " << s.good << ", \"bad\": " << s.bad
       << ", \"ratio\": " << json_double(s.ratio)
       << ", \"fast_burn\": " << json_double(s.fast_burn)
       << ", \"slow_burn\": " << json_double(s.slow_burn) << ", \"state\": \""
       << to_string(s.state) << "\"}"
       << (i + 1 == statuses.size() ? "" : ",") << "\n";
  }
  os << "  ],\n  \"tiers\": [\n";
  const auto tiers = tier_health();
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    os << "    {\"tier\": \"" << tiers[i].tier << "\", \"state\": \""
       << to_string(tiers[i].state) << "\"}"
       << (i + 1 == tiers.size() ? "" : ",") << "\n";
  }
  os << "  ],\n  \"overall\": \"" << to_string(overall()) << "\"\n}\n";
  return os.str();
}

Table SloEngine::to_table() const {
  Table table(
      {"Objective", "Tier", "Target", "Ratio", "Fast burn", "Slow burn",
       "State"});
  for (const auto& s : evaluate()) {
    table.add_row({s.name, s.tier, Table::num(s.target, 4),
                   Table::num(s.ratio, 6), Table::num(s.fast_burn, 3),
                   Table::num(s.slow_burn, 3), to_string(s.state)});
  }
  return table;
}

// ------------------------------------------------------ snapshot health

namespace {

/// Snapshot objectives: a latency signal's p99 at or under this is ok (at
/// or under twice it, warn), and the non-degraded fraction must reach the
/// availability target.
constexpr double kLatencySloMs = 250.0;
constexpr double kAvailabilityTarget = 0.99;

HealthState latency_state(double p99) {
  if (p99 <= kLatencySloMs) return HealthState::kOk;
  if (p99 <= 2.0 * kLatencySloMs) return HealthState::kWarn;
  return HealthState::kCritical;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

std::string health_from_metrics(const std::string& metrics_json) {
  const JsonValue doc = parse_json(metrics_json);
  const JsonValue& metrics = doc.at("metrics");
  DDNN_CHECK(metrics.is_array(), "metrics export is not an array");

  std::ostringstream os;
  os << "{\n  \"slo\": {\"latency_ms\": " << json_double(kLatencySloMs)
     << ", \"availability_target\": " << json_double(kAvailabilityTarget)
     << "},\n  \"signals\": [\n";

  HealthState overall = HealthState::kOk;
  std::vector<std::string> signals;
  std::int64_t total = 0;
  std::int64_t degraded = 0;
  std::int64_t dead = 0;
  for (const JsonValue& m : metrics.items) {
    const std::string& name = m.at("name").s;
    const std::string& type = m.at("type").s;
    if (type == "counter") {
      if (ends_with(name, ".samples")) total += m.at("value").i;
      if (ends_with(name, ".degraded")) degraded += m.at("value").i;
      if (ends_with(name, ".dead")) dead += m.at("value").i;
      continue;
    }
    if (type != "hdr" || !ends_with(name, "latency_ms")) {
      continue;
    }
    const std::int64_t n = m.at("count").i;
    const double p99 = m.at("p99").number();
    const HealthState state =
        n == 0 ? HealthState::kOk : latency_state(p99);
    overall = worse(overall, state);
    std::ostringstream sig;
    sig << "    {\"name\": \"" << name << "\", \"kind\": \"latency\", \"n\": "
        << n << ", \"p99\": " << json_double(p99)
        << ", \"max\": " << json_double(m.at("max").number());
    if (const JsonValue* sample = m.find("p99_sample")) {
      sig << ", \"p99_sample\": " << sample->i
          << ", \"p99_trace_id\": " << m.at("p99_trace_id").i;
    }
    sig << ", \"state\": \"" << to_string(state) << "\"}";
    signals.push_back(sig.str());
  }
  for (std::size_t i = 0; i < signals.size(); ++i) {
    os << signals[i] << (i + 1 == signals.size() ? "" : ",") << "\n";
  }

  const std::int64_t bad = degraded + dead;
  const double ratio =
      total == 0 ? 1.0
                 : 1.0 - static_cast<double>(bad) / static_cast<double>(total);
  HealthState avail = HealthState::kOk;
  if (total > 0 && ratio < kAvailabilityTarget) {
    // One budget width below target is warn; beyond that, critical.
    const double budget = 1.0 - kAvailabilityTarget;
    avail = ratio >= kAvailabilityTarget - budget
                ? HealthState::kWarn
                : HealthState::kCritical;
  }
  overall = worse(overall, avail);

  os << "  ],\n  \"availability\": {\"total\": " << total
     << ", \"degraded\": " << degraded << ", \"dead\": " << dead
     << ", \"ratio\": " << json_double(ratio) << ", \"state\": \""
     << to_string(avail) << "\"},\n  \"overall\": \"" << to_string(overall)
     << "\"\n}\n";
  return os.str();
}

}  // namespace ddnn::obs
