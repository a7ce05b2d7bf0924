#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "obs/ledger.hpp"
#include "util/error.hpp"
#include "util/results.hpp"

namespace ddnn::obs {

namespace {

// ------------------------------------------------------------- small utils

std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string fmt_short(double v) {
  char buf[40];
  if (v == std::floor(v) && std::abs(v) < 1.0e12) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.4g", v);
  }
  return buf;
}

std::string fmt_coord(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

bool is_number(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

double to_double(const std::string& s) { return std::strtod(s.c_str(), nullptr); }

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// --------------------------------------------------------------- CSV input

struct CsvFile {
  std::string path;
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> out;
  std::string cell;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cell += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      out.push_back(std::move(cell));
      cell.clear();
    } else if (c != '\r') {
      cell += c;
    }
  }
  out.push_back(std::move(cell));
  return out;
}

/// Read a CSV written by Table::write_csv / WindowedSeries::write_csv.
/// Returns false (and leaves `out` empty) when the file cannot be opened.
bool read_csv(const std::string& path, CsvFile& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  out.path = path;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto cells = split_csv_line(line);
    if (out.header.empty()) {
      out.header = std::move(cells);
    } else {
      cells.resize(out.header.size());
      out.rows.push_back(std::move(cells));
    }
  }
  return !out.header.empty();
}

/// Column indices whose every cell parses as a number (and the column has
/// at least one row).
std::vector<std::size_t> numeric_columns(const CsvFile& csv) {
  std::vector<std::size_t> out;
  if (csv.rows.empty()) return out;
  for (std::size_t c = 0; c < csv.header.size(); ++c) {
    bool all = true;
    for (const auto& row : csv.rows) {
      if (!is_number(row[c])) {
        all = false;
        break;
      }
    }
    if (all) out.push_back(c);
  }
  return out;
}

// ------------------------------------------------------------- SVG charts

struct Series {
  std::string name;
  std::vector<std::pair<double, double>> points;
};

/// One line chart: fixed viewport, recessive grid, class-styled series
/// (.s1 … .s6 — color comes from the stylesheet so dark mode restyles the
/// same markup), selective direct labels via a legend row, <title> native
/// tooltips per point.
std::string line_chart(const std::string& title, const std::string& x_name,
                       const std::vector<Series>& series) {
  constexpr int kW = 640, kH = 300;
  constexpr int kL = 56, kR = 14, kT = 14, kB = 40;
  constexpr int kPlotW = kW - kL - kR, kPlotH = kH - kT - kB;

  double x_lo = 0.0, x_hi = 1.0, y_lo = 0.0, y_hi = 1.0;
  bool first = true;
  for (const auto& s : series) {
    for (const auto& [x, y] : s.points) {
      if (first) {
        x_lo = x_hi = x;
        y_lo = y_hi = y;
        first = false;
      } else {
        x_lo = std::min(x_lo, x);
        x_hi = std::max(x_hi, x);
        y_lo = std::min(y_lo, y);
        y_hi = std::max(y_hi, y);
      }
    }
  }
  if (x_hi == x_lo) x_hi = x_lo + 1.0;
  if (y_hi == y_lo) y_hi = y_lo + 1.0;
  const double pad = 0.06 * (y_hi - y_lo);
  y_lo -= pad;
  y_hi += pad;

  const auto sx = [&](double x) {
    return kL + (x - x_lo) / (x_hi - x_lo) * kPlotW;
  };
  const auto sy = [&](double y) {
    return kT + (1.0 - (y - y_lo) / (y_hi - y_lo)) * kPlotH;
  };

  std::ostringstream os;
  os << "<figure class=\"chart\">\n<figcaption>" << html_escape(title)
     << "</figcaption>\n";
  os << "<svg viewBox=\"0 0 " << kW << " " << kH << "\" role=\"img\" "
     << "aria-label=\"" << html_escape(title) << "\">\n";
  // Recessive grid + tick labels, 5 intervals per axis.
  for (int k = 0; k <= 5; ++k) {
    const double gx = x_lo + k * (x_hi - x_lo) / 5.0;
    const double gy = y_lo + k * (y_hi - y_lo) / 5.0;
    os << "<line class=\"grid\" x1=\"" << fmt_coord(sx(gx)) << "\" y1=\"" << kT
       << "\" x2=\"" << fmt_coord(sx(gx)) << "\" y2=\"" << (kT + kPlotH)
       << "\"/>\n";
    os << "<line class=\"grid\" x1=\"" << kL << "\" y1=\"" << fmt_coord(sy(gy))
       << "\" x2=\"" << (kL + kPlotW) << "\" y2=\"" << fmt_coord(sy(gy))
       << "\"/>\n";
    os << "<text class=\"tick\" x=\"" << fmt_coord(sx(gx)) << "\" y=\""
       << (kT + kPlotH + 16) << "\" text-anchor=\"middle\">" << fmt_short(gx)
       << "</text>\n";
    os << "<text class=\"tick\" x=\"" << (kL - 6) << "\" y=\""
       << fmt_coord(sy(gy) + 4) << "\" text-anchor=\"end\">" << fmt_short(gy)
       << "</text>\n";
  }
  os << "<rect class=\"frame\" x=\"" << kL << "\" y=\"" << kT << "\" width=\""
     << kPlotW << "\" height=\"" << kPlotH << "\"/>\n";
  os << "<text class=\"tick\" x=\"" << (kL + kPlotW / 2) << "\" y=\""
     << (kH - 6) << "\" text-anchor=\"middle\">" << html_escape(x_name)
     << "</text>\n";

  for (std::size_t i = 0; i < series.size(); ++i) {
    const std::string cls = std::string("s") + std::to_string(i % 6 + 1);
    std::ostringstream d;
    for (std::size_t p = 0; p < series[i].points.size(); ++p) {
      const auto& [x, y] = series[i].points[p];
      d << (p == 0 ? "M " : "L ") << fmt_coord(sx(x)) << " "
        << fmt_coord(sy(y)) << " ";
    }
    os << "<path class=\"line " << cls << "\" d=\"" << d.str() << "\"/>\n";
    for (const auto& [x, y] : series[i].points) {
      os << "<circle class=\"dot " << cls << "\" cx=\"" << fmt_coord(sx(x))
         << "\" cy=\"" << fmt_coord(sy(y)) << "\" r=\"3\"><title>"
         << html_escape(series[i].name) << "\n" << html_escape(x_name) << " "
         << fmt_short(x) << ": " << fmt_short(y) << "</title></circle>\n";
    }
  }
  os << "</svg>\n";
  // Legend whenever identity needs naming (>= 2 series); one series is
  // named by the caption.
  if (series.size() >= 2) {
    os << "<div class=\"legend\">";
    for (std::size_t i = 0; i < series.size(); ++i) {
      os << "<span><i class=\"swatch s" << (i % 6 + 1) << "\"></i>"
         << html_escape(series[i].name) << "</span>";
    }
    os << "</div>\n";
  }
  os << "</figure>\n";
  return os.str();
}

std::string sparkline(const std::vector<double>& values) {
  constexpr int kW = 120, kH = 26, kPad = 3;
  if (values.size() < 2) return "";
  double lo = values[0], hi = values[0];
  for (const double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (hi == lo) hi = lo + 1.0;
  std::ostringstream d;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double x =
        kPad + static_cast<double>(i) / static_cast<double>(values.size() - 1) *
                   (kW - 2 * kPad);
    const double y =
        kPad + (1.0 - (values[i] - lo) / (hi - lo)) * (kH - 2 * kPad);
    d << (i == 0 ? "M " : "L ") << fmt_coord(x) << " " << fmt_coord(y) << " ";
  }
  std::ostringstream os;
  os << "<svg class=\"spark\" viewBox=\"0 0 " << kW << " " << kH
     << "\"><path class=\"line s1\" d=\"" << d.str() << "\"/></svg>";
  return os.str();
}

/// Collapsible table view of a CSV — the accessibility fallback required
/// under every chart.
std::string csv_table(const CsvFile& csv) {
  std::ostringstream os;
  os << "<details><summary>table view</summary>\n<table>\n<tr>";
  for (const auto& h : csv.header) os << "<th>" << html_escape(h) << "</th>";
  os << "</tr>\n";
  for (const auto& row : csv.rows) {
    os << "<tr>";
    for (const auto& cell : row) os << "<td>" << html_escape(cell) << "</td>";
    os << "</tr>\n";
  }
  os << "</table>\n</details>\n";
  return os.str();
}

/// Chart of a results CSV: first numeric column is x, up to 6 further
/// numeric columns become series (the cap is stated, never silent).
std::string csv_chart(const std::string& title, const CsvFile& csv) {
  std::ostringstream os;
  const auto numeric = numeric_columns(csv);
  if (numeric.size() >= 2 && csv.rows.size() >= 2) {
    const std::size_t x_col = numeric[0];
    std::vector<Series> series;
    std::size_t dropped = 0;
    for (std::size_t k = 1; k < numeric.size(); ++k) {
      if (series.size() == 6) {
        ++dropped;
        continue;
      }
      Series s;
      s.name = csv.header[numeric[k]];
      for (const auto& row : csv.rows) {
        s.points.emplace_back(to_double(row[x_col]),
                              to_double(row[numeric[k]]));
      }
      std::sort(s.points.begin(), s.points.end());
      series.push_back(std::move(s));
    }
    os << line_chart(title, csv.header[x_col], series);
    if (dropped > 0) {
      os << "<p class=\"note\">showing 6 of " << (6 + dropped)
         << " numeric columns; the rest are in the table view</p>\n";
    }
  } else {
    os << "<h3>" << html_escape(title) << "</h3>\n";
  }
  os << csv_table(csv);
  return os.str();
}

// -------------------------------------------------------- series rendering

/// Column group of a series export: every column matching (prefix, suffix)
/// becomes one chart series, labeled with the middle of its name.
struct SeriesGroup {
  std::string title;
  std::string prefix;
  std::string suffix;  // "" = none
};

std::string render_series_csv(const std::string& label, const CsvFile& csv) {
  std::ostringstream os;
  os << "<h3>" << html_escape(label) << "</h3>\n";
  if (csv.header.size() < 4 || csv.rows.empty()) {
    os << "<p class=\"note\">empty series</p>\n" << csv_table(csv);
    return os.str();
  }
  const std::string x_name = csv.header[1];  // "<axis>_start"

  static const std::vector<SeriesGroup> kGroups = {
      {"Exit fractions per window", "runtime.exit_frac.", ""},
      {"Accuracy per window", "runtime.accuracy", ""},
      {"Drops / retries / timeouts per window", "runtime.drops", ""},
      {"Per-link bytes per window", "link.", ".bytes"},
      {"Fleet throughput (Hz)", "fleet.throughput_hz", ""},
      {"Fleet latency percentiles (ms)", "fleet.hdr_latency_ms.p", ""},
      {"Runtime latency percentiles (ms)", "runtime.hdr_latency_ms.p", ""},
      {"Fleet outcomes per window", "fleet.completed", ""},
      {"Fleet queue depth", "fleet.queue_depth", ""},
      {"Per-station queue depth", "fleet.station.", ".queue"},
      {"Training loss", "train.loss", ""},
      {"Per-exit accuracy by epoch", "train.exit_acc.", ""},
      {"Exit fractions by epoch", "train.exit_frac.", ""},
  };

  // Column lookup by name.
  std::map<std::string, std::size_t> by_name;
  for (std::size_t c = 0; c < csv.header.size(); ++c) {
    by_name[csv.header[c]] = c;
  }
  const auto col_points = [&](std::size_t c) {
    std::vector<std::pair<double, double>> pts;
    pts.reserve(csv.rows.size());
    for (const auto& row : csv.rows) {
      pts.emplace_back(to_double(row[1]), to_double(row[c]));
    }
    return pts;
  };

  bool any_chart = false;
  for (const auto& group : kGroups) {
    std::vector<Series> series;
    std::size_t dropped = 0;
    for (std::size_t c = 3; c < csv.header.size(); ++c) {
      const std::string& name = csv.header[c];
      if (!starts_with(name, group.prefix)) continue;
      if (!group.suffix.empty() && !ends_with(name, group.suffix)) continue;
      if (series.size() == 6) {
        ++dropped;
        continue;
      }
      Series s;
      s.name = name.substr(group.prefix.size(),
                           name.size() - group.prefix.size() -
                               group.suffix.size());
      if (s.name.empty()) s.name = name;
      s.points = col_points(c);
      series.push_back(std::move(s));
    }
    if (series.empty()) continue;
    // The drops group pulls in its sibling columns explicitly.
    if (group.prefix == "runtime.drops") {
      for (const char* extra : {"runtime.retries", "runtime.timeouts"}) {
        const auto it = by_name.find(extra);
        if (it != by_name.end()) {
          Series s;
          s.name = std::string(extra).substr(8);
          s.points = col_points(it->second);
          series.push_back(std::move(s));
        }
      }
    }
    // The fleet outcome chart pulls in its sibling counters explicitly.
    if (group.prefix == "fleet.completed") {
      for (const char* extra :
           {"fleet.local", "fleet.escalated", "fleet.shed", "fleet.dead"}) {
        const auto it = by_name.find(extra);
        if (it != by_name.end()) {
          Series s;
          s.name = std::string(extra).substr(6);
          s.points = col_points(it->second);
          series.push_back(std::move(s));
        }
      }
    }
    if (group.prefix == "runtime.hdr_latency_ms.p" ||
        group.prefix == "fleet.hdr_latency_ms.p") {
      for (auto& s : series) s.name = "p" + s.name;
    }
    any_chart = true;
    os << line_chart(group.title, x_name, series);
    if (dropped > 0) {
      os << "<p class=\"note\">showing 6 of " << (6 + dropped) << " "
         << html_escape(group.title)
         << " columns; the rest are in the table view</p>\n";
    }
  }
  if (!any_chart) {
    os << "<p class=\"note\">no recognized column groups; see the table "
          "view</p>\n";
  }
  os << csv_table(csv);
  return os.str();
}

// ------------------------------------------------------------- stylesheet

const char* kStyle = R"css(
:root {
  --surface: #ffffff; --panel: #f6f7f9; --ink: #1a1d21; --muted: #5c6570;
  --grid: #e3e6ea; --frame: #b9c0c7;
  --c1: #2a78d6; --c2: #eb6834; --c3: #1baf7a;
  --c4: #eda100; --c5: #e87ba4; --c6: #008300;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #14171a; --panel: #1d2126; --ink: #e8eaed; --muted: #9aa3ad;
    --grid: #2b3138; --frame: #4a525b;
    --c1: #3987e5; --c2: #d95926; --c3: #199e70;
    --c4: #c98500; --c5: #d55181; --c6: #008300;
  }
}
body { background: var(--surface); color: var(--ink);
  font: 14px/1.45 system-ui, sans-serif; margin: 2rem auto; max-width: 72rem;
  padding: 0 1rem; }
h1, h2, h3 { line-height: 1.2; }
h2 { border-bottom: 1px solid var(--grid); padding-bottom: .3rem;
  margin-top: 2.2rem; }
table { border-collapse: collapse; margin: .6rem 0; }
th, td { border: 1px solid var(--grid); padding: .25rem .55rem;
  text-align: left; font-variant-numeric: tabular-nums; }
th { background: var(--panel); }
figure.chart { background: var(--panel); border-radius: 8px;
  padding: .8rem 1rem; margin: 1rem 0; max-width: 44rem; }
figure.chart figcaption { font-weight: 600; margin-bottom: .4rem; }
svg { display: block; width: 100%; height: auto; }
svg.spark { width: 120px; height: 26px; display: inline-block;
  vertical-align: middle; }
.grid { stroke: var(--grid); stroke-width: 1; }
.frame { fill: none; stroke: var(--frame); stroke-width: 1; }
.tick { fill: var(--muted); font-size: 11px; }
.line { fill: none; stroke-width: 2; }
.dot { stroke: var(--surface); stroke-width: 1; }
.s1 { stroke: var(--c1); } .dot.s1 { fill: var(--c1); }
.s2 { stroke: var(--c2); } .dot.s2 { fill: var(--c2); }
.s3 { stroke: var(--c3); } .dot.s3 { fill: var(--c3); }
.s4 { stroke: var(--c4); } .dot.s4 { fill: var(--c4); }
.s5 { stroke: var(--c5); } .dot.s5 { fill: var(--c5); }
.s6 { stroke: var(--c6); } .dot.s6 { fill: var(--c6); }
.legend { display: flex; flex-wrap: wrap; gap: .4rem 1.1rem;
  margin-top: .5rem; color: var(--ink); }
.legend .swatch { display: inline-block; width: 14px; height: 3px;
  margin-right: .4rem; vertical-align: middle; border-radius: 2px; }
.swatch.s1 { background: var(--c1); } .swatch.s2 { background: var(--c2); }
.swatch.s3 { background: var(--c3); } .swatch.s4 { background: var(--c4); }
.swatch.s5 { background: var(--c5); } .swatch.s6 { background: var(--c6); }
.note, details summary { color: var(--muted); }
details { margin: .4rem 0 1rem; }
)css";

}  // namespace

std::string render_report_html(const ReportOptions& options) {
  const std::string dir =
      options.results_dir.empty() ? results_dir() : options.results_dir;
  const std::string ledger_path = dir.empty() ? "" : dir + "/ledger.jsonl";
  const std::vector<LedgerRecord> ledger =
      ledger_path.empty() ? std::vector<LedgerRecord>{}
                          : read_ledger(ledger_path);

  std::ostringstream os;
  os << "<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n"
     << "<meta name=\"viewport\" content=\"width=device-width, "
        "initial-scale=1\">\n"
     << "<title>" << html_escape(options.title) << "</title>\n<style>"
     << kStyle << "</style>\n</head>\n<body>\n";
  os << "<h1>" << html_escape(options.title) << "</h1>\n";
  os << "<p class=\"note\">results directory: <code>"
     << html_escape(dir.empty() ? std::string("(disabled)") : dir)
     << "</code></p>\n";

  // ------------------------------------------------------------ run ledger
  os << "<h2>Run ledger</h2>\n";
  if (ledger.empty()) {
    os << "<p class=\"note\">no ledger records ("
       << html_escape(ledger_path.empty() ? std::string("results disabled")
                                          : ledger_path)
       << ")</p>\n";
  } else {
    os << "<table>\n<tr><th>#</th><th>command</th><th>info</th>"
       << "<th>metrics</th></tr>\n";
    for (std::size_t i = 0; i < ledger.size(); ++i) {
      const auto& rec = ledger[i];
      os << "<tr><td>" << (i + 1) << "</td><td>" << html_escape(rec.command)
         << "</td><td>";
      for (std::size_t k = 0; k < rec.info.size(); ++k) {
        os << (k ? " · " : "") << html_escape(rec.info[k].first) << "="
           << html_escape(rec.info[k].second);
      }
      os << "</td><td>";
      for (std::size_t k = 0; k < rec.metrics.size(); ++k) {
        os << (k ? " · " : "") << html_escape(rec.metrics[k].first) << "="
           << fmt_short(rec.metrics[k].second);
      }
      os << "</td></tr>\n";
    }
    os << "</table>\n";

    // Trajectories: for commands with repeat runs, sparkline each metric
    // across the ledger in file (= run) order.
    std::vector<std::string> commands;
    for (const auto& rec : ledger) {
      if (std::find(commands.begin(), commands.end(), rec.command) ==
          commands.end()) {
        commands.push_back(rec.command);
      }
    }
    std::ostringstream traj;
    for (const auto& cmd : commands) {
      std::vector<const LedgerRecord*> runs;
      for (const auto& rec : ledger) {
        if (rec.command == cmd) runs.push_back(&rec);
      }
      if (runs.size() < 2) continue;
      // Metric keys of the newest run, in its order.
      for (const auto& [key, last_value] : runs.back()->metrics) {
        std::vector<double> values;
        for (const auto* run : runs) {
          for (const auto& [k, v] : run->metrics) {
            if (k == key) {
              values.push_back(v);
              break;
            }
          }
        }
        if (values.size() < 2) continue;
        traj << "<tr><td>" << html_escape(cmd) << "</td><td>"
             << html_escape(key) << "</td><td>" << sparkline(values)
             << "</td><td>" << fmt_short(last_value) << "</td></tr>\n";
      }
    }
    if (!traj.str().empty()) {
      os << "<h3>Metric trajectories across runs</h3>\n<table>\n"
         << "<tr><th>command</th><th>metric</th><th>trend</th>"
         << "<th>latest</th></tr>\n"
         << traj.str() << "</table>\n";
    }
  }

  // ------------------------------------------------------------ peak memory
  // Planned activation peaks (runtime.mem_peak.*) of the newest run that
  // recorded them: the per-tier arena sizes the memory planner committed to.
  {
    const LedgerRecord* newest = nullptr;
    for (const auto& rec : ledger) {
      for (const auto& [key, value] : rec.metrics) {
        if (key.rfind("runtime.mem_peak.", 0) == 0) {
          newest = &rec;
          break;
        }
      }
    }
    if (newest != nullptr) {
      os << "<h2>Peak memory</h2>\n"
         << "<p class=\"note\">planned activation arena peak per hierarchy "
            "tier (latest <code>"
         << html_escape(newest->command) << "</code> run)</p>\n"
         << "<table>\n<tr><th>tier</th><th>peak bytes</th></tr>\n";
      for (const auto& [key, value] : newest->metrics) {
        if (key.rfind("runtime.mem_peak.", 0) != 0) continue;
        os << "<tr><td>" << html_escape(key.substr(17)) << "</td><td>"
           << fmt_short(value) << "</td></tr>\n";
      }
      os << "</table>\n";
    }
  }

  // ------------------------------------------------------------ SLO health
  // Burn-rate SLO status (fleet.slo.*) of the newest run that recorded it:
  // per-objective good-event ratio, fast/slow burn rates and the resulting
  // health state from the multi-window alert rule (see obs/slo.hpp).
  {
    const LedgerRecord* newest = nullptr;
    for (const auto& rec : ledger) {
      for (const auto& [key, value] : rec.metrics) {
        if (key.rfind("fleet.slo.", 0) == 0) {
          newest = &rec;
          break;
        }
      }
    }
    if (newest != nullptr) {
      // Collect per-objective rows: fleet.slo.<objective>.<field>.
      std::map<std::string, std::map<std::string, double>> objectives;
      for (const auto& [key, value] : newest->metrics) {
        if (key.rfind("fleet.slo.", 0) != 0) continue;
        const std::string rest = key.substr(10);
        const auto dot = rest.rfind('.');
        if (dot == std::string::npos) continue;
        objectives[rest.substr(0, dot)][rest.substr(dot + 1)] = value;
      }
      const auto state_name = [](double s) {
        if (s >= 2.0) return "critical";
        if (s >= 1.0) return "warn";
        return "ok";
      };
      os << "<h2>SLO &amp; health</h2>\n"
         << "<p class=\"note\">burn-rate SLO status (latest <code>"
         << html_escape(newest->command)
         << "</code> run): burn &gt;= 1 spends error budget faster than "
            "the objective allows; an alert needs both the fast and the "
            "slow window burning</p>\n"
         << "<table>\n<tr><th>objective</th><th>good ratio</th>"
            "<th>fast burn</th><th>slow burn</th><th>state</th></tr>\n";
      for (const auto& [name, fields] : objectives) {
        const auto field = [&](const char* k, double fallback) {
          const auto it = fields.find(k);
          return it == fields.end() ? fallback : it->second;
        };
        os << "<tr><td>" << html_escape(name) << "</td><td>"
           << fmt_short(field("ratio", 0.0)) << "</td><td>"
           << fmt_short(field("fast_burn", 0.0)) << "</td><td>"
           << fmt_short(field("slow_burn", 0.0)) << "</td><td>"
           << state_name(field("state", 0.0)) << "</td></tr>\n";
      }
      os << "</table>\n";
    }
  }

  // -------------------------------------------------------- series exports
  // Every ledger record that points at a series file gets its charts; the
  // files are then excluded from the generic CSV section below.
  std::set<std::string> series_files;
  os << "<h2>Windowed series</h2>\n";
  bool any_series = false;
  for (std::size_t i = 0; i < ledger.size(); ++i) {
    for (const auto& [key, value] : ledger[i].info) {
      if (key != "series") continue;
      series_files.insert(value);
      CsvFile csv;
      if (!read_csv(value, csv)) continue;
      any_series = true;
      os << render_series_csv(
          "run " + std::to_string(i + 1) + " — " + ledger[i].command + " — " +
              value,
          csv);
    }
  }
  if (!any_series) {
    os << "<p class=\"note\">no series exports recorded (run with "
          "--series-out)</p>\n";
  }

  // ------------------------------------------------------------ bench CSVs
  os << "<h2>Result tables and figures</h2>\n";
  std::vector<std::string> csv_paths;
  if (!dir.empty() && std::filesystem::is_directory(dir)) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string path = entry.path().string();
      if (!ends_with(path, ".csv")) continue;
      if (series_files.count(path)) continue;
      csv_paths.push_back(path);
    }
    std::sort(csv_paths.begin(), csv_paths.end());
  }
  if (csv_paths.empty()) {
    os << "<p class=\"note\">no CSVs found (run the bench binaries with "
          "DDNN_RESULTS_DIR set)</p>\n";
  }
  for (const auto& path : csv_paths) {
    CsvFile csv;
    if (!read_csv(path, csv)) continue;
    const std::size_t slash = path.find_last_of('/');
    os << csv_chart(slash == std::string::npos ? path
                                               : path.substr(slash + 1),
                    csv);
  }

  os << "</body>\n</html>\n";
  return os.str();
}

std::string write_report_html(const ReportOptions& options,
                              const std::string& out_path) {
  const std::string html = render_report_html(options);
  std::ofstream out(out_path, std::ios::binary);
  DDNN_CHECK(out.good(), "cannot open '" << out_path << "' for writing");
  out << html;
  DDNN_CHECK(out.good(), "write to '" << out_path << "' failed");
  return out_path;
}

}  // namespace ddnn::obs
