// WindowedSeries: fixed-width windowed time series over a deterministic
// clock (the simulated run clock in dist::HierarchyRuntime, the epoch index
// in core::Trainer).
//
// A series is a set of named columns, each with an aggregation kind:
//   * counter   — per-window delta (sum of recorded values);
//   * gauge     — last value recorded in the window, carried forward across
//                 empty windows once set;
//   * ratio     — derived at export: counter delta / counter delta of the
//                 same window (0 when the denominator is 0);
//   * rate      — derived at export: counter delta / window width, i.e. the
//                 column in clock units per second (a throughput curve);
//   * hdr       — per-window log-bucketed histogram (obs/hdr.hpp), exported
//                 as <name>.n / .p50 / .p95 / .p99 / .p999 / .max:
//                 nearest-rank percentiles with bounded (≤1/128) relative
//                 bucket error and the exact window max, without retaining
//                 the window's raw values.
//
// Determinism contract (docs/ARCHITECTURE.md "Observability"): recording is
// single-writer — the runtime's classify() loop and the trainer's epoch
// loop are serial — and every recorded quantity already obeys the
// simulated-clock contract, so exports are byte-identical across reruns and
// DDNN_THREADS settings. Window sums of counter columns reconcile exactly
// with the final MetricsRegistry snapshot (scripts/check_trace.py
// --series checks this for every column named after a registry counter).
//
// Windows are half-open [k*width, (k+1)*width) on the recording clock:
// clock t falls in window static_cast<int64_t>(t / width). Export emits
// every window from 0 through the last recorded one, including empty
// interior windows (counters 0, gauges carried, hdr columns n=0) — an
// outage window shows up as a flat-lined row, not a gap in the axis.
//
// Recording cost: record() is inline for a clock inside the open window's
// cached range, which window_start() computes so that membership is exactly
// the division above (a plain t < (k+1)*width test differs at rounding
// edges). Every check — unknown or derived column, negative or NaN clock, a
// clock before the open window, a negative counter delta — and the window
// flush run out of line. Hdr columns are single-writer
// HdrHistogram::Local accumulators: no atomics, no shards.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/hdr.hpp"

namespace ddnn::obs {

/// First clock of window k at width `width`: the smallest t >= 0 with
/// static_cast<int64_t>(t / width) >= k (0 for k <= 0). Window k is
/// exactly [window_start(width, k), window_start(width, k + 1)).
double window_start(double width, std::int64_t k);

class WindowedSeries {
 public:
  /// `width`: window width in clock units (simulated seconds, epochs, ...).
  /// `axis`: name of the clock axis, used for the <axis>_start/<axis>_end
  /// export columns ("t" for simulated time, "epoch" for training).
  explicit WindowedSeries(double width, std::string axis = "t");

  /// Register columns. Registration order is export order; ids are dense.
  /// Registering after the first record() is an error.
  int add_counter(const std::string& name);
  int add_gauge(const std::string& name);
  /// Derived column: delta(numerator)/delta(denominator) per window; both
  /// ids must name counter columns.
  int add_ratio(const std::string& name, int numerator, int denominator);
  /// Derived column: delta(counter) / window width per window — the
  /// counter's rate in events per clock unit. `counter` must name a
  /// counter column.
  int add_rate(const std::string& name, int counter);
  /// Log-bucketed distribution column (obs/hdr.hpp layout): exports
  /// .n/.p50/.p95/.p99/.p999/.max per window. `unit`/`max_value` as in
  /// HdrHistogram.
  int add_hdr(const std::string& name, double unit, double max_value);

  /// Record `value` into column `col` at clock `t`. `t` must be >= 0 and
  /// must not precede the current window (the clocks we key on are
  /// monotone). Counter columns reject negative values: a counter reset
  /// must not wrap a window delta negative. Hdr columns keep no exemplars:
  /// their export is n/p50/p95/p99/p999/max.
  void record(int col, double t, double value) {
    if (t >= open_lo_ && t < open_hi_ &&
        static_cast<std::size_t>(col) < columns_.size()) {
      Column& c = columns_[static_cast<std::size_t>(col)];
      switch (c.kind) {
        case Kind::kCounter:
          if (!(value >= 0.0)) break;
          c.sum += value;
          open_window_active_ = true;
          return;
        case Kind::kGauge:
          c.last = value;
          c.has_last = true;
          open_window_active_ = true;
          return;
        case Kind::kHdr:
          c.hdr->record(value);
          open_window_active_ = true;
          return;
        case Kind::kRatio:
        case Kind::kRate:
          break;
      }
    }
    record_slow(col, t, value);
  }

  double width() const { return width_; }
  const std::string& axis() const { return axis_; }
  std::size_t column_count() const { return columns_.size(); }
  /// Windows that would be exported right now (0 when nothing recorded).
  std::size_t window_count() const;

  /// Flat header of every exported CSV column, in order: "window",
  /// "<axis>_start", "<axis>_end", then one entry per column (hdr columns
  /// expand to .n/.p50/.p95/.p99/.p999/.max).
  std::vector<std::string> header() const;

  /// Deterministic exports: identical recordings produce byte-identical
  /// output (integral values print as integers, everything else as %.17g).
  std::string to_csv() const;
  std::string to_json() const;
  void write_csv(const std::string& path) const;
  void write_json(const std::string& path) const;
  /// Dispatch on extension: ".json" -> JSON, anything else -> CSV.
  void write(const std::string& path) const;

 private:
  enum class Kind { kCounter, kGauge, kRatio, kRate, kHdr };
  /// An hdr column's exported cells: n, p50, p95, p99, p999, max.
  using HdrCells = std::array<double, 6>;
  struct Column {
    std::string name;
    Kind kind;
    int num = -1;  // ratio numerator column id
    int den = -1;  // ratio denominator column id
    // Current-window accumulator state.
    double sum = 0.0;       // counter
    double last = 0.0;      // gauge (carried across windows)
    bool has_last = false;  // gauge ever set
    std::unique_ptr<HdrHistogram::Local> hdr;  // reset at each window flush
    // Flushed per-window aggregates, parallel to rows_ windows. Counters
    // store the window delta, gauges the carried last value, hdr columns
    // their cells.
    std::vector<double> flushed;
    std::vector<HdrCells> flushed_hdr;
  };

  int add_column(const std::string& name, Kind kind);
  static HdrCells hdr_cells(const HdrHistogram::Local& h);
  /// Every check, the window flush and the open-range update.
  void record_slow(int col, double t, double value);
  void flush_window();  // close the current window and advance
  /// Cells of window w for column c, in export order.
  void append_cells(std::vector<double>& out, const Column& c,
                    std::size_t w) const;

  double width_;
  std::string axis_;
  std::vector<Column> columns_;
  std::int64_t cur_window_ = 0;
  /// Clock range [open_lo_, open_hi_) of window cur_window_; empty until
  /// the first record, so that record takes the slow path and seals.
  double open_lo_ = 0.0;
  double open_hi_ = 0.0;
  std::int64_t flushed_windows_ = 0;
  bool open_window_active_ = false;  // anything recorded since last flush
  bool sealed_registration_ = false;
};

}  // namespace ddnn::obs
