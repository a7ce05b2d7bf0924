#include "obs/timeseries.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/json.hpp"
#include "util/error.hpp"

namespace ddnn::obs {

double window_start(double width, std::int64_t k) {
  if (k <= 0) return 0.0;
  // t / width rounds monotonically in t, so "reaches window k" flips once;
  // k * width lands within a few ulps of that flip.
  const auto reaches = [width, k](double t) {
    return static_cast<std::int64_t>(t / width) >= k;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double t = static_cast<double>(k) * width;
  while (!reaches(t)) t = std::nextafter(t, kInf);
  for (double below = std::nextafter(t, 0.0); reaches(below);
       below = std::nextafter(t, 0.0)) {
    t = below;
  }
  return t;
}

WindowedSeries::WindowedSeries(double width, std::string axis)
    : width_(width), axis_(std::move(axis)) {
  DDNN_CHECK(width_ > 0.0, "window width " << width_ << " must be positive");
  DDNN_CHECK(!axis_.empty(), "windowed series needs an axis name");
}

int WindowedSeries::add_column(const std::string& name, Kind kind) {
  DDNN_CHECK(!sealed_registration_,
             "column '" << name << "' registered after the first record()");
  DDNN_CHECK(!name.empty(), "windowed series column needs a name");
  for (const auto& c : columns_) {
    DDNN_CHECK(c.name != name,
               "series column '" << name << "' registered twice");
  }
  Column c;
  c.name = name;
  c.kind = kind;
  columns_.push_back(std::move(c));
  return static_cast<int>(columns_.size()) - 1;
}

int WindowedSeries::add_counter(const std::string& name) {
  return add_column(name, Kind::kCounter);
}

int WindowedSeries::add_gauge(const std::string& name) {
  return add_column(name, Kind::kGauge);
}

int WindowedSeries::add_ratio(const std::string& name, int numerator,
                              int denominator) {
  for (const int id : {numerator, denominator}) {
    DDNN_CHECK(id >= 0 && id < static_cast<int>(columns_.size()),
               "ratio '" << name << "' references unknown column " << id);
    DDNN_CHECK(columns_[static_cast<std::size_t>(id)].kind == Kind::kCounter,
               "ratio '" << name << "' must reference counter columns");
  }
  const int col = add_column(name, Kind::kRatio);
  columns_[static_cast<std::size_t>(col)].num = numerator;
  columns_[static_cast<std::size_t>(col)].den = denominator;
  return col;
}

int WindowedSeries::add_rate(const std::string& name, int counter) {
  DDNN_CHECK(counter >= 0 && counter < static_cast<int>(columns_.size()),
             "rate '" << name << "' references unknown column " << counter);
  DDNN_CHECK(columns_[static_cast<std::size_t>(counter)].kind ==
                 Kind::kCounter,
             "rate '" << name << "' must reference a counter column");
  const int col = add_column(name, Kind::kRate);
  columns_[static_cast<std::size_t>(col)].num = counter;
  return col;
}

int WindowedSeries::add_hdr(const std::string& name, double unit,
                            double max_value) {
  const int col = add_column(name, Kind::kHdr);
  columns_[static_cast<std::size_t>(col)].hdr =
      std::make_unique<HdrHistogram::Local>(unit, max_value);
  return col;
}

WindowedSeries::HdrCells WindowedSeries::hdr_cells(
    const HdrHistogram::Local& h) {
  const HdrHistogram::View v = h.view();
  return {static_cast<double>(h.count()), v.percentile(0.50),
          v.percentile(0.95), v.percentile(0.99), v.percentile(0.999),
          h.max()};
}

void WindowedSeries::flush_window() {
  for (auto& c : columns_) {
    switch (c.kind) {
      case Kind::kCounter:
        c.flushed.push_back(c.sum);
        c.sum = 0.0;
        break;
      case Kind::kGauge:
        c.flushed.push_back(c.has_last ? c.last : 0.0);
        break;
      case Kind::kRatio:
      case Kind::kRate:
        c.flushed.push_back(0.0);  // derived at export
        break;
      case Kind::kHdr:
        c.flushed_hdr.push_back(hdr_cells(*c.hdr));
        c.hdr->reset();
        break;
    }
  }
  ++flushed_windows_;
  ++cur_window_;
  open_window_active_ = false;
}

void WindowedSeries::record_slow(int col, double t, double value) {
  DDNN_CHECK(col >= 0 && col < static_cast<int>(columns_.size()),
             "record into unknown series column " << col);
  DDNN_CHECK(t >= 0.0, "series clock " << t << " is negative");
  sealed_registration_ = true;
  const auto w = static_cast<std::int64_t>(t / width_);
  DDNN_CHECK(w >= cur_window_, "series clock went backwards: t="
                                   << t << " is before window " << cur_window_
                                   << " (the recording clocks are monotone)");
  while (cur_window_ < w) flush_window();
  open_lo_ = window_start(width_, cur_window_);
  open_hi_ = window_start(width_, cur_window_ + 1);
  Column& c = columns_[static_cast<std::size_t>(col)];
  switch (c.kind) {
    case Kind::kCounter:
      DDNN_CHECK(value >= 0.0,
                 "counter column '" << c.name << "' recorded negative delta "
                                    << value
                                    << " (counter resets must not wrap)");
      c.sum += value;
      break;
    case Kind::kGauge:
      c.last = value;
      c.has_last = true;
      break;
    case Kind::kHdr:
      c.hdr->record(value);
      break;
    case Kind::kRatio:
    case Kind::kRate:
      DDNN_CHECK(false, "column '" << c.name
                                   << "' is derived; record into its "
                                      "underlying counter instead");
  }
  open_window_active_ = true;
}

std::size_t WindowedSeries::window_count() const {
  return static_cast<std::size_t>(flushed_windows_) +
         (open_window_active_ ? 1u : 0u);
}

std::vector<std::string> WindowedSeries::header() const {
  std::vector<std::string> out{"window", axis_ + "_start", axis_ + "_end"};
  for (const auto& c : columns_) {
    if (c.kind == Kind::kHdr) {
      for (const char* cell : {".n", ".p50", ".p95", ".p99", ".p999", ".max"}) {
        out.push_back(c.name + cell);
      }
    } else {
      out.push_back(c.name);
    }
  }
  return out;
}

void WindowedSeries::append_cells(std::vector<double>& out, const Column& c,
                                  std::size_t w) const {
  const bool live = w >= static_cast<std::size_t>(flushed_windows_);
  switch (c.kind) {
    case Kind::kCounter:
      out.push_back(live ? c.sum : c.flushed[w]);
      break;
    case Kind::kGauge:
      out.push_back(live ? (c.has_last ? c.last : 0.0) : c.flushed[w]);
      break;
    case Kind::kRatio: {
      const Column& num = columns_[static_cast<std::size_t>(c.num)];
      const Column& den = columns_[static_cast<std::size_t>(c.den)];
      const double n = live ? num.sum : num.flushed[w];
      const double d = live ? den.sum : den.flushed[w];
      out.push_back(d == 0.0 ? 0.0 : n / d);
      break;
    }
    case Kind::kRate: {
      const Column& num = columns_[static_cast<std::size_t>(c.num)];
      const double n = live ? num.sum : num.flushed[w];
      out.push_back(n / width_);
      break;
    }
    case Kind::kHdr: {
      const HdrCells cells = live ? hdr_cells(*c.hdr) : c.flushed_hdr[w];
      out.insert(out.end(), cells.begin(), cells.end());
      break;
    }
  }
}

std::string WindowedSeries::to_csv() const {
  std::ostringstream os;
  const auto head = header();
  for (std::size_t i = 0; i < head.size(); ++i) {
    os << (i ? "," : "") << head[i];
  }
  os << "\n";
  const std::size_t windows = window_count();
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> cells{static_cast<double>(w),
                              static_cast<double>(w) * width_,
                              static_cast<double>(w + 1) * width_};
    for (const auto& c : columns_) append_cells(cells, c, w);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      os << (i ? "," : "") << json_number(cells[i]);
    }
    os << "\n";
  }
  return os.str();
}

std::string WindowedSeries::to_json() const {
  std::ostringstream os;
  os << "{\n  \"axis\": \"" << axis_ << "\",\n  \"width\": "
     << json_number(width_) << ",\n  \"columns\": [";
  const auto head = header();
  for (std::size_t i = 0; i < head.size(); ++i) {
    os << (i ? ", " : "") << "\"" << head[i] << "\"";
  }
  os << "],\n  \"rows\": [\n";
  const std::size_t windows = window_count();
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> cells{static_cast<double>(w),
                              static_cast<double>(w) * width_,
                              static_cast<double>(w + 1) * width_};
    for (const auto& c : columns_) append_cells(cells, c, w);
    os << "    [";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      os << (i ? ", " : "") << json_number(cells[i]);
    }
    os << "]" << (w + 1 == windows ? "" : ",") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

namespace {
void write_string(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  DDNN_CHECK(out.good(), "cannot open '" << path << "' for writing");
  out << body;
  DDNN_CHECK(out.good(), "write to '" << path << "' failed");
}
}  // namespace

void WindowedSeries::write_csv(const std::string& path) const {
  write_string(path, to_csv());
}

void WindowedSeries::write_json(const std::string& path) const {
  write_string(path, to_json());
}

void WindowedSeries::write(const std::string& path) const {
  const bool json = path.size() >= 5 &&
                    path.compare(path.size() - 5, 5, ".json") == 0;
  if (json) {
    write_json(path);
  } else {
    write_csv(path);
  }
}

}  // namespace ddnn::obs
