// Tests for the windowed time-series layer, the run ledger and the HTML
// report renderer (src/obs/timeseries, src/obs/ledger, src/obs/report).
//
// This suite runs under the determinism_series_sweep CTest: every asserted
// value — including whole CSV/JSON/HTML byte strings — must be independent
// of DDNN_THREADS. The series is recorded by serial loops keyed on
// deterministic clocks, so exports are byte-identical across thread counts
// and reruns by construction; these tests pin that contract down.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/model.hpp"
#include "core/trainer.hpp"
#include "data/mvmc.hpp"
#include "dist/runtime.hpp"
#include "obs/ledger.hpp"
#include "obs/report.hpp"
#include "obs/timeseries.hpp"
#include "util/error.hpp"

namespace ddnn::obs {
namespace {

// ------------------------------------------------------------ WindowedSeries

TEST(WindowedSeries, CounterEmitsPerWindowDeltas) {
  WindowedSeries s(1.0);
  const int c = s.add_counter("events");
  s.record(c, 0.1, 2.0);
  s.record(c, 0.9, 3.0);
  s.record(c, 2.5, 7.0);  // window 1 is empty, window 2 gets 7
  EXPECT_EQ(s.window_count(), 3u);
  const std::string csv = s.to_csv();
  EXPECT_EQ(csv,
            "window,t_start,t_end,events\n"
            "0,0,1,5\n"
            "1,1,2,0\n"
            "2,2,3,7\n");
}

TEST(WindowedSeries, GaugeKeepsLastValueAndCarriesAcrossEmptyWindows) {
  WindowedSeries s(1.0);
  const int g = s.add_gauge("level");
  s.record(g, 0.2, 10.0);
  s.record(g, 0.8, 20.0);  // last in window 0 wins
  s.record(g, 3.0, 5.0);   // windows 1 and 2 carry 20
  const std::string csv = s.to_csv();
  EXPECT_EQ(csv,
            "window,t_start,t_end,level\n"
            "0,0,1,20\n"
            "1,1,2,20\n"
            "2,2,3,20\n"
            "3,3,4,5\n");
}

TEST(WindowedSeries, RatioDividesWindowDeltasAndZeroesOnEmptyDenominator) {
  WindowedSeries s(1.0);
  const int num = s.add_counter("hits");
  const int den = s.add_counter("total");
  s.add_ratio("hit_rate", num, den);
  s.record(num, 0.1, 1.0);
  s.record(den, 0.1, 4.0);
  s.record(num, 2.2, 3.0);  // window 1: both zero -> ratio 0, not NaN
  EXPECT_EQ(s.to_csv(),
            "window,t_start,t_end,hits,total,hit_rate\n"
            "0,0,1,1,4,0.25\n"
            "1,1,2,0,0,0\n"
            "2,2,3,3,0,0\n");
}

TEST(WindowedSeries, RateDividesWindowDeltasByWindowWidth) {
  WindowedSeries s(2.0);
  const int done = s.add_counter("done");
  s.add_rate("throughput", done);
  s.record(done, 0.1, 1.0);
  s.record(done, 1.9, 3.0);  // window 0: 4 events over 2 s -> 2/s
  s.record(done, 4.5, 1.0);  // window 1 empty -> 0/s; window 2: 0.5/s
  EXPECT_EQ(s.to_csv(),
            "window,t_start,t_end,done,throughput\n"
            "0,0,2,4,2\n"
            "1,2,4,0,0\n"
            "2,4,6,1,0.5\n");
}

TEST(WindowedSeries, RateAtExactWindowBoundaryCreditsTheNewWindow) {
  // t = k * width sits in window k, not k-1 (floor semantics): an event
  // recorded exactly on the boundary must not inflate the closed window.
  WindowedSeries s(2.0);
  const int done = s.add_counter("done");
  s.add_rate("throughput", done);
  s.record(done, 0.0, 2.0);  // leading edge of window 0
  s.record(done, 2.0, 6.0);  // exact boundary: belongs to window 1
  s.record(done, 4.0, 1.0);  // exact boundary: belongs to window 2
  EXPECT_EQ(s.to_csv(),
            "window,t_start,t_end,done,throughput\n"
            "0,0,2,2,1\n"
            "1,2,4,6,3\n"
            "2,4,6,1,0.5\n");
}

TEST(WindowedSeries, RateSpanningEmptyLeadingWindowsIsZeroThere) {
  // The first record can land windows deep: every skipped window must
  // flush as an explicit zero rate, not be silently absent.
  WindowedSeries s(1.0);
  const int done = s.add_counter("done");
  s.add_rate("throughput", done);
  s.record(done, 3.5, 4.0);
  EXPECT_EQ(s.to_csv(),
            "window,t_start,t_end,done,throughput\n"
            "0,0,1,0,0\n"
            "1,1,2,0,0\n"
            "2,2,3,0,0\n"
            "3,3,4,4,4\n");
}

TEST(WindowedSeries, CounterResetMidSeriesIsRejectedNotWrapped) {
  // A counter that goes backwards (process restart, wrapped delta) must
  // fail loudly: silently recording a negative delta would corrupt every
  // derived rate/ratio column downstream.
  WindowedSeries s(1.0);
  const int done = s.add_counter("done");
  s.add_rate("throughput", done);
  s.record(done, 0.5, 10.0);
  EXPECT_THROW(s.record(done, 0.6, -10.0), ddnn::Error);
  try {
    s.record(done, 0.7, -3.0);
    FAIL() << "expected ddnn::Error";
  } catch (const ddnn::Error& e) {
    EXPECT_NE(std::string(e.what()).find("done"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-3"), std::string::npos);
  }
  // The rejected records left no trace in the export.
  EXPECT_EQ(s.to_csv(),
            "window,t_start,t_end,done,throughput\n"
            "0,0,1,10,10\n");
}

TEST(WindowedSeries, HdrColumnExportsTailColumnsPerWindow) {
  WindowedSeries s(1.0);
  const int lat = s.add_hdr("lat_ms", 1e-3, 3.6e6);
  // Window 0: 100 samples at 2 ms, one 50 ms straggler.
  for (int i = 0; i < 100; ++i) s.record(lat, 0.5, 2.0);
  s.record(lat, 0.9, 50.0);
  // Window 1: empty. Window 2: one sample.
  s.record(lat, 2.5, 4.0);
  const std::string csv = s.to_csv();
  EXPECT_NE(
      csv.find("lat_ms.n,lat_ms.p50,lat_ms.p95,lat_ms.p99,lat_ms.p999,"
               "lat_ms.max"),
      std::string::npos);
  // Three data rows: the window-1 row flushed as all zeros (histogram was
  // reset at the flush), and window 2 only holds its own sample.
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);  // header
  std::getline(lines, line);
  EXPECT_EQ(line.substr(0, 8), "0,0,1,10");  // n=101 in window 0
  std::getline(lines, line);
  EXPECT_EQ(line, "1,1,2,0,0,0,0,0,0");
  std::getline(lines, line);
  EXPECT_EQ(line.substr(0, 7), "2,2,3,1");
  // Exports are deterministic: a second render is byte-identical.
  EXPECT_EQ(csv, s.to_csv());
}

TEST(WindowedSeries, FlushedHdrRowEqualsDirectReadsBeforeTheFlush) {
  // A mirror histogram takes the same samples as each window; its direct
  // reads just before the window closes must be the row the flush keeps.
  WindowedSeries s(1.0);
  const int lat = s.add_hdr("lat_ms", 1e-3, 3.6e6);
  HdrHistogram mirror(1e-3, 3.6e6);
  std::vector<std::vector<double>> want;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 400; ++i) {
      const double straggler = i % 97 == 0 ? 80.0 * (w + 1) : 0.0;
      const double v = 0.25 + 0.37 * ((i * (w + 3)) % 101) + straggler;
      s.record(lat, w + 0.001 * i, v);
      mirror.record(v);
    }
    want.push_back({static_cast<double>(mirror.count()),
                    mirror.percentile(0.50), mirror.percentile(0.95),
                    mirror.percentile(0.99), mirror.percentile(0.999),
                    mirror.max()});
    mirror.reset();
  }
  s.record(lat, 3.5, 1.0);  // closes window 2
  std::istringstream lines(s.to_csv());
  std::string line;
  std::getline(lines, line);  // header
  for (std::size_t w = 0; w < want.size(); ++w) {
    ASSERT_TRUE(std::getline(lines, line));
    std::vector<double> cells;
    std::istringstream row(line);
    for (std::string cell; std::getline(row, cell, ',');) {
      cells.push_back(std::stod(cell));
    }
    ASSERT_EQ(cells.size(), 9u) << line;
    EXPECT_EQ(std::vector<double>(cells.begin() + 3, cells.end()), want[w])
        << "window " << w;
  }
}

TEST(WindowedSeries, RejectsApiMisuse) {
  WindowedSeries s(1.0);
  const int c = s.add_counter("a");
  EXPECT_THROW(s.add_counter("a"), ddnn::Error);        // duplicate name
  const int g = s.add_gauge("g");
  EXPECT_THROW(s.add_ratio("r", c, g), ddnn::Error);    // den not a counter
  EXPECT_THROW(s.add_rate("hz", g), ddnn::Error);       // rate needs a counter
  EXPECT_THROW(s.add_rate("hz", 99), ddnn::Error);      // unknown column id
  const int r = s.add_ratio("ok", c, c);
  const int hz = s.add_rate("hz", c);                   // before sealing
  EXPECT_THROW(s.record(r, 0.0, 1.0), ddnn::Error);     // ratios are derived
  EXPECT_THROW(s.record(hz, 0.0, 1.0), ddnn::Error);    // rates are derived
  s.record(c, 5.0, 1.0);
  EXPECT_THROW(s.add_counter("late"), ddnn::Error);     // sealed after record
  EXPECT_THROW(s.record(c, 3.0, 1.0), ddnn::Error);     // clock went backward
  EXPECT_THROW(s.record(c, -1.0, 1.0), ddnn::Error);    // negative clock
}

TEST(WindowedSeries, JsonExportMatchesCsvContent) {
  WindowedSeries s(0.5, "t");
  const int c = s.add_counter("bytes");
  s.record(c, 0.1, 64.0);
  s.record(c, 0.6, 32.0);
  const std::string json = s.to_json();
  EXPECT_NE(json.find("\"axis\": \"t\""), std::string::npos);
  EXPECT_NE(json.find("\"width\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"bytes\""), std::string::npos);
  // Reruns of the same recording are byte-identical.
  WindowedSeries s2(0.5, "t");
  const int c2 = s2.add_counter("bytes");
  s2.record(c2, 0.1, 64.0);
  s2.record(c2, 0.6, 32.0);
  EXPECT_EQ(s.to_csv(), s2.to_csv());
  EXPECT_EQ(json, s2.to_json());
}

// --------------------------------------------- runtime + trainer integration

struct SeriesRuntimeFixture : public ::testing::Test {
  SeriesRuntimeFixture() {
    data::MvmcConfig data_cfg;
    data_cfg.train_samples = 48;
    data_cfg.test_samples = 24;
    data_cfg.seed = 77;
    dataset = std::make_unique<data::MvmcDataset>(
        data::MvmcDataset::generate(data_cfg));
    model = std::make_unique<core::DdnnModel>(
        core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
    model->set_training(false);
  }

  std::unique_ptr<data::MvmcDataset> dataset;
  std::unique_ptr<core::DdnnModel> model;
  std::vector<int> devices{0, 1, 2, 3, 4, 5};
};

TEST_F(SeriesRuntimeFixture, RuntimeSeriesIsRerunIdenticalAndSumsToMetrics) {
  // The tentpole contract: same model + data + plan => byte-identical
  // series export, and every counter column partitions the final total.
  dist::FaultPlan plan;
  plan.seed = 13;
  plan.link_drop_prob = 0.1;
  auto run = [&] {
    dist::HierarchyRuntime runtime(*model, {0.5}, devices);
    runtime.set_fault_plan(plan);
    WindowedSeries series(0.05);
    runtime.bind_series(&series);
    for (const auto& s : dataset->test()) runtime.classify(s);
    return std::pair{series.to_csv(), runtime.metrics()};
  };
  const auto [csv1, m1] = run();
  const auto [csv2, m2] = run();
  EXPECT_EQ(csv1, csv2);
  EXPECT_GT(csv1.size(), 0u);

  // Column sums reconcile exactly with RuntimeMetrics (integer counters:
  // the cells print as integers, so parsing with stoll is exact).
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  {
    std::istringstream in(csv1);
    std::string line;
    bool first = true;
    while (std::getline(in, line)) {
      std::vector<std::string> cells;
      std::istringstream ls(line);
      std::string cell;
      while (std::getline(ls, cell, ',')) cells.push_back(cell);
      if (first) {
        header = cells;
        first = false;
      } else {
        rows.push_back(cells);
      }
    }
  }
  auto column_sum = [&](const std::string& name) {
    std::int64_t total = 0;
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (header[i] != name) continue;
      for (const auto& row : rows) total += std::stoll(row[i]);
      return total;
    }
    ADD_FAILURE() << "missing series column " << name;
    return total;
  };
  EXPECT_EQ(column_sum("runtime.samples"), m1.samples);
  EXPECT_EQ(column_sum("runtime.bytes_total"), m1.total_bytes);
  EXPECT_EQ(column_sum("runtime.correct"), m1.correct);
  EXPECT_EQ(column_sum("runtime.retries"), m1.reliability.retries);
  EXPECT_EQ(column_sum("runtime.drops"), m1.reliability.drops);
  EXPECT_EQ(column_sum("runtime.timeouts"), m1.reliability.timeouts);
  EXPECT_EQ(column_sum("runtime.dead"), m1.reliability.dead_samples);
  EXPECT_EQ(column_sum("runtime.exit.local"), m1.exit_counts[0]);
  EXPECT_EQ(column_sum("runtime.exit.cloud"), m1.exit_counts[1]);
}

TEST_F(SeriesRuntimeFixture, TrainerSeriesRecordsOneWindowPerEpoch) {
  core::DdnnModel fresh(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  WindowedSeries series(1.0, "epoch");
  core::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.series = &series;
  cfg.series_eval = &dataset->test();
  core::train_ddnn(fresh, dataset->train(), devices, cfg);
  EXPECT_EQ(series.window_count(), 2u);
  const auto header = series.header();
  EXPECT_EQ(header[1], "epoch_start");
  bool has_loss = false, has_overall = false;
  for (const auto& h : header) {
    if (h == "train.loss") has_loss = true;
    if (h == "train.overall_acc") has_overall = true;
  }
  EXPECT_TRUE(has_loss);
  EXPECT_TRUE(has_overall);
  // The eval pass must leave the model back in training mode between
  // epochs — trajectory identical to a run without a bound series.
  core::DdnnModel control(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  core::TrainConfig plain;
  plain.epochs = 2;
  const auto stats_plain = core::train_ddnn(control, dataset->train(),
                                            devices, plain);
  core::DdnnModel observed(
      core::DdnnConfig::preset(core::HierarchyPreset::kDevicesCloud));
  WindowedSeries series2(1.0, "epoch");
  core::TrainConfig with_series = plain;
  with_series.series = &series2;
  with_series.series_eval = &dataset->test();
  const auto stats_obs = core::train_ddnn(observed, dataset->train(),
                                          devices, with_series);
  EXPECT_EQ(stats_plain.final_loss(), stats_obs.final_loss());
}

// ------------------------------------------------------------------- ledger

TEST(Ledger, JsonLineRoundTripsThroughParser) {
  LedgerRecord rec;
  rec.command = "simulate";
  rec.add_info("preset", "c");
  rec.add_info("note", "quotes \" slash \\ tab \t newline \n done");
  rec.add_metric("runtime.samples", 171);
  rec.add_metric("runtime.accuracy", 0.8070175438596491);
  const std::string line = to_json_line(rec);
  EXPECT_EQ(line.find('\n'), std::string::npos)
      << "a ledger line must be newline-free for whole-line atomicity";

  const auto tmp = std::filesystem::path("ledger_roundtrip_tmp.jsonl");
  std::filesystem::remove(tmp);
  ASSERT_FALSE(append_record(rec, tmp.string()).empty());
  ASSERT_FALSE(append_record(rec, tmp.string()).empty());
  const auto records = read_ledger(tmp.string());
  std::filesystem::remove(tmp);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].command, "simulate");
  EXPECT_EQ(records[0].info, rec.info);
  EXPECT_EQ(records[0].metrics, rec.metrics);
  EXPECT_EQ(to_json_line(records[1]), line);
}

TEST(Ledger, ReadMissingFileIsEmptyAndMalformedLineThrows) {
  EXPECT_TRUE(read_ledger("does_not_exist_tmp.jsonl").empty());
  const auto tmp = std::filesystem::path("ledger_malformed_tmp.jsonl");
  {
    std::ofstream out(tmp);
    out << "{\"command\": \"x\", \"info\": {}, \"metrics\": {}}\n";
    out << "not json\n";
  }
  EXPECT_THROW(read_ledger(tmp.string()), ddnn::Error);
  // Metric values that are not finite numbers are named errors too, never
  // a std::invalid_argument / std::out_of_range escaping the reader.
  for (const char* value : {"-", "1e999"}) {
    {
      std::ofstream out(tmp);
      out << "{\"command\": \"x\", \"info\": {}, \"metrics\": {\"m\": "
          << value << "}}\n";
    }
    EXPECT_THROW(read_ledger(tmp.string()), ddnn::Error) << value;
  }
  std::filesystem::remove(tmp);
}

TEST(Ledger, ConcurrentAppendersNeverTearLines) {
  // Each append is a single O_APPEND write(2) of one whole line, so
  // concurrent writers interleave records, never bytes.
  const auto tmp = std::filesystem::path("ledger_concurrent_tmp.jsonl");
  std::filesystem::remove(tmp);
  constexpr int kWriters = 4;
  constexpr int kEach = 50;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kEach; ++i) {
        LedgerRecord rec;
        rec.command = "writer" + std::to_string(w);
        rec.add_metric("i", i);
        append_record(rec, tmp.string());
      }
    });
  }
  for (auto& t : writers) t.join();
  const auto records = read_ledger(tmp.string());  // throws on a torn line
  std::filesystem::remove(tmp);
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kWriters * kEach));
  std::vector<int> per_writer(kWriters, 0);
  for (const auto& rec : records) {
    ASSERT_EQ(rec.command.rfind("writer", 0), 0u);
    ++per_writer[rec.command[6] - '0'];
  }
  for (const int n : per_writer) EXPECT_EQ(n, kEach);
}

// ------------------------------------------------------------------- report

TEST(Report, RendersLedgerSeriesAndCsvsDeterministically) {
  namespace fs = std::filesystem;
  const fs::path dir = "report_test_tmp";
  fs::remove_all(dir);
  fs::create_directories(dir);

  WindowedSeries series(1.0);
  const int c = series.add_counter("runtime.samples");
  const int g = series.add_gauge("runtime.level");
  for (int w = 0; w < 8; ++w) {
    series.record(c, w + 0.5, static_cast<double>(w + 1));
    series.record(g, w + 0.5, 10.0 * w);
  }
  series.write_csv((dir / "sim_series.csv").string());

  LedgerRecord rec;
  rec.command = "simulate";
  rec.add_info("preset", "c");
  rec.add_info("series", (dir / "sim_series.csv").string());
  rec.add_metric("runtime.samples", 36);
  append_record(rec, (dir / "ledger.jsonl").string());
  rec.metrics[0].second = 40;  // second run: sparkline trajectory
  append_record(rec, (dir / "ledger.jsonl").string());

  {
    std::ofstream csv(dir / "fig7_threshold_sweep.csv");
    csv << "T,Overall Acc. (%),Local Exit (%)\n0.5,80,20\n0.9,85,60\n";
  }

  ReportOptions opts;
  opts.results_dir = dir.string();
  const std::string html = render_report_html(opts);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("Run ledger"), std::string::npos);
  EXPECT_NE(html.find("fig7_threshold_sweep"), std::string::npos);
  EXPECT_NE(html.find("runtime.samples"), std::string::npos);
  // HTML-escaped, no raw angle brackets from data.
  EXPECT_EQ(html.find("<script"), std::string::npos);
  // Deterministic: a second render is byte-identical.
  EXPECT_EQ(html, render_report_html(opts));

  const std::string out = (dir / "report.html").string();
  write_report_html(opts, out);
  std::ifstream in(out);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), html);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace ddnn::obs
