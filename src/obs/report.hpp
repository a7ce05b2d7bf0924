// `ddnn report`: render the run ledger, windowed series exports and the
// bench result CSVs into one self-contained HTML dashboard (inline SVG,
// inline CSS, zero external assets — the file opens from disk anywhere).
//
// The renderer is deterministic: files are discovered in sorted order, no
// wall-clock timestamp is embedded, and all numbers are formatted with
// fixed printf formats — rendering the same results directory twice yields
// byte-identical HTML (the report_smoke CTest golden check relies on this).
//
// Charts follow the repo's dataviz conventions: a fixed 6-hue categorical
// palette applied by CSS class (light and dark mode each get their own
// validated steps via prefers-color-scheme), one y-axis per chart, a legend
// whenever a chart has more than one series, native <title> tooltips on the
// data points, and a collapsible table view under every chart.
#pragma once

#include <string>

namespace ddnn::obs {

struct ReportOptions {
  /// Directory holding ledger.jsonl, series exports and bench CSVs.
  /// "" resolves to ddnn::results_dir().
  std::string results_dir;
  std::string title = "DDNN run report";
};

/// Render the dashboard. Missing inputs degrade gracefully: no ledger ->
/// a note, no CSVs -> empty sections; the function only throws on
/// malformed inputs (unparseable ledger line / CSV).
std::string render_report_html(const ReportOptions& options);

/// Render and write to `out_path`. Returns `out_path`.
std::string write_report_html(const ReportOptions& options,
                              const std::string& out_path);

}  // namespace ddnn::obs
