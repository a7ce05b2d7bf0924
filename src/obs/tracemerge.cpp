#include "obs/tracemerge.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"
#include "util/error.hpp"

namespace ddnn::obs {

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DDNN_CHECK(in.good(), "cannot open trace '" << path << "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Microsecond timestamps already denominated in µs (trace files store µs;
/// SpanTracer's json_us takes seconds).
std::string fmt_us_raw(double us) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  return buf;
}

void emit_value(std::ostringstream& os, const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::kNull: os << "null"; break;
    case JsonValue::Kind::kBool: os << (v.b ? "true" : "false"); break;
    case JsonValue::Kind::kInt: os << v.i; break;
    case JsonValue::Kind::kDouble: os << json_double(v.d); break;
    case JsonValue::Kind::kString:
      os << "\"" << json_escape(v.s) << "\"";
      break;
    case JsonValue::Kind::kArray: {
      os << "[";
      for (std::size_t i = 0; i < v.items.size(); ++i) {
        if (i != 0) os << ", ";
        emit_value(os, v.items[i]);
      }
      os << "]";
      break;
    }
    case JsonValue::Kind::kObject: {
      os << "{";
      for (std::size_t i = 0; i < v.members.size(); ++i) {
        if (i != 0) os << ", ";
        os << "\"" << json_escape(v.members[i].first) << "\": ";
        emit_value(os, v.members[i].second);
      }
      os << "}";
      break;
    }
  }
}

struct ProcessTrace {
  std::string name;
  double epoch_s = 0.0;
  double offset_s = 0.0;  ///< reference minus this process's clock
  std::vector<std::pair<std::int64_t, std::string>> tracks;  // (tid, name)
  std::vector<const JsonValue*> spans;  // X events, file order
  JsonValue doc;
};

double meta_value(const JsonValue& doc, const std::string& key,
                  double fallback) {
  const JsonValue* ddnn = doc.find("ddnn");
  if (ddnn == nullptr) return fallback;
  const JsonValue* meta = ddnn->find("meta");
  if (meta == nullptr) return fallback;
  const JsonValue* v = meta->find(key);
  return v != nullptr && v->is_number() ? v->number() : fallback;
}

}  // namespace

std::string merge_traces_json(const std::vector<std::string>& input_paths,
                              TraceMergeResult* stats) {
  DDNN_CHECK(!input_paths.empty(), "trace-merge needs at least one input");

  std::vector<ProcessTrace> procs(input_paths.size());
  for (std::size_t p = 0; p < input_paths.size(); ++p) {
    ProcessTrace& proc = procs[p];
    proc.doc = parse_json(read_file(input_paths[p]));
    const JsonValue* ddnn = proc.doc.find("ddnn");
    const JsonValue* pname =
        ddnn != nullptr ? ddnn->find("process") : nullptr;
    proc.name = pname != nullptr && pname->is_string() && !pname->s.empty()
                    ? pname->s
                    : std::string("p") + std::to_string(p);
    proc.epoch_s = meta_value(proc.doc, "epoch_s", 0.0);
    const JsonValue* events = proc.doc.find("traceEvents");
    DDNN_CHECK(events != nullptr && events->is_array(),
               "'" << input_paths[p] << "' has no traceEvents array");
    for (const JsonValue& ev : events->items) {
      const JsonValue* ph = ev.find("ph");
      DDNN_CHECK(ph != nullptr && ph->is_string(),
                 "'" << input_paths[p] << "' event lacks a ph field");
      if (ph->s == "M") {
        if (ev.at("name").s == "thread_name") {
          proc.tracks.emplace_back(ev.at("tid").i,
                                   ev.at("args").at("name").s);
        }
        continue;  // process_name is re-derived from the ddnn block
      }
      DDNN_CHECK(ph->s == "X", "'" << input_paths[p]
                                   << "' has unsupported event ph '"
                                   << ph->s << "'");
      proc.spans.push_back(&ev);
    }
  }

  // The first input is the reference clock; it carries the handshake
  // offsets that place every other process on its timeline.
  const ProcessTrace& ref = procs[0];
  double max_abs_offset = 0.0;
  std::vector<double> adjust_us(procs.size(), 0.0);
  for (std::size_t p = 1; p < procs.size(); ++p) {
    procs[p].offset_s =
        meta_value(ref.doc, "offset_" + procs[p].name + "_s", 0.0);
    max_abs_offset = std::max(max_abs_offset, std::abs(procs[p].offset_s));
    adjust_us[p] =
        (procs[p].epoch_s + procs[p].offset_s - ref.epoch_s) * 1e6;
  }

  // Global shift: trace_event timestamps should not go negative after the
  // clock alignment pulls an early remote span before the reference epoch.
  double min_ts_us = 0.0;
  std::size_t total_spans = 0;
  for (std::size_t p = 0; p < procs.size(); ++p) {
    for (const JsonValue* span : procs[p].spans) {
      min_ts_us =
          std::min(min_ts_us, span->at("ts").number() + adjust_us[p]);
      ++total_spans;
    }
  }
  const double shift_us = min_ts_us < 0.0 ? -min_ts_us : 0.0;

  std::ostringstream os;
  os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  bool first = true;
  auto sep = [&]() -> std::ostringstream& {
    os << (first ? "\n" : ",\n");
    first = false;
    return os;
  };
  for (std::size_t p = 0; p < procs.size(); ++p) {
    const ProcessTrace& proc = procs[p];
    sep() << "    {\"ph\": \"M\", \"pid\": " << p
          << ", \"tid\": 0, \"name\": \"process_name\", \"args\": "
             "{\"name\": \""
          << json_escape(proc.name) << "\"}}";
    for (const auto& [tid, name] : proc.tracks) {
      sep() << "    {\"ph\": \"M\", \"pid\": " << p << ", \"tid\": " << tid
            << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
            << json_escape(name) << "\"}}";
    }
    for (const JsonValue* span : proc.spans) {
      sep() << "    {\"ph\": \"X\", \"pid\": " << p
            << ", \"tid\": " << span->at("tid").i << ", \"name\": \""
            << json_escape(span->at("name").s) << "\", \"cat\": \""
            << json_escape(span->at("cat").s) << "\", \"ts\": "
            << fmt_us_raw(span->at("ts").number() + adjust_us[p] + shift_us)
            << ", \"dur\": " << fmt_us_raw(span->at("dur").number());
      const JsonValue* args = span->find("args");
      if (args != nullptr && !args->members.empty()) {
        os << ", \"args\": ";
        emit_value(os, *args);
      }
      os << "}";
    }
  }
  os << "\n  ]\n}\n";

  if (stats != nullptr) {
    stats->processes = static_cast<int>(procs.size());
    stats->spans = total_spans;
    stats->max_abs_offset_s = max_abs_offset;
    stats->shift_s = shift_us * 1e-6;
  }
  return os.str();
}

TraceMergeResult merge_traces(const std::vector<std::string>& input_paths,
                              const std::string& out_path) {
  TraceMergeResult stats;
  const std::string merged = merge_traces_json(input_paths, &stats);
  std::ofstream out(out_path, std::ios::binary);
  DDNN_CHECK(out.good(), "cannot open '" << out_path << "' for writing");
  out << merged;
  DDNN_CHECK(out.good(), "write to '" << out_path << "' failed");
  return stats;
}

}  // namespace ddnn::obs
