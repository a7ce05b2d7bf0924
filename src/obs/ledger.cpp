#include "obs/ledger.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"
#include "util/error.hpp"
#include "util/results.hpp"

namespace ddnn::obs {

namespace {

/// One ledger line -> record. Shape: an object with a string "command" and
/// optional "info" (string -> string) and "metrics" (string -> finite
/// number) objects; anything else is rejected, naming the line.
LedgerRecord parse_line(const std::string& line, std::size_t line_no) {
  const auto fail = [line_no](const std::string& what) {
    DDNN_CHECK(false, "ledger line " << line_no << ": " << what);
  };
  JsonValue root;
  try {
    root = parse_json(line);
  } catch (const ddnn::Error& e) {
    fail(e.what());
  }
  if (!root.is_object()) fail("record is not a JSON object");
  LedgerRecord rec;
  const auto members = [&](const JsonValue& v, const std::string& key)
      -> const std::vector<std::pair<std::string, JsonValue>>& {
    if (!v.is_object()) fail("'" + key + "' is not an object");
    return v.members;
  };
  for (const auto& [key, value] : root.members) {
    if (key == "command") {
      if (!value.is_string()) fail("command is not a string");
      rec.command = value.s;
    } else if (key == "info") {
      for (const auto& [k, v] : members(value, key)) {
        if (!v.is_string()) fail("info '" + k + "' is not a string");
        rec.info.emplace_back(k, v.s);
      }
    } else if (key == "metrics") {
      for (const auto& [k, v] : members(value, key)) {
        if (!v.is_number() || !std::isfinite(v.number())) {
          fail("metric '" + k + "' is not a finite number");
        }
        rec.metrics.emplace_back(k, v.number());
      }
    } else {
      fail("unknown ledger key '" + key + "'");
    }
  }
  if (rec.command.empty()) fail("record has no command");
  return rec;
}

}  // namespace

std::string default_ledger_path() {
  const std::string dir = results_dir();
  if (dir.empty()) return "";
  return dir + "/ledger.jsonl";
}

std::string to_json_line(const LedgerRecord& record) {
  DDNN_CHECK(!record.command.empty(), "ledger record needs a command");
  std::ostringstream os;
  os << "{\"command\": \"" << json_escape(record.command) << "\"";
  os << ", \"info\": {";
  for (std::size_t i = 0; i < record.info.size(); ++i) {
    os << (i ? ", " : "") << "\"" << json_escape(record.info[i].first)
       << "\": \"" << json_escape(record.info[i].second) << "\"";
  }
  os << "}, \"metrics\": {";
  for (std::size_t i = 0; i < record.metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << json_escape(record.metrics[i].first)
       << "\": " << json_number(record.metrics[i].second);
  }
  os << "}}";
  return os.str();
}

std::string append_record(const LedgerRecord& record, const std::string& path) {
  std::string resolved = path.empty() ? default_ledger_path() : path;
  if (resolved.empty()) return "";
  const std::size_t slash = resolved.find_last_of('/');
  if (slash != std::string::npos && slash > 0) {
    ensure_dir(resolved.substr(0, slash));
  }
  const std::string line = to_json_line(record) + "\n";
  // One fwrite on an append-mode stream maps to one write(2) on the
  // O_APPEND descriptor: whole-line atomicity under concurrent writers.
  std::FILE* f = std::fopen(resolved.c_str(), "ab");
  DDNN_CHECK(f != nullptr, "cannot open ledger '" << resolved << "'");
  const std::size_t wrote = std::fwrite(line.data(), 1, line.size(), f);
  const int rc = std::fclose(f);
  DDNN_CHECK(wrote == line.size() && rc == 0,
             "short write to ledger '" << resolved << "'");
  return resolved;
}

std::vector<LedgerRecord> read_ledger(const std::string& path) {
  std::vector<LedgerRecord> out;
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    out.push_back(parse_line(line, line_no));
  }
  return out;
}

}  // namespace ddnn::obs
