// Minimal, dependency-free JSON support for the observability tools.
//
// Two halves:
//
//   * parse_json — a strict recursive-descent parser producing a JsonValue
//     tree. Object members keep file order (merging must be deterministic),
//     and integers that fit int64 stay integers so ids like trace_id
//     round-trip without drifting through double formatting.
//   * emit helpers (json_escape / json_double / json_number / json_us)
//     shared by every exporter — SpanTracer::to_json, `ddnn trace-merge`,
//     the metrics registry, series, SLO and ledger exports — so each number
//     kind has one formatter and a merged trace renders spans with exactly
//     the bytes the per-process tracers wrote.
//
// This is not a general-purpose JSON library: it parses what this repo
// emits (trace_event files, MetricsRegistry snapshots, ledger lines) and throws
// ddnn::Error naming the defect on anything malformed.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ddnn::obs {

struct JsonValue {
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  std::int64_t i = 0;
  double d = 0.0;
  std::string s;
  std::vector<JsonValue> items;  ///< kArray elements in file order
  std::vector<std::pair<std::string, JsonValue>>
      members;  ///< kObject members in file order

  bool is_null() const { return kind == Kind::kNull; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const {
    return kind == Kind::kInt || kind == Kind::kDouble;
  }

  /// Numeric value of kInt/kDouble (throws otherwise).
  double number() const;
  /// First object member with this key, or nullptr.
  const JsonValue* find(const std::string& key) const;
  /// find() + throw when absent — for required fields.
  const JsonValue& at(const std::string& key) const;
};

/// Parse one complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected). Throws ddnn::Error with byte offset on malformed input.
JsonValue parse_json(const std::string& text);

/// Escape for embedding inside a JSON string literal (no quotes added).
std::string json_escape(const std::string& s);

/// Deterministic %.17g rendering — the same double always produces the same
/// bytes, and the bytes parse back to the same double.
std::string json_double(double v);

/// Counter-friendly rendering: integral values below 9e15 print as
/// integers (so downstream checkers sum them exactly), everything else as
/// json_double. Series cells and ledger metrics use it.
std::string json_number(double v);

/// Trace timestamps: seconds rendered as microseconds with fixed 3-decimal
/// sub-microsecond precision.
std::string json_us(double seconds);

}  // namespace ddnn::obs
