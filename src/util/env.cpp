#include "util/env.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "util/args.hpp"
#include "util/error.hpp"

namespace ddnn {

namespace {

const char* raw_env(const std::string& name) {
  const char* v = std::getenv(name.c_str());
  return (v == nullptr || *v == '\0') ? nullptr : v;
}

std::string to_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

}  // namespace

std::string env_string(const std::string& name, const std::string& fallback) {
  const char* v = raw_env(name);
  return v == nullptr ? fallback : std::string(v);
}

std::int64_t env_int(const std::string& name, std::int64_t fallback) {
  const char* v = raw_env(name);
  if (v == nullptr) return fallback;
  const auto parsed = parse_int(v);
  DDNN_CHECK(parsed.has_value(),
             "env var " << name << " is not an integer: '" << v << "'");
  return *parsed;
}

double env_double(const std::string& name, double fallback) {
  const char* v = raw_env(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  DDNN_CHECK(end != v && *end == '\0',
             "env var " << name << " is not a number: '" << v << "'");
  return parsed;
}

bool env_bool(const std::string& name, bool fallback) {
  const char* v = raw_env(name);
  if (v == nullptr) return fallback;
  const std::string s = to_lower(v);
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  DDNN_CHECK(false, "env var " << name << " is not a boolean: '" << v << "'");
  return fallback;  // unreachable
}

}  // namespace ddnn
