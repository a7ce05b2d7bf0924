#include "util/args.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/error.hpp"

namespace ddnn {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

ArgParser& ArgParser::add_flag(const std::string& name,
                               const std::string& help) {
  DDNN_CHECK(find(name) == nullptr, "duplicate option --" << name);
  specs_.push_back({name, help, /*is_flag=*/true, "false", false});
  return *this;
}

ArgParser& ArgParser::add_option(const std::string& name,
                                 const std::string& help,
                                 const std::string& default_value) {
  DDNN_CHECK(find(name) == nullptr, "duplicate option --" << name);
  specs_.push_back({name, help, /*is_flag=*/false, default_value, false});
  return *this;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%s", usage().c_str());
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string inline_value;
    bool has_inline = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline = true;
    }
    Spec* spec = find(name);
    DDNN_CHECK(spec != nullptr, "unknown option --" << name << "\n" << usage());
    spec->seen = true;
    if (spec->is_flag) {
      DDNN_CHECK(!has_inline, "flag --" << name << " takes no value");
      spec->value = "true";
    } else if (has_inline) {
      spec->value = std::move(inline_value);
    } else {
      DDNN_CHECK(i + 1 < argc, "option --" << name << " needs a value");
      spec->value = argv[++i];
    }
  }
  return true;
}

bool ArgParser::has_flag(const std::string& name) const {
  const Spec* spec = find(name);
  DDNN_CHECK(spec != nullptr && spec->is_flag, "no such flag --" << name);
  return spec->value == "true";
}

const std::string& ArgParser::get(const std::string& name) const {
  const Spec* spec = find(name);
  DDNN_CHECK(spec != nullptr && !spec->is_flag, "no such option --" << name);
  return spec->value;
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  const std::string& v = get(name);
  const auto parsed = parse_int(v);
  DDNN_CHECK(parsed.has_value(),
             "--" << name << " expects an integer, got '" << v << "'");
  return *parsed;
}

double ArgParser::get_double(const std::string& name) const {
  const std::string& v = get(name);
  char* end = nullptr;
  const double parsed = std::strtod(v.c_str(), &end);
  DDNN_CHECK(end != v.c_str() && *end == '\0',
             "--" << name << " expects a number, got '" << v << "'");
  return parsed;
}

std::int64_t ArgParser::get_int_at_least(const std::string& name,
                                         std::int64_t lo) const {
  const std::int64_t v = get_int(name);
  DDNN_CHECK(v >= lo,
             "--" << name << " must be >= " << lo << ", got " << v);
  return v;
}

double ArgParser::get_double_at_least(const std::string& name,
                                      double lo) const {
  const double v = get_double(name);
  DDNN_CHECK(v >= lo, "--" << name << " must be >= " << lo << ", got " << v);
  return v;
}

double ArgParser::get_double_greater_than(const std::string& name,
                                          double lo) const {
  const double v = get_double(name);
  DDNN_CHECK(v > lo, "--" << name << " must be > " << lo << ", got " << v);
  return v;
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << description_ << "\n\nusage: " << program_ << " [options]\n\noptions:\n";
  for (const auto& spec : specs_) {
    os << "  --" << spec.name;
    if (!spec.is_flag) os << " <value>";
    os << "\n      " << spec.help;
    if (!spec.is_flag) os << " (default: " << spec.value << ")";
    os << "\n";
  }
  os << "  --help\n      show this message\n";
  return os.str();
}

ArgParser::Spec* ArgParser::find(const std::string& name) {
  for (auto& spec : specs_) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

const ArgParser::Spec* ArgParser::find(const std::string& name) const {
  for (const auto& spec : specs_) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::optional<std::int64_t> parse_int(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    return std::nullopt;
  }
  return parsed;
}

std::vector<int> parse_int_list(const std::string& csv) {
  std::vector<int> out;
  std::string token;
  std::istringstream is(csv);
  while (std::getline(is, token, ',')) {
    if (token.empty()) continue;
    const auto parsed = parse_int(token);
    DDNN_CHECK(parsed.has_value(),
               "bad integer '" << token << "' in list '" << csv << "'");
    out.push_back(static_cast<int>(*parsed));
  }
  return out;
}

}  // namespace ddnn
