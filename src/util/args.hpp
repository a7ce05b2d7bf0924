// Minimal command-line argument parser for the CLI tool and examples.
//
// Supports long options with values ("--epochs 40" or "--epochs=40"),
// boolean flags ("--verbose"), positional arguments, and --help. Unknown
// options and missing values throw ddnn::Error so the CLI fails loudly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ddnn {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Register a boolean flag ("--verbose").
  ArgParser& add_flag(const std::string& name, const std::string& help);

  /// Register a value option with a default ("--epochs", "40").
  ArgParser& add_option(const std::string& name, const std::string& help,
                        const std::string& default_value);

  /// Parse argv. Returns false when --help was requested (usage printed to
  /// stdout); throws ddnn::Error on malformed input.
  bool parse(int argc, const char* const* argv);

  bool has_flag(const std::string& name) const;
  const std::string& get(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;

  // Range-validated getters: reject out-of-range values with an error that
  // names the flag, so "--fleet-devices -3" fails loudly instead of feeding
  // a nonsense count into the simulator.
  std::int64_t get_int_at_least(const std::string& name, std::int64_t lo) const;
  double get_double_at_least(const std::string& name, double lo) const;
  /// Exclusive lower bound (rates and budgets that must be strictly > lo).
  double get_double_greater_than(const std::string& name, double lo) const;

  const std::vector<std::string>& positionals() const { return positionals_; }

  std::string usage() const;

 private:
  struct Spec {
    std::string name;
    std::string help;
    bool is_flag = false;
    std::string value;  // default, then parsed
    bool seen = false;
  };

  Spec* find(const std::string& name);
  const Spec* find(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::vector<Spec> specs_;
  std::vector<std::string> positionals_;
};

/// `text` as a whole base-10 integer; nullopt when it is empty, carries
/// anything after the digits or does not fit 64 bits.
std::optional<std::int64_t> parse_int(const std::string& text);

/// Split "2,5,0" into integers (empty string -> empty vector).
std::vector<int> parse_int_list(const std::string& csv);

}  // namespace ddnn
