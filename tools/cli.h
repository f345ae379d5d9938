// Minimal command-line parsing shared by the cs2p_* tools.
//
// Supports --flag value and --flag=value forms, typed accessors with
// defaults, and a generated usage message. Unknown flags are an error so
// typos fail fast.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace cs2p::cli {

/// One registered option (for the usage text).
struct OptionSpec {
  std::string name;
  std::string help;
  std::string default_value;
};

class ArgParser {
 public:
  /// `describe` registers options up front so usage() is complete and
  /// unknown flags can be rejected.
  ArgParser(std::string program, std::string description);

  /// Registers an option; call before parse().
  void add_option(const std::string& name, const std::string& help,
                  const std::string& default_value = "");

  /// Parses argv. Returns false (after printing usage) on --help or on a
  /// malformed/unknown flag.
  bool parse(int argc, char** argv);

  std::string get(const std::string& name) const;
  /// Numeric accessors: the whole value must parse, or they throw
  /// std::invalid_argument naming the flag.
  long get_long(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool has(const std::string& name) const;

  std::string usage() const;

 private:
  std::string program_;
  std::string description_;
  std::vector<OptionSpec> specs_;
  std::map<std::string, std::string> values_;
};

/// "9001,9002" -> {9001, 9002} for a port-list flag such as --peers. Empty
/// tokens are skipped; one that is not a whole number in 1–65535 throws
/// std::invalid_argument naming `--flag` (a typo fails at startup).
std::vector<std::uint16_t> parse_ports(const std::string& flag,
                                       const std::string& csv);

/// One port for a single-port flag such as --port: a whole number in
/// 0–65535 (0 is the flag's "ephemeral" or "off"), or std::invalid_argument
/// naming `--flag`. A narrowing cast would wrap 70000 to 4464.
std::uint16_t parse_port(const std::string& flag, const std::string& value);

}  // namespace cs2p::cli
