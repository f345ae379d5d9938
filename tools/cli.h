// Minimal command-line parsing shared by the cs2p_* tools.
//
// Supports --flag value and --flag=value forms, typed accessors with
// defaults, and a generated usage message. Unknown flags are an error so
// typos fail fast.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
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
  /// A numeric flag: the whole value must parse to a finite number, or
  /// std::invalid_argument names the flag.
  double get_double(const std::string& name) const;
  /// An integer flag read into type T, the only way to read one: the whole
  /// value must parse and fit T (negatives are outside every unsigned type),
  /// or std::invalid_argument names the flag and the range. A narrowing cast
  /// would turn `--session-shards -1` into SIZE_MAX.
  template <typename T>
  T get_int(const std::string& name) const {
    static_assert(std::is_integral_v<T> && sizeof(T) <= sizeof(long));
    using Limits = std::numeric_limits<T>;
    constexpr unsigned long kLongMax = std::numeric_limits<long>::max();
    const long highest = static_cast<long>(
        std::min(static_cast<unsigned long>(Limits::max()), kLongMax));
    return static_cast<T>(
        get_long_in(name, static_cast<long>(Limits::min()), highest));
  }
  bool has(const std::string& name) const;

  std::string usage() const;

 private:
  /// The whole value as a long in [lowest, highest], or
  /// std::invalid_argument naming the flag.
  long get_long_in(const std::string& name, long lowest, long highest) const;

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
