#include "tools/cli.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace cs2p::cli {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_option(const std::string& name, const std::string& help,
                           const std::string& default_value) {
  specs_.push_back({name, help, default_value});
  values_[name] = default_value;
}

bool ArgParser::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n%s", arg.c_str(),
                   usage().c_str());
      return false;
    }
    arg = arg.substr(2);
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "flag --%s needs a value\n%s", arg.c_str(),
                   usage().c_str());
      return false;
    }
    if (!values_.contains(arg)) {
      std::fprintf(stderr, "unknown flag --%s\n%s", arg.c_str(), usage().c_str());
      return false;
    }
    values_[arg] = value;
  }
  return true;
}

std::string ArgParser::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end())
    throw std::logic_error("ArgParser: unregistered option " + name);
  return it->second;
}

namespace {

/// Converts the whole of a flag's value or throws std::invalid_argument
/// naming the flag: std::stol/std::stod alone accept any numeric prefix, so
/// "1e4" would read as 1 and "0.5x" as 0.5.
template <typename Convert>
auto convert_whole(const std::string& name, const std::string& value,
                   Convert convert) {
  std::size_t used = 0;
  try {
    const auto number = convert(value, &used);
    if (used == value.size()) return number;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("--" + name + ": '" + value +
                              "' is not a valid number");
}

/// `token` as a port in [lowest, 65535], or std::invalid_argument naming
/// the flag.
std::uint16_t port_in_range(const std::string& flag, const std::string& token,
                            long lowest) {
  const long port = convert_whole(flag, token, [](const std::string& s, std::size_t* used) {
    return std::stol(s, used);
  });
  if (port < lowest || port > 65535)
    throw std::invalid_argument("--" + flag + ": port " + token + " is outside " +
                                std::to_string(lowest) + "-65535");
  return static_cast<std::uint16_t>(port);
}

}  // namespace

long ArgParser::get_long_in(const std::string& name, long lowest,
                            long highest) const {
  const long value =
      convert_whole(name, get(name), [](const std::string& s, std::size_t* used) {
        return std::stol(s, used);
      });
  if (value < lowest || value > highest)
    throw std::invalid_argument("--" + name + ": " + get(name) + " is outside " +
                                std::to_string(lowest) + "-" +
                                std::to_string(highest));
  return value;
}

double ArgParser::get_double(const std::string& name) const {
  const double value =
      convert_whole(name, get(name), [](const std::string& s, std::size_t* used) {
        return std::stod(s, used);
      });
  // std::stod reads "nan" and "inf"; no flag means either, and a NaN bound
  // makes every comparison against it false.
  if (!std::isfinite(value))
    throw std::invalid_argument("--" + name + ": '" + get(name) +
                                "' is not a finite number");
  return value;
}

std::vector<std::uint16_t> parse_ports(const std::string& flag,
                                       const std::string& csv) {
  std::vector<std::uint16_t> ports;
  std::istringstream tokens(csv);
  for (std::string token; std::getline(tokens, token, ',');)
    if (!token.empty()) ports.push_back(port_in_range(flag, token, 1));
  return ports;
}

std::uint16_t parse_port(const std::string& flag, const std::string& value) {
  return port_in_range(flag, value, 0);
}

bool ArgParser::has(const std::string& name) const {
  const auto it = values_.find(name);
  return it != values_.end() && !it->second.empty();
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& spec : specs_) {
    os << "  --" << spec.name;
    if (!spec.default_value.empty()) os << " (default: " << spec.default_value << ")";
    os << "\n      " << spec.help << "\n";
  }
  os << "  --help\n      show this message\n";
  return os.str();
}

}  // namespace cs2p::cli
