// Shared configuration of the benchmark harness.
//
// Every bench binary reproduces one table/figure of the paper on the same
// "standard world": a scale model of the iQiyi dataset dense enough that
// session clusters at the (ISP, City, Server, Prefix) granularity hold
// dozens-to-hundreds of training sessions, as the paper's 20M-session
// dataset does at its clustering granularity. Day 0 trains, day 1 tests
// (§7.1). Everything is deterministic from the seeds below.
//
// A figure bench whose shape claims bench/check_shapes.py asserts ends its
// stdout with one JSON object (JsonObject) holding every number its tables
// show.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dataset/synthetic.h"

namespace cs2p::bench {

/// World used by all accuracy/QoE benches.
inline SyntheticConfig standard_config() {
  SyntheticConfig config;
  config.num_isps = 6;
  config.num_provinces = 8;
  config.cities_per_province = 3;
  config.num_servers = 12;
  config.servers_per_province = 2;
  config.prefixes_per_isp_city = 2;
  config.num_sessions = 16000;
  config.days = 2;
  config.seed = 2016;  // SIGCOMM'16
  return config;
}

/// Reads CS2P_BENCH_SESSIONS to scale runs up/down without recompiling. A
/// value that is not a whole positive integer ("3k", "abc", "0") exits 1
/// naming the variable, instead of running a world nobody asked for.
inline SyntheticConfig standard_config_scaled() {
  SyntheticConfig config = standard_config();
  if (const char* env = std::getenv("CS2P_BENCH_SESSIONS")) {
    const std::string_view text(env);
    std::size_t n = 0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), n);
    if (ec != std::errc{} || end != text.data() + text.size() || n == 0) {
      std::fprintf(stderr,
                   "CS2P_BENCH_SESSIONS: '%s' is not a whole positive number\n",
                   env);
      std::exit(1);
    }
    config.num_sessions = n;
  }
  return config;
}

struct TrainTest {
  Dataset train;
  Dataset test;
};

inline TrainTest standard_dataset() {
  Dataset dataset = generate_synthetic_dataset(standard_config_scaled());
  auto [train, test] = dataset.split_by_day(1);
  return {std::move(train), std::move(test)};
}

/// One JSON object built field by field, in insertion order. A double is
/// written in its shortest round-trip form (the tables print 3 decimals; the
/// checker compares the exact values), a non-finite one as null.
class JsonObject {
 public:
  JsonObject& add(std::string_view key, std::string_view value) {
    append_string(field(key), value);
    return *this;
  }
  JsonObject& add(std::string_view key, std::size_t value) {
    field(key) += std::to_string(value);
    return *this;
  }
  JsonObject& add(std::string_view key, double value) {
    append_number(field(key), value);
    return *this;
  }
  JsonObject& add(std::string_view key, const std::vector<double>& values) {
    std::string& out = field(key);
    out += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ',';
      append_number(out, values[i]);
    }
    out += ']';
    return *this;
  }
  JsonObject& add(std::string_view key, const JsonObject& value) {
    field(key) += value.str();
    return *this;
  }

  std::string str() const { return "{" + body_ + "}"; }

 private:
  /// Appends `key`'s name and colon, and returns the text to append its
  /// value to.
  std::string& field(std::string_view key) {
    if (!body_.empty()) body_ += ',';
    append_string(body_, key);
    body_ += ':';
    return body_;
  }

  static void append_string(std::string& out, std::string_view s) {
    out += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
  }

  static void append_number(std::string& out, double value) {
    if (!std::isfinite(value)) {
      out += "null";  // JSON has no NaN or infinity
      return;
    }
    char buf[32];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  }

  std::string body_;
};

}  // namespace cs2p::bench
