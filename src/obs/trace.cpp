#include "obs/trace.h"

#include <cinttypes>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/hash.h"

namespace cs2p::obs {

namespace {

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_value(std::string& out, const TraceField& field) {
  if (const auto* u = std::get_if<std::uint64_t>(&field.value)) {
    out += std::to_string(*u);
  } else if (const auto* i = std::get_if<std::int64_t>(&field.value)) {
    out += std::to_string(*i);
  } else if (const auto* d = std::get_if<double>(&field.value)) {
    if (!std::isfinite(*d)) {
      out += "null";  // JSON has no NaN/Inf
    } else {
      std::ostringstream os;
      os.precision(17);
      os << *d;
      out += os.str();
    }
  } else if (const auto* b = std::get_if<bool>(&field.value)) {
    out += *b ? "true" : "false";
  } else if (const auto* s = std::get_if<std::string_view>(&field.value)) {
    append_json_string(out, *s);
  }
}

}  // namespace

bool trace_sample_decision(std::uint64_t seed, double sample_rate,
                           std::uint64_t session_id) noexcept {
  if (sample_rate >= 1.0) return true;
  if (sample_rate <= 0.0) return false;
  // Hash into [0, 2^64); sample the lowest `rate` fraction of hash space.
  const std::uint64_t hashed = splitmix64(seed ^ splitmix64(session_id));
  const double threshold = sample_rate * 18446744073709551616.0;  // 2^64
  return static_cast<double>(hashed) < threshold;
}

TraceLog::TraceLog(Config config)
    : config_(std::move(config)), start_(std::chrono::steady_clock::now()) {
  if (config_.path.empty())
    throw std::runtime_error("TraceLog: empty path");
  file_ = std::fopen(config_.path.c_str(), "ae");  // append, O_CLOEXEC
  if (file_ == nullptr)
    throw std::runtime_error("TraceLog: cannot open " + config_.path);
}

TraceLog::~TraceLog() {
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
  }
}

bool TraceLog::should_sample(std::uint64_t session_id) const noexcept {
  return trace_sample_decision(config_.seed, config_.sample_rate, session_id);
}

void TraceLog::emit(std::string_view event, std::uint64_t session_id,
                    std::initializer_list<TraceField> fields) {
  const auto mono_us = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - start_)
                           .count();
  std::string line;
  line.reserve(96 + fields.size() * 24);
  line += "{\"ev\":";
  append_json_string(line, event);
  line += ",\"sid\":";
  line += std::to_string(session_id);
  line += ",\"mono_us\":";
  line += std::to_string(mono_us);
  for (const TraceField& field : fields) {
    line += ',';
    append_json_string(line, field.key);
    line += ':';
    append_value(line, field);
  }
  line += "}\n";

  std::scoped_lock lock(mutex_);
  if (std::fwrite(line.data(), 1, line.size(), file_) == line.size()) ++events_;
}

void TraceLog::flush() {
  std::scoped_lock lock(mutex_);
  std::fflush(file_);
}

std::uint64_t TraceLog::events_written() const noexcept {
  std::scoped_lock lock(mutex_);
  return events_;
}

}  // namespace cs2p::obs
