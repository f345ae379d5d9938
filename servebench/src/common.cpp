#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <thread>

namespace servebench {

// -- Samples -----------------------------------------------------------------

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

namespace {

double nearest_rank(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(index), values.end());
  return values[index];
}

}  // namespace

double Samples::quantile(double q) const { return nearest_rank(values_, q); }

double Samples::block_quantile(double q, std::size_t block, double across) const {
  if (block == 0 || values_.size() < 2 * block) return quantile(q);
  std::vector<double> per_block;
  for (std::size_t start = 0; start + block <= values_.size(); start += block) {
    const auto first = values_.begin() + static_cast<long>(start);
    per_block.push_back(nearest_rank(std::vector<double>(first, first + static_cast<long>(block)), q));
  }
  return nearest_rank(std::move(per_block), across);
}

double Samples::mean() const {
  if (values_.empty()) return std::nan("");
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

// -- Report ------------------------------------------------------------------

void Report::metric(const std::string& name, double value, const std::string& unit,
                    std::size_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

std::uint64_t Report::attempted() const {
  std::uint64_t total = 0;
  for (const Phase& p : phases_) total += p.sent;
  return total;
}

std::uint64_t Report::failed() const {
  std::uint64_t total = extra_failures_;
  for (const Phase& p : phases_) total += p.failed;
  return total;
}

void Report::print() const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  for (const Phase& p : phases_) {
    std::printf("phase %-12s sent=%llu succeeded=%llu failed=%llu seconds=%.3f\n",
                p.name.c_str(), static_cast<unsigned long long>(p.sent),
                static_cast<unsigned long long>(p.ok),
                static_cast<unsigned long long>(p.failed), p.seconds);
  }
  const std::uint64_t attempted_n = attempted();
  const std::uint64_t failed_n = failed();
  const double error_rate =
      attempted_n > 0 ? static_cast<double>(failed_n) / static_cast<double>(attempted_n)
                      : 0.0;
  std::printf("metric %-36s %.6g ratio (failed %llu of %llu attempted)\n",
              "error_rate", error_rate, static_cast<unsigned long long>(failed_n),
              static_cast<unsigned long long>(attempted_n));
  for (const auto& [name, m] : metrics_) {
    if (m.samples > 0) {
      std::printf("metric %-36s %.6g %s (n=%zu)\n", name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("metric %-36s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_n);
  json += ", \"failed\": " + std::to_string(failed_n);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    char value[64] = "null";
    if (std::isfinite(m.value)) std::snprintf(value, sizeof value, "%.17g", m.value);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// -- Tracer ------------------------------------------------------------------

Tracer::Tracer(bool enabled, std::uint32_t thread_tag, std::size_t keep_spans)
    : enabled_(enabled),
      next_id_((static_cast<std::uint64_t>(thread_tag) << 40) | 1),
      keep_(keep_spans) {
  if (enabled_) stack_.reserve(16);
}

int Tracer::begin(const char* layer, std::uint64_t request) {
  if (!enabled_) return -1;
  stack_.push_back(Open{next_id_++, layer, request, now_ns(), 0});
  return static_cast<int>(stack_.size() - 1);
}

void Tracer::end(int handle) {
  if (!enabled_ || handle < 0 || static_cast<std::size_t>(handle) + 1 != stack_.size())
    return;
  const std::int64_t end_ns = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = end_ns - open.start_ns;
  std::uint64_t parent = 0;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
    parent = stack_.back().id;
  }
  Totals& t = totals_[open.layer];
  ++t.count;
  t.total_ns += duration;
  t.self_ns += duration - open.child_ns;
  if (spans_.size() < keep_)
    spans_.push_back(Span{open.id, parent, open.request, open.layer, open.start_ns, end_ns});
}

Tracer::Totals Tracer::layer(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? Totals{} : it->second;
}

void Tracer::merge(const Tracer& other) {
  for (const auto& [name, t] : other.totals_) {
    Totals& mine = totals_[name];
    mine.count += t.count;
    mine.total_ns += t.total_ns;
    mine.self_ns += t.self_ns;
  }
  const std::size_t room = keep_ > spans_.size() ? keep_ - spans_.size() : 0;
  const std::size_t take = std::min(room, other.spans_.size());
  spans_.insert(spans_.end(), other.spans_.begin(),
                other.spans_.begin() + static_cast<long>(take));
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"layer\":\"" << s.layer
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

// -- Threads and CPU time ----------------------------------------------------

std::vector<pid_t> list_threads() {
  std::vector<pid_t> tids;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task"))
    tids.push_back(static_cast<pid_t>(std::stol(entry.path().filename().string())));
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::vector<pid_t> new_threads(const std::vector<pid_t>& before,
                               const std::vector<pid_t>& after) {
  std::vector<pid_t> fresh;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(fresh));
  return fresh;
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    return static_cast<int>(std::thread::hardware_concurrency());
  return CPU_COUNT(&set);
}

bool pin_thread(pid_t tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) {
    if (cpu < 0 || cpu >= CPU_SETSIZE) return false;
    CPU_SET(cpu, &set);
  }
  return !cpus.empty() && sched_setaffinity(tid, sizeof set, &set) == 0;
}

std::uint64_t thread_cpu_ns(pid_t tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  std::uint64_t ns = 0;
  in >> ns;
  return ns;
}

std::uint64_t process_cpu_ns() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(tv.tv_usec) * 1'000ull;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace servebench
