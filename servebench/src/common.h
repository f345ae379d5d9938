// Shared plumbing of the serving benchmark: clocks, latency samples, the
// metric report (human lines plus the one-line JSON result), the in-memory
// span tracer of the traced run, and thread placement.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Timing samples of one operation kind.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  /// Reserve up front where samples are taken inside a timed loop: growing
  /// the vector there would stall the loop on a copy.
  void reserve(std::size_t n) { values_.reserve(n); }
  void append(const Samples& other);
  std::size_t size() const noexcept { return values_.size(); }
  /// Nearest-rank quantile; NaN when empty.
  double quantile(double q) const;
  /// The `across`-quantile over consecutive blocks of `block` samples of
  /// each block's q-quantile (the plain quantile below two blocks). Samples
  /// arrive in time order, so a stretch in which a shared host withheld the
  /// CPUs spoils only its own blocks, and a low `across` skips them.
  double block_quantile(double q, std::size_t block, double across) const;
  double mean() const;

 private:
  std::vector<double> values_;
};

/// Requests of one phase of a workload, as the choosing-metrics guide asks:
/// sent, succeeded and failed, and how long the phase measured.
struct Phase {
  std::string name;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  double seconds = 0.0;
};

/// Everything one run prints. Metrics keep their unit and, for percentiles,
/// the sample count behind them.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 0);
  void phase(Phase phase) { phases_.push_back(std::move(phase)); }
  void note(const std::string& line) { notes_.push_back(line); }
  /// Wrong outputs found by an oracle: they count as failures and make the
  /// run incorrect.
  void add_failures(std::uint64_t count) { extra_failures_ += count; }

  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  bool correct() const { return failed() == 0; }

  /// Prints every note, phase and metric, then the JSON result line with
  /// every metric (a value that is not finite prints as null).
  void print() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<Phase> phases_;
  std::vector<std::string> notes_;
  std::uint64_t extra_failures_ = 0;
};

/// In-memory spans of the traced run. Each call the benchmark makes into a
/// layer opens a span with the layer's name, a request id and the span that
/// caused it (the innermost open span of the same thread). One Tracer per
/// thread; totals merge afterwards. Self time = duration minus the part its
/// child spans cover. Disabled tracers cost one branch per call.
class Tracer {
 public:
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  Tracer() = default;
  Tracer(bool enabled, std::uint32_t thread_tag, std::size_t keep_spans);

  bool enabled() const noexcept { return enabled_; }
  /// Opens a span; returns a handle for end(), or -1 when disabled.
  int begin(const char* layer, std::uint64_t request);
  void end(int handle);

  const std::map<std::string, Totals>& totals() const noexcept { return totals_; }
  Totals layer(const std::string& name) const;
  void merge(const Tracer& other);
  /// One JSON object per kept span.
  void write_jsonl(const std::string& path) const;

 private:
  struct Open {
    std::uint64_t id = 0;
    const char* layer = nullptr;
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
  };
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    const char* layer = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  bool enabled_ = false;
  std::uint64_t next_id_ = 1;
  std::size_t keep_ = 0;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::map<std::string, Totals> totals_;
};

/// RAII span; a null or disabled tracer makes it a no-op.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* layer, std::uint64_t request)
      : tracer_(tracer),
        handle_(tracer != nullptr ? tracer->begin(layer, request) : -1) {}
  ~SpanScope() {
    if (handle_ >= 0) tracer_->end(handle_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int handle_;
};

// -- Threads and CPU time ----------------------------------------------------

/// Kernel thread ids of this process.
std::vector<pid_t> list_threads();
/// Ids in `after` that are not in `before`.
std::vector<pid_t> new_threads(const std::vector<pid_t>& before,
                               const std::vector<pid_t>& after);
/// CPUs this process may run on.
int usable_cpus();
/// Restricts a thread (0 = the calling thread) to `cpus`. Returns false and
/// changes nothing when a CPU is negative or the kernel refuses the set.
bool pin_thread(pid_t tid, const std::vector<int>& cpus);
/// CPU time the thread has run, from /proc/self/task/<tid>/schedstat.
std::uint64_t thread_cpu_ns(pid_t tid);
/// User + system CPU time of the whole process (getrusage).
std::uint64_t process_cpu_ns();
/// Peak resident set size of the process, MiB.
double peak_rss_mb();

}  // namespace servebench
