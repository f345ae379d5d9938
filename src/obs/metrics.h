// Unified telemetry: the metrics registry every subsystem reports into
// (DESIGN.md §11).
//
// The serving hot path (OBSERVE → filter update → predict → reply) runs on
// many threads at once, so the primitives here are built around two rules:
//
//   1. Registration is cold, recording is hot. Looking a metric up by name
//      takes the registry mutex once; the returned handle is a stable
//      reference the caller caches and then updates lock-free forever.
//   2. Writers never share a cache line. Counters and histograms shard
//      their atomics across cache-line-aligned slots indexed per thread, so
//      N serving threads incrementing the same counter do not serialize on
//      one contended word. Readers (the STATS scrape) sum the shards —
//      scraping pays the cost, serving does not.
//
// Readout is Prometheus-style text exposition (`name{label="v"} value`
// lines behind a version header) because it diffs well, greps well, and the
// wire protocol's STATS verb can carry it verbatim.
//
// Metric naming scheme: `cs2p_<subsystem>_<what>[_<unit>]`, subsystems
// `server`, `engine`, `guardrail`, `ingest`, `model`, `client`. Counters end
// in `_total`, histograms in a unit (`_seconds`), gauges in neither.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace cs2p::obs {

/// Label set of one metric instance ("series"), e.g. {{"verb", "OBSERVE"}}.
/// Kept sorted by key when rendered so equal label sets serialize equally.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {
/// Writer shards: enough that a machine's worth of serving threads rarely
/// collide, small enough that scraping stays trivially cheap.
inline constexpr std::size_t kShards = 16;

/// Stable per-thread shard slot (round-robin assignment on first use).
std::size_t shard_index() noexcept;

struct alignas(64) ShardedWord {
  std::atomic<std::uint64_t> value{0};
};
}  // namespace detail

/// Monotonic counter. inc() is wait-free on x86 (one relaxed fetch_add on a
/// thread-private shard); value() sums the shards and may be momentarily
/// stale relative to concurrent writers — fine for telemetry, and the reason
/// counters must be monotonic.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    shards_[detail::shard_index()].value.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& shard : shards_) sum += shard.value.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  std::array<detail::ShardedWord, detail::kShards> shards_;
};

/// Last-writer-wins instantaneous value (queue depth, live sessions).
/// A single atomic — gauges are set from bookkeeping paths, not the serve
/// hot path, so sharding would only blur the "current value" semantics.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram (latencies, errors). Bucket upper bounds are set
/// at registration and never change; an implicit +inf bucket catches
/// overflow. observe() touches one thread-private shard (bucket count + sum
/// + count, all relaxed); quantile() interpolates linearly inside the
/// winning bucket, which is exact enough for the p50/p95/p99 readouts
/// operators act on as long as the buckets are sized for the range.
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing and non-empty; a value v
  /// lands in the first bucket with v <= bound, else in +inf.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept;

  std::uint64_t count() const noexcept;
  double sum() const noexcept;

  /// Per-bucket (non-cumulative) counts; size = upper_bounds().size() + 1,
  /// last entry is the +inf bucket.
  std::vector<std::uint64_t> bucket_counts() const;

  /// q in [0, 1]. Linear interpolation within the target bucket; values in
  /// the +inf bucket report the largest finite bound (the histogram cannot
  /// know more). 0 observations -> 0.
  double quantile(double q) const;

  const std::vector<double>& upper_bounds() const noexcept { return bounds_; }

 private:
  struct alignas(64) Shard {
    explicit Shard(std::size_t buckets) : counts(buckets) {}
    std::vector<std::atomic<std::uint64_t>> counts;  ///< one per bucket (+inf last)
    std::atomic<double> sum{0.0};
  };

  std::vector<double> bounds_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Default request-latency bucket ladder: 1 us .. ~16 s, doubling. Covers a
/// loopback round trip (~tens of us) through an EM retrain (seconds).
std::vector<double> default_latency_buckets_seconds();

/// Buckets for relative prediction error (|w_hat - w| / w): 1% .. 100%+.
std::vector<double> default_error_buckets();

/// Buckets for long-lived durations (connection lifetimes, churn): 1 ms ..
/// ~68 min, quadrupling — a short ladder spanning a quick probe through a
/// feature-length streaming session.
std::vector<double> default_duration_buckets_seconds();

/// Version stamped into the first line of every scrape
/// (`# cs2p_metrics_version N`); bumped when the exposition grammar changes.
inline constexpr int kMetricsExpositionVersion = 1;

/// Name -> metric map with stable handle addresses. One registry per scrape
/// root: cs2p_serve wires a single registry through the server, the engine
/// and the guardrails so one STATS verb covers the whole process; tests
/// build private registries for hermetic assertions.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. The returned reference is valid for the registry's
  /// lifetime. Throws std::invalid_argument when `name` (with equal labels)
  /// is already registered as a different metric type, or when the name is
  /// not a valid identifier ([a-zA-Z_][a-zA-Z0-9_]*).
  Counter& counter(const std::string& name, Labels labels = {});
  Gauge& gauge(const std::string& name, Labels labels = {});
  /// `upper_bounds` is used on first registration; later lookups of the same
  /// series return the existing histogram regardless.
  Histogram& histogram(const std::string& name, std::vector<double> upper_bounds,
                       Labels labels = {});

  /// Text exposition of every registered series:
  ///
  ///   # cs2p_metrics_version 1
  ///   name{label="value"} 42
  ///   hist_bucket{le="0.001"} 10        (cumulative, Prometheus-style)
  ///   hist_bucket{le="+Inf"} 12
  ///   hist_sum{} 0.0123
  ///   hist_count{} 12
  ///
  /// Series are emitted in lexicographic order so two scrapes diff cleanly.
  std::string scrape() const;

  /// Number of registered series (counts one per labelled instance).
  std::size_t series_count() const;

 private:
  struct Series;
  Series& find_or_create(const std::string& name, const Labels& labels,
                         int type, std::vector<double> bounds);

  mutable std::mutex mutex_;
  /// Keyed by rendered "name{labels}" so identical series unify; values are
  /// unique_ptrs so handle addresses survive rehashing.
  std::map<std::string, std::unique_ptr<Series>> series_;
};

}  // namespace cs2p::obs
