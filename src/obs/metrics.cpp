#include "obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace cs2p::obs {

namespace detail {

std::size_t shard_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

}  // namespace detail

// -- Histogram ---------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty())
    throw std::invalid_argument("Histogram: needs at least one bucket bound");
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (!std::isfinite(bounds_[i]))
      throw std::invalid_argument("Histogram: bucket bounds must be finite");
    if (i > 0 && bounds_[i] <= bounds_[i - 1])
      throw std::invalid_argument("Histogram: bucket bounds must be strictly increasing");
  }
  shards_.reserve(detail::kShards);
  for (std::size_t i = 0; i < detail::kShards; ++i)
    shards_.push_back(std::make_unique<Shard>(bounds_.size() + 1));
}

void Histogram::observe(double v) noexcept {
  // NaN carries no magnitude; dropping it beats corrupting sum/quantiles.
  if (std::isnan(v)) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t bucket = static_cast<std::size_t>(it - bounds_.begin());
  Shard& shard = *shards_[detail::shard_index()];
  shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(v, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts(bounds_.size() + 1, 0);
  for (const auto& shard : shards_)
    for (std::size_t b = 0; b < counts.size(); ++b)
      counts[b] += shard->counts[b].load(std::memory_order_relaxed);
  return counts;
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_)
    for (const auto& c : shard->counts) total += c.load(std::memory_order_relaxed);
  return total;
}

double Histogram::sum() const noexcept {
  double total = 0.0;
  for (const auto& shard : shards_)
    total += shard->sum.load(std::memory_order_relaxed);
  return total;
}

double Histogram::quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const auto counts = bucket_counts();
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;

  // Rank of the target observation, then walk buckets until it is covered.
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const std::uint64_t before = cumulative;
    cumulative += counts[b];
    if (static_cast<double>(cumulative) < rank) continue;
    if (b == counts.size() - 1) return bounds_.back();  // +inf bucket: clamp
    const double lower = b == 0 ? 0.0 : bounds_[b - 1];
    const double upper = bounds_[b];
    const double into =
        (rank - static_cast<double>(before)) / static_cast<double>(counts[b]);
    return lower + (upper - lower) * std::clamp(into, 0.0, 1.0);
  }
  return bounds_.back();
}

std::vector<double> default_latency_buckets_seconds() {
  std::vector<double> bounds;
  for (double b = 1e-6; b < 17.0; b *= 2.0) bounds.push_back(b);
  return bounds;
}

std::vector<double> default_error_buckets() {
  return {0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0, 2.0, 5.0};
}

std::vector<double> default_duration_buckets_seconds() {
  std::vector<double> bounds;
  for (double b = 1e-3; b < 5000.0; b *= 4.0) bounds.push_back(b);
  return bounds;
}

// -- MetricsRegistry ---------------------------------------------------------

namespace {

bool valid_identifier(const std::string& name) {
  if (name.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(name[0])) || name[0] == '_'))
    return false;
  for (const char c : name)
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) return false;
  return true;
}

std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// "name{k1="v1",k2="v2"}" with keys sorted; "name" when labels are empty.
std::string render_series_key(const std::string& name, Labels labels) {
  std::sort(labels.begin(), labels.end());
  if (labels.empty()) return name;
  std::string out = name + '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first + "=\"" + escape_label_value(labels[i].second) + '"';
  }
  out += '}';
  return out;
}

std::string format_value(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Splices extra labels (e.g. le="...") into a rendered series key.
std::string key_with_label(const std::string& series_key, const std::string& base_name,
                           const std::string& extra) {
  if (series_key.size() == base_name.size())  // no labels yet
    return base_name + '{' + extra + '}';
  std::string out = series_key;
  out.insert(out.size() - 1, "," + extra);
  return out;
}

}  // namespace

struct MetricsRegistry::Series {
  enum Type { kCounter = 0, kGauge, kHistogram };
  explicit Series(Type t, std::vector<double> bounds = {}) : type(t) {
    switch (type) {
      case kCounter: counter = std::make_unique<Counter>(); break;
      case kGauge: gauge = std::make_unique<Gauge>(); break;
      case kHistogram:
        histogram = std::make_unique<Histogram>(std::move(bounds));
        break;
    }
  }
  Type type;
  std::string base_name;  ///< name without labels, for _bucket/_sum rendering
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

// Out-of-line so translation units that only see the forward-declared Series
// can still construct/destroy registries.
MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Series& MetricsRegistry::find_or_create(
    const std::string& name, const Labels& labels, int type,
    std::vector<double> bounds) {
  if (!valid_identifier(name))
    throw std::invalid_argument("MetricsRegistry: invalid metric name '" + name + "'");
  for (const auto& [key, value] : labels) {
    (void)value;
    if (!valid_identifier(key))
      throw std::invalid_argument("MetricsRegistry: invalid label key '" + key + "'");
  }
  const std::string key = render_series_key(name, labels);
  std::scoped_lock lock(mutex_);
  const auto it = series_.find(key);
  if (it != series_.end()) {
    if (it->second->type != type)
      throw std::invalid_argument("MetricsRegistry: '" + key +
                                  "' already registered as a different type");
    return *it->second;
  }
  auto series = std::make_unique<Series>(static_cast<Series::Type>(type),
                                         std::move(bounds));
  series->base_name = name;
  return *series_.emplace(key, std::move(series)).first->second;
}

Counter& MetricsRegistry::counter(const std::string& name, Labels labels) {
  return *find_or_create(name, labels, Series::kCounter, {}).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, Labels labels) {
  return *find_or_create(name, labels, Series::kGauge, {}).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds,
                                      Labels labels) {
  return *find_or_create(name, labels, Series::kHistogram, std::move(upper_bounds))
              .histogram;
}

std::size_t MetricsRegistry::series_count() const {
  std::scoped_lock lock(mutex_);
  return series_.size();
}

std::string MetricsRegistry::scrape() const {
  std::ostringstream os;
  os << "# cs2p_metrics_version " << kMetricsExpositionVersion << '\n';
  std::scoped_lock lock(mutex_);
  for (const auto& [key, series] : series_) {
    switch (series->type) {
      case Series::kCounter:
        os << key << ' ' << series->counter->value() << '\n';
        break;
      case Series::kGauge:
        os << key << ' ' << format_value(series->gauge->value()) << '\n';
        break;
      case Series::kHistogram: {
        const Histogram& h = *series->histogram;
        const auto counts = h.bucket_counts();
        const auto& bounds = h.upper_bounds();
        // Rendered under "<name>_bucket{...,le="bound"}", cumulative like
        // Prometheus so downstream quantile math composes across scrapes.
        const std::string bucket_key_base = key.substr(series->base_name.size());
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < counts.size(); ++b) {
          cumulative += counts[b];
          const std::string le =
              b < bounds.size() ? format_value(bounds[b]) : std::string("+Inf");
          std::string bucket_key = series->base_name + "_bucket" + bucket_key_base;
          if (bucket_key_base.empty()) bucket_key = series->base_name + "_bucket";
          os << key_with_label(bucket_key, series->base_name + "_bucket",
                               "le=\"" + le + '"')
             << ' ' << cumulative << '\n';
        }
        os << series->base_name << "_sum" << bucket_key_base << ' '
           << format_value(h.sum()) << '\n';
        os << series->base_name << "_count" << bucket_key_base << ' ' << cumulative
           << '\n';
        break;
      }
    }
  }
  return os.str();
}

}  // namespace cs2p::obs
