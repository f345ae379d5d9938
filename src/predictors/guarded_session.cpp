#include "predictors/guarded_session.h"

#include <algorithm>
#include <cmath>

#include "util/stats.h"

namespace cs2p {
namespace {

double spike_ceiling(const GaussianHmm& model, const GuardrailConfig& config) {
  double max_mean = 0.0;
  for (const auto& state : model.states) max_mean = std::max(max_mean, state.mean);
  return config.max_spike_multiple > 0.0 ? config.max_spike_multiple * max_mean
                                         : 0.0;  // 0 disables clamping
}

}  // namespace

GuardedSessionPredictor::GuardedSessionPredictor(
    const GaussianHmm& model, double initial_value, double global_fallback_mbps,
    const SurpriseBaseline& baseline, const GuardrailConfig& config,
    PredictionRule rule, std::uint8_t static_flags, EventCallback on_event,
    const GuardrailMetrics* metrics)
    : GuardedSessionPredictor(HmmKernel::create(model), initial_value,
                              global_fallback_mbps, baseline, config, rule,
                              static_flags, std::move(on_event), metrics) {}

GuardedSessionPredictor::GuardedSessionPredictor(
    std::shared_ptr<const HmmKernel> kernel, double initial_value,
    double global_fallback_mbps, const SurpriseBaseline& baseline,
    const GuardrailConfig& config, PredictionRule rule,
    std::uint8_t static_flags, EventCallback on_event,
    const GuardrailMetrics* metrics)
    : filter_(kernel, rule),
      initial_value_(initial_value),
      global_fallback_mbps_(global_fallback_mbps),
      config_(config),
      sanitizer_(spike_ceiling(kernel->model(), config), metrics),
      monitor_(baseline, config),
      static_flags_(static_flags),
      on_event_(std::move(on_event)),
      metrics_(metrics) {
  if (on_event_) on_event_(GuardrailEvent::kOpened, false);
}

GuardedSessionPredictor::~GuardedSessionPredictor() {
  if (on_event_) on_event_(GuardrailEvent::kClosed, degraded());
}

double GuardedSessionPredictor::fallback_forecast() const {
  // Harmonic mean of the recent accepted samples — robust to the outliers
  // that likely caused the degradation in the first place.
  const double hm = harmonic_mean(recent_samples_);
  if (hm > 0.0) return hm;
  // End of the chain: the global model's initial value, with the cluster
  // median before it when the global value is unusable.
  if (global_fallback_mbps_ > 0.0 && std::isfinite(global_fallback_mbps_))
    return global_fallback_mbps_;
  return initial_value_;
}

double GuardedSessionPredictor::predict(unsigned steps_ahead) const {
  if (degraded()) {
    ++fallback_predictions_;
    if (metrics_ != nullptr && metrics_->fallback_predictions != nullptr)
      metrics_->fallback_predictions->inc();
    return fallback_forecast();
  }
  if (filter_.observations() == 0) return initial_value_;
  return filter_.predict(std::max(1U, steps_ahead));
}

void GuardedSessionPredictor::observe(double throughput_mbps) {
  const ObservationSanitizer::Result sample = sanitizer_.sanitize(throughput_mbps);
  if (!sample.accepted()) return;  // poisoned sample: belief unchanged

  recent_samples_.push_back(sample.value);
  if (config_.fallback_window > 0 &&
      recent_samples_.size() > config_.fallback_window)
    recent_samples_.erase(recent_samples_.begin());

  const bool was_degraded = degraded();
  filter_.observe(sample.value);
  monitor_.record(filter_.last_log_likelihood());
  const bool now_degraded = degraded();
  if (on_event_ && was_degraded != now_degraded) {
    on_event_(now_degraded ? GuardrailEvent::kTripped : GuardrailEvent::kRecovered,
              now_degraded);
  }
}

std::uint8_t GuardedSessionPredictor::serve_flags() const {
  std::uint8_t flags = static_flags_;
  if (degraded())
    flags |= serve_flags::kDegraded | serve_flags::kGuardrailTripped;
  return flags;
}

std::optional<double> GuardedSessionPredictor::last_log_likelihood() const {
  if (filter_.observations() == 0) return std::nullopt;
  const double ll = filter_.last_log_likelihood();
  if (std::isnan(ll)) return std::nullopt;
  return ll;
}

GuardedSessionPredictor::Stats GuardedSessionPredictor::stats() const {
  Stats out;
  out.state = monitor_.state();
  out.surprise_score = monitor_.score();
  out.trips = monitor_.trips();
  out.recoveries = monitor_.recoveries();
  out.degenerate_updates = filter_.degenerate_updates();
  out.rejected_samples = sanitizer_.total_rejected();
  out.clamped_samples = sanitizer_.clamped_spikes();
  out.fallback_predictions = fallback_predictions_;
  return out;
}

}  // namespace cs2p
