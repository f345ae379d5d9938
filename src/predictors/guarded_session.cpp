#include "predictors/guarded_session.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "util/stats.h"

namespace cs2p {
namespace {

/// Samples above this multiple of the model's largest state mean are
/// clamped to that bound: a physically-implausible spike (measurement
/// glitch, unit bug upstream) must not yank the belief, but the epoch still
/// happened.
constexpr double kMaxSpikeMultiple = 10.0;

double spike_ceiling(const GaussianHmm& model) {
  double max_mean = 0.0;
  for (const auto& state : model.states) max_mean = std::max(max_mean, state.mean);
  return kMaxSpikeMultiple * max_mean;
}

}  // namespace

GuardedSessionPredictor::GuardedSessionPredictor(
    std::shared_ptr<const HmmKernel> kernel, double initial_value,
    double global_fallback_mbps, const SurpriseBaseline& baseline,
    PredictionRule rule, std::uint8_t static_flags, EventCallback on_event,
    const GuardrailMetrics* metrics)
    : hmm_(std::move(kernel), initial_value, rule, static_flags),
      global_fallback_mbps_(global_fallback_mbps),
      sanitizer_(spike_ceiling(hmm_.filter().model()), metrics),
      monitor_(baseline),
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
  const double hm =
      harmonic_mean(std::span<const double>(recent_samples_.data(), recent_count_));
  if (hm > 0.0) return hm;
  // End of the chain: the global model's initial value, with the cluster
  // median before it when the global value is unusable.
  if (global_fallback_mbps_ > 0.0 && std::isfinite(global_fallback_mbps_))
    return global_fallback_mbps_;
  return *hmm_.predict_initial();
}

double GuardedSessionPredictor::predict(unsigned steps_ahead) const {
  if (degraded()) {
    ++fallback_predictions_;
    if (metrics_ != nullptr && metrics_->fallback_predictions != nullptr)
      metrics_->fallback_predictions->inc();
    return fallback_forecast();
  }
  return hmm_.predict(steps_ahead);
}

void GuardedSessionPredictor::observe(double throughput_mbps) {
  const ObservationSanitizer::Result sample = sanitizer_.sanitize(throughput_mbps);
  if (!sample.accepted()) return;  // poisoned sample: belief unchanged

  // Shift out the oldest when full: the window stays oldest first, the
  // order the harmonic mean sums in.
  if (recent_count_ == kFallbackWindow)
    std::shift_left(recent_samples_.begin(), recent_samples_.end(), 1);
  else
    ++recent_count_;
  recent_samples_[recent_count_ - 1] = sample.value;

  const bool was_degraded = degraded();
  hmm_.observe(sample.value);
  monitor_.record(hmm_.filter().last_log_likelihood());
  const bool now_degraded = degraded();
  if (on_event_ && was_degraded != now_degraded) {
    on_event_(now_degraded ? GuardrailEvent::kTripped : GuardrailEvent::kRecovered,
              now_degraded);
  }
}

std::uint8_t GuardedSessionPredictor::serve_flags() const {
  std::uint8_t flags = hmm_.serve_flags();
  if (degraded())
    flags |= serve_flags::kDegraded | serve_flags::kGuardrailTripped;
  return flags;
}

std::optional<double> GuardedSessionPredictor::last_log_likelihood() const {
  return hmm_.last_log_likelihood();
}

GuardedSessionPredictor::Stats GuardedSessionPredictor::stats() const {
  Stats out;
  out.state = monitor_.state();
  out.surprise_score = monitor_.score();
  out.trips = monitor_.trips();
  out.recoveries = monitor_.recoveries();
  out.degenerate_updates = hmm_.filter().degenerate_updates();
  out.rejected_samples = sanitizer_.total_rejected();
  out.clamped_samples = sanitizer_.clamped_spikes();
  out.fallback_predictions = fallback_predictions_;
  return out;
}

}  // namespace cs2p
