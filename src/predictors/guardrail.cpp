#include "predictors/guardrail.h"

#include <algorithm>
#include <cmath>

#include "hmm/online_filter.h"
#include "util/rng.h"
#include "util/stats.h"

namespace cs2p {
namespace {

/// Monte Carlo seed: the baseline is a deterministic function of the model.
constexpr std::uint64_t kBaselineSeed = 0x20160816;

/// Degenerate filter updates (all-zero emission vector) carry -infinity
/// log-likelihood; they enter the window as baseline mean minus this many
/// baseline sigmas so the score stays finite but maximally alarmed.
constexpr double kDegeneratePenaltySigmas = 12.0;

}  // namespace

SurpriseBaseline compute_surprise_baseline(
    const std::shared_ptr<const HmmKernel>& kernel) {
  const GaussianHmm& model = kernel->model();
  Rng rng(kBaselineSeed);
  std::vector<double> log_likelihoods;
  log_likelihoods.reserve(kBaselineSequences * kBaselineLength);

  for (std::size_t s = 0; s < kBaselineSequences; ++s) {
    OnlineHmmFilter filter(kernel);
    std::size_t state = rng.categorical(model.initial);
    for (std::size_t t = 0; t < kBaselineLength; ++t) {
      if (t > 0) {
        Vec row(model.transition.row(state).begin(),
                model.transition.row(state).end());
        state = rng.categorical(row);
      }
      const double w =
          rng.gaussian(model.states[state].mean, model.states[state].sigma);
      filter.observe(w);
      const double ll = filter.last_log_likelihood();
      // Model-sampled data can still (very rarely) underflow; the baseline
      // describes the well-behaved bulk, so skip those.
      if (std::isfinite(ll)) log_likelihoods.push_back(ll);
    }
  }

  SurpriseBaseline baseline;
  if (log_likelihoods.empty()) return baseline;  // defensive: keep defaults
  baseline.mean_log_likelihood = mean(log_likelihoods);
  // Floor the spread: a near-deterministic model would otherwise make any
  // finite observation look infinitely surprising.
  baseline.std_log_likelihood = std::max(0.05, stddev(log_likelihoods));
  return baseline;
}

GuardrailMetrics GuardrailMetrics::from_registry(obs::MetricsRegistry& registry) {
  GuardrailMetrics out;
  out.rejected_non_finite = &registry.counter(
      "cs2p_guardrail_rejected_samples_total", {{"reason", "non_finite"}});
  out.rejected_negative = &registry.counter(
      "cs2p_guardrail_rejected_samples_total", {{"reason", "negative"}});
  out.rejected_zero = &registry.counter("cs2p_guardrail_rejected_samples_total",
                                        {{"reason", "zero"}});
  out.clamped_spikes =
      &registry.counter("cs2p_guardrail_clamped_spikes_total");
  out.fallback_predictions =
      &registry.counter("cs2p_guardrail_fallback_predictions_total");
  return out;
}

ObservationSanitizer::Result ObservationSanitizer::sanitize(double throughput_mbps) {
  Result out;
  if (!std::isfinite(throughput_mbps)) {
    ++rejected_non_finite_;
    if (metrics_ != nullptr && metrics_->rejected_non_finite != nullptr)
      metrics_->rejected_non_finite->inc();
    out.verdict = SampleVerdict::kRejectedNonFinite;
    return out;
  }
  if (throughput_mbps < 0.0) {
    ++rejected_negative_;
    if (metrics_ != nullptr && metrics_->rejected_negative != nullptr)
      metrics_->rejected_negative->inc();
    out.verdict = SampleVerdict::kRejectedNegative;
    return out;
  }
  if (throughput_mbps == 0.0) {
    ++rejected_zero_;
    if (metrics_ != nullptr && metrics_->rejected_zero != nullptr)
      metrics_->rejected_zero->inc();
    out.verdict = SampleVerdict::kRejectedZero;
    return out;
  }
  if (spike_ceiling_mbps_ > 0.0 && throughput_mbps > spike_ceiling_mbps_) {
    ++clamped_spikes_;
    if (metrics_ != nullptr && metrics_->clamped_spikes != nullptr)
      metrics_->clamped_spikes->inc();
    out.verdict = SampleVerdict::kClamped;
    out.value = spike_ceiling_mbps_;
    return out;
  }
  out.value = throughput_mbps;
  return out;
}

std::string_view guardrail_state_name(GuardrailState state) noexcept {
  switch (state) {
    case GuardrailState::kHealthy: return "HEALTHY";
    case GuardrailState::kSuspect: return "SUSPECT";
    case GuardrailState::kDegraded: return "DEGRADED";
  }
  return "HEALTHY";
}

GuardrailState SurpriseMonitor::record(double log_likelihood) {
  double penalised = log_likelihood;
  if (!std::isfinite(penalised)) {
    ++degenerate_;
    penalised = baseline_.mean_log_likelihood -
                kDegeneratePenaltySigmas * baseline_.std_log_likelihood;
  }
  // Add the new value, then subtract the evicted one: the sum's rounding
  // stays that of a queue pushed at the back and popped at the front.
  window_sum_ += penalised;
  if (window_count_ == kSurpriseWindow)
    window_sum_ -= window_[window_head_];
  else
    ++window_count_;
  window_[window_head_] = penalised;
  window_head_ = (window_head_ + 1) % kSurpriseWindow;

  if (window_count_ < kMinObservations) {
    score_ = 0.0;
    return state_;
  }

  // z-score of the window mean under the baseline: low log-likelihood means
  // high surprise, so the score is positive when the model looks wrong.
  const double n = static_cast<double>(window_count_);
  const double window_mean = window_sum_ / n;
  const double std_of_mean = baseline_.std_log_likelihood / std::sqrt(n);
  score_ = (baseline_.mean_log_likelihood - window_mean) / std_of_mean;

  if (score_ >= kEnterZ) {
    ++alarm_streak_;
    calm_streak_ = 0;
  } else if (score_ <= kExitZ) {
    ++calm_streak_;
    alarm_streak_ = 0;
  } else {
    // Inside the hysteresis band: streaks hold, no transition pressure.
    alarm_streak_ = 0;
    calm_streak_ = 0;
  }

  switch (state_) {
    case GuardrailState::kHealthy:
      if (alarm_streak_ > 0) state_ = GuardrailState::kSuspect;
      [[fallthrough]];
    case GuardrailState::kSuspect:
      if (alarm_streak_ >= kConfirmObservations) {
        state_ = GuardrailState::kDegraded;
        ++trips_;
        calm_streak_ = 0;
      } else if (state_ == GuardrailState::kSuspect && alarm_streak_ == 0) {
        state_ = GuardrailState::kHealthy;
      }
      break;
    case GuardrailState::kDegraded:
      if (calm_streak_ >= kRecoveryObservations) {
        state_ = GuardrailState::kHealthy;
        ++recoveries_;
        alarm_streak_ = 0;
      }
      break;
  }
  return state_;
}

}  // namespace cs2p
