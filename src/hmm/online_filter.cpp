#include "hmm/online_filter.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cs2p {

namespace {

std::size_t argmax_buffer(const double* v, std::size_t n) noexcept {
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i)
    if (v[i] > v[best]) best = i;
  return best;
}

}  // namespace

OnlineHmmFilter::OnlineHmmFilter(GaussianHmm model, PredictionRule rule)
    : OnlineHmmFilter(HmmKernel::create(std::move(model)), rule) {}

OnlineHmmFilter::OnlineHmmFilter(std::shared_ptr<const HmmKernel> kernel,
                                 PredictionRule rule)
    : kernel_(std::move(kernel)), rule_(rule) {
  belief_ = kernel_->model().initial;
}

double OnlineHmmFilter::predict(unsigned steps_ahead) const {
  if (steps_ahead == 0)
    throw std::invalid_argument("OnlineHmmFilter::predict: steps_ahead must be >= 1");
  const std::size_t n = kernel_->num_states();
  // pi_{t+tau|t} = pi_{t|t} P^tau, served from the kernel's cached powers.
  // Stack scratch: the filter never allocates on the predict path.
  double projected[kMaxHmmStates];
  kernel_->propagate_steps(belief_.data(), steps_ahead, projected);
  normalize_belief(projected, n);
  const double* mu = kernel_->mu();
  if (rule_ == PredictionRule::kMleState) {
    return mu[argmax_buffer(projected, n)];
  }
  double expectation = 0.0;
  for (std::size_t i = 0; i < n; ++i) expectation += projected[i] * mu[i];
  return expectation;
}

OnlineHmmFilter::Forecast OnlineHmmFilter::predict_distribution(
    unsigned steps_ahead) const {
  if (steps_ahead == 0)
    throw std::invalid_argument(
        "OnlineHmmFilter::predict_distribution: steps_ahead must be >= 1");
  const std::size_t n = kernel_->num_states();
  double projected[kMaxHmmStates];
  kernel_->propagate_steps(belief_.data(), steps_ahead, projected);
  normalize_belief(projected, n);

  // Mixture moments: E[W] = sum p_x mu_x;
  // Var[W] = sum p_x (sigma_x^2 + mu_x^2) - E[W]^2.
  // Uses the model's raw sigmas (the emission floor is a density-evaluation
  // concern, not a moment of the mixture).
  const auto& states = kernel_->model().states;
  Forecast out;
  double second_moment = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& state = states[i];
    out.mean += projected[i] * state.mean;
    second_moment +=
        projected[i] * (state.sigma * state.sigma + state.mean * state.mean);
  }
  const double variance = std::max(0.0, second_moment - out.mean * out.mean);
  out.std_dev = std::sqrt(variance);
  return out;
}

void OnlineHmmFilter::observe(double throughput) {
  const std::size_t n = kernel_->num_states();
  double corrected[kMaxHmmStates];
  if (observations_ == 0) {
    // First epoch: condition the prior directly, no propagation.
    std::copy(belief_.begin(), belief_.end(), corrected);
  } else {
    kernel_->propagate(belief_.data(), kernel_->power(1), corrected);
  }
  double emission[kMaxHmmStates];
  kernel_->emissions(throughput, emission);
  for (std::size_t i = 0; i < n; ++i) corrected[i] *= emission[i];
  // The un-normalized mass sum_x pi_{t|t-1}(x) e_x(w_t) IS the one-step
  // predictive likelihood p(w_t | w_1..t-1): record it before normalizing
  // so guardrails can score how surprising this observation was.
  double likelihood = 0.0;
  for (std::size_t i = 0; i < n; ++i) likelihood += corrected[i];
  if (likelihood > 0.0 && std::isfinite(likelihood)) {
    last_log_likelihood_ = std::log(likelihood);
    for (std::size_t i = 0; i < n; ++i) belief_[i] = corrected[i] / likelihood;
  } else {
    // Every emission probability underflowed (observation many sigmas from
    // all states). The belief resets to uniform — the historical behavior —
    // but the event is no longer silent.
    last_log_likelihood_ = -std::numeric_limits<double>::infinity();
    ++degenerate_updates_;
    const double uniform = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) belief_[i] = uniform;
  }
  ++observations_;
}

void OnlineHmmFilter::reset() {
  belief_ = kernel_->model().initial;
  observations_ = 0;
  last_log_likelihood_ = std::numeric_limits<double>::quiet_NaN();
  degenerate_updates_ = 0;
}

std::size_t OnlineHmmFilter::mle_state() const { return argmax(belief_); }

}  // namespace cs2p
