// Online throughput prediction with a trained HMM (paper Algorithm 1).
//
// Per epoch t the player:
//   1. propagates the state belief,      pi_{t|t-1} = pi_{t-1|t-1} P
//   2. predicts via the MLE state,       W_hat_t = mu_{argmax pi_{t|t-1}}
//   3. selects a bitrate with W_hat_t,
//   4. measures the actual throughput w_t,
//   5. updates the belief (forward step) pi_{t|t} ∝ pi_{t|t-1} ∘ e(w_t).
//
// The filter runs on an immutable HmmKernel (hmm/kernel.h): the SoA block
// holding mu/sigma/P^tau constants. A session may own its kernel (the
// standalone-client mode §5.3 describes) or share one with every other
// session pinned to the same model — the serving tier's arrangement.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>

#include "hmm/kernel.h"
#include "hmm/model.h"

namespace cs2p {

/// How the point prediction is extracted from the state belief.
/// The paper uses the MLE state's mean (Eq. 8); the posterior-mean variant is
/// kept for the ablation bench.
enum class PredictionRule {
  kMleState,      ///< mu of argmax-probability state (paper's choice)
  kPosteriorMean  ///< sum_x pi(x) * mu_x
};

/// Stateful per-session HMM filter.
class OnlineHmmFilter {
 public:
  /// Takes ownership of a validated model (builds a private kernel).
  /// Belief starts at model.initial.
  explicit OnlineHmmFilter(GaussianHmm model,
                           PredictionRule rule = PredictionRule::kMleState);

  /// Shares a prebuilt kernel — the serving tier's constructor: one kernel
  /// block serves every session pinned to the same model.
  explicit OnlineHmmFilter(std::shared_ptr<const HmmKernel> kernel,
                           PredictionRule rule = PredictionRule::kMleState);

  /// Predicts throughput `steps_ahead` epochs into the future from the
  /// current belief (steps_ahead = 1 is "next epoch"). Requires >= 1.
  /// Served from the kernel's cached P^tau powers; allocation-free.
  double predict(unsigned steps_ahead = 1) const;

  /// Moments of the full predictive distribution of W_{t+steps_ahead}:
  /// the Gaussian mixture sum_x pi(x) N(mu_x, sigma_x^2) under the
  /// propagated belief. Powers risk-aware consumers (e.g. predicting total
  /// rebuffer time at session start, §7.5) that a point forecast cannot.
  struct Forecast {
    double mean = 0.0;
    double std_dev = 0.0;
  };
  Forecast predict_distribution(unsigned steps_ahead = 1) const;

  /// Conditions the belief on an observed throughput and advances one epoch:
  /// performs the propagate-then-correct forward step.
  void observe(double throughput);

  /// Resets the belief to the model's initial distribution.
  void reset();

  /// Current belief pi_{t|t} (after the last observe()).
  const Vec& belief() const noexcept { return belief_; }

  /// One-step predictive log-likelihood log p(w_t | w_1..w_{t-1}) of the
  /// most recent observation — the surprise signal guardrails monitor.
  /// NaN before the first observe(); -infinity when the update was
  /// degenerate (every emission probability underflowed to zero).
  double last_log_likelihood() const noexcept { return last_log_likelihood_; }

  /// Updates whose likelihood vector underflowed to all-zero. Each such
  /// update resets the belief to uniform (the pre-existing behavior, now
  /// counted instead of silent).
  std::size_t degenerate_updates() const noexcept { return degenerate_updates_; }

  /// Most likely current state index under the belief.
  std::size_t mle_state() const;

  const GaussianHmm& model() const noexcept { return kernel_->model(); }

  /// Number of observations consumed since construction/reset.
  std::size_t observations() const noexcept { return observations_; }

 private:
  std::shared_ptr<const HmmKernel> kernel_;
  PredictionRule rule_;
  Vec belief_;
  std::size_t observations_ = 0;
  double last_log_likelihood_ = std::numeric_limits<double>::quiet_NaN();
  std::size_t degenerate_updates_ = 0;
};

}  // namespace cs2p
