// Reusable per-session predictor wrapping an OnlineHmmFilter plus a fixed
// cold-start value. Shared by the GHM baseline and the CS2P engine: both
// predict midstream with Algorithm 1 and differ only in which HMM and which
// initial value they supply.
#pragma once

#include <algorithm>
#include <cmath>

#include "hmm/online_filter.h"
#include "predictors/predictor.h"

namespace cs2p {

class HmmSessionPredictor final : public SessionPredictor {
 public:
  /// `initial_value` is the cluster/global median used before any
  /// observation arrives (Eq. 6).
  HmmSessionPredictor(const GaussianHmm& model, double initial_value,
                      PredictionRule rule = PredictionRule::kMleState)
      : filter_(model, rule), initial_value_(initial_value) {}

  /// Serving-tier constructor: shares one SoA kernel across every session
  /// pinned to the same model (hmm/kernel.h).
  HmmSessionPredictor(std::shared_ptr<const HmmKernel> kernel,
                      double initial_value,
                      PredictionRule rule = PredictionRule::kMleState)
      : filter_(std::move(kernel), rule), initial_value_(initial_value) {}

  std::optional<double> predict_initial() const override { return initial_value_; }

  double predict(unsigned steps_ahead) const override {
    if (filter_.observations() == 0) return initial_value_;
    return filter_.predict(std::max(1U, steps_ahead));
  }

  void observe(double throughput_mbps) override { filter_.observe(throughput_mbps); }

  std::optional<double> last_log_likelihood() const override {
    if (filter_.observations() == 0) return std::nullopt;
    const double ll = filter_.last_log_likelihood();
    if (std::isnan(ll)) return std::nullopt;
    return ll;
  }

  /// Exposed for diagnostics (pilot bench reports predicted rebuffering from
  /// the belief state).
  const OnlineHmmFilter& filter() const noexcept { return filter_; }

 private:
  OnlineHmmFilter filter_;
  double initial_value_;
};

}  // namespace cs2p
