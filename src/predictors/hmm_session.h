// Reusable per-session predictor wrapping an OnlineHmmFilter plus a fixed
// cold-start value. Shared by the GHM baseline and the CS2P engine: both
// predict midstream with Algorithm 1 and differ only in which HMM and which
// initial value they supply. The guardrail wraps one of these
// (guarded_session.h).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "hmm/online_filter.h"
#include "predictors/predictor.h"

namespace cs2p {

class HmmSessionPredictor final : public SessionPredictor {
 public:
  /// Shares one SoA kernel across every session pinned to the same model
  /// (hmm/kernel.h). `initial_value` is the cluster/global median used
  /// before any observation arrives (Eq. 6). `flags` is the serving path
  /// fixed when the session was resolved (kGlobalModel, kClusterDrifted).
  HmmSessionPredictor(std::shared_ptr<const HmmKernel> kernel,
                      double initial_value,
                      PredictionRule rule = PredictionRule::kMleState,
                      std::uint8_t flags = serve_flags::kPrimary)
      : filter_(std::move(kernel), rule), initial_value_(initial_value),
        flags_(flags) {}

  std::optional<double> predict_initial() const override { return initial_value_; }

  double predict(unsigned steps_ahead) const override {
    if (filter_.observations() == 0) return initial_value_;
    return filter_.predict(std::max(1U, steps_ahead));
  }

  void observe(double throughput_mbps) override { filter_.observe(throughput_mbps); }

  std::uint8_t serve_flags() const override { return flags_; }

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
  std::uint8_t flags_ = serve_flags::kPrimary;
};

}  // namespace cs2p
