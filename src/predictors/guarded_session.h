// GuardedSessionPredictor: the HMM session predictor wrapped in the
// prediction guardrails of guardrail.h.
//
// Serving policy per epoch:
//   - every observation passes the ObservationSanitizer; rejected samples
//     never reach the forward filter (but still extend the session's raw
//     history so counters and diagnostics see them),
//   - each accepted observation's one-step predictive log-likelihood feeds
//     the SurpriseMonitor,
//   - while the monitor is HEALTHY/SUSPECT, predictions come from the
//     wrapped HmmSessionPredictor,
//   - while DEGRADED, predictions come from the stateless fallback chain:
//     harmonic mean of the most recent accepted samples, then the global
//     model's initial value when no usable history exists. The filter keeps
//     being updated throughout so the session can recover with hysteresis.
//
// Guardrail transitions are reported through an optional event callback —
// this is how the CS2P engine aggregates per-session trips into
// cluster-level drift (core/engine.h).
#pragma once

#include <array>
#include <functional>

#include "predictors/guardrail.h"
#include "predictors/hmm_session.h"
#include "predictors/predictor.h"

namespace cs2p {

/// Guardrail lifecycle notifications, delivered synchronously from
/// observe() / the destructor.
enum class GuardrailEvent : std::uint8_t {
  kOpened = 0,   ///< emitted on construction
  kTripped,      ///< entered DEGRADED
  kRecovered,    ///< left DEGRADED
  kClosed,       ///< emitted on destruction (degraded flag = final state)
};

class GuardedSessionPredictor final : public SessionPredictor {
 public:
  /// Counters mirrored out for server stats and bench reporting.
  struct Stats {
    GuardrailState state = GuardrailState::kHealthy;
    double surprise_score = 0.0;
    std::size_t trips = 0;
    std::size_t recoveries = 0;
    std::size_t degenerate_updates = 0;
    std::size_t rejected_samples = 0;
    std::size_t clamped_samples = 0;
    std::size_t fallback_predictions = 0;
  };

  /// `tripped` is true for kTripped and for kClosed-while-degraded.
  using EventCallback = std::function<void(GuardrailEvent, bool tripped)>;

  /// `kernel` is the serving model's SoA kernel, shared with every other
  /// session pinned to the same model (hmm/kernel.h). `initial_value` is the
  /// cluster/global median (Eq. 6); `global_fallback_mbps` terminates the
  /// fallback chain when the session has no usable history of its own.
  /// `static_flags` carries the serving context fixed at session creation
  /// (kGlobalModel, kClusterDrifted). `metrics` (optional, must outlive the
  /// session) mirrors sanitizer verdicts and fallback serves into the shared
  /// registry.
  GuardedSessionPredictor(std::shared_ptr<const HmmKernel> kernel,
                          double initial_value, double global_fallback_mbps,
                          const SurpriseBaseline& baseline,
                          PredictionRule rule = PredictionRule::kMleState,
                          std::uint8_t static_flags = serve_flags::kPrimary,
                          EventCallback on_event = nullptr,
                          const GuardrailMetrics* metrics = nullptr);
  ~GuardedSessionPredictor() override;

  GuardedSessionPredictor(const GuardedSessionPredictor&) = delete;
  GuardedSessionPredictor& operator=(const GuardedSessionPredictor&) = delete;

  std::optional<double> predict_initial() const override {
    return hmm_.predict_initial();
  }
  double predict(unsigned steps_ahead) const override;
  void observe(double throughput_mbps) override;

  std::uint8_t serve_flags() const override;
  std::optional<double> last_log_likelihood() const override;

  /// True while the guardrail serves the fallback chain (DEGRADED).
  bool degraded() const noexcept {
    return monitor_.state() == GuardrailState::kDegraded;
  }

  Stats stats() const;

  /// Exposed for diagnostics (same contract as HmmSessionPredictor).
  const OnlineHmmFilter& filter() const noexcept { return hmm_.filter(); }
  const ObservationSanitizer& sanitizer() const noexcept { return sanitizer_; }
  const SurpriseMonitor& monitor() const noexcept { return monitor_; }

 private:
  double fallback_forecast() const;

  /// Cold start, filter, prediction, log-likelihood and the fixed flags.
  HmmSessionPredictor hmm_;
  double global_fallback_mbps_;
  ObservationSanitizer sanitizer_;
  SurpriseMonitor monitor_;
  EventCallback on_event_;
  const GuardrailMetrics* metrics_;
  /// The last kFallbackWindow accepted samples, oldest first.
  std::array<double, kFallbackWindow> recent_samples_{};
  std::size_t recent_count_ = 0;
  mutable std::size_t fallback_predictions_ = 0;
};

}  // namespace cs2p
