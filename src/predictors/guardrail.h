// Prediction guardrails: online model-mismatch detection for per-session
// HMM predictors.
//
// CS2P's cluster models are only as good as the similarity assumption
// behind them (§5.1 concedes ~4% of sessions match no cluster at all, and a
// session whose network shifts out of distribution midstream keeps getting
// confident-but-wrong state-mean predictions). The guardrail layer watches
// the one-step predictive log-likelihood the forward filter assigns to each
// accepted observation, compares a sliding window of it against a baseline
// distribution computed offline from the model itself, and drives a small
// hysteresis state machine:
//
//   HEALTHY --(surprise > kEnterZ for kConfirmObservations)--> DEGRADED
//       ^                                                          |
//       +--(surprise < kExitZ for kRecoveryObservations)-----------+
//
// (the confirmation streak is the SUSPECT phase; see DESIGN.md §10).
// While DEGRADED, the session is served by a stateless fallback chain —
// harmonic mean of recent samples, then the global model's initial value —
// instead of the mismatched HMM. In front of everything sits an observation
// sanitizer that rejects NaN/Inf/negative/zero samples and clamps
// physically-implausible spikes before they reach the filter.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

#include "hmm/kernel.h"
#include "obs/metrics.h"

namespace cs2p {

/// Registry handles for the guardrail layer's service-level aggregates
/// (DESIGN.md §11). One instance per engine, shared by every session it
/// opens: the per-session counters on ObservationSanitizer/SurpriseMonitor
/// answer "what happened to this session", these answer "what is the
/// guardrail doing fleet-wide" and are what the STATS scrape exposes.
/// Null pointers = not wired (standalone sanitizers in tests).
struct GuardrailMetrics {
  obs::Counter* rejected_non_finite = nullptr;
  obs::Counter* rejected_negative = nullptr;
  obs::Counter* rejected_zero = nullptr;
  obs::Counter* clamped_spikes = nullptr;
  obs::Counter* fallback_predictions = nullptr;

  /// Registers the cs2p_guardrail_* series and returns their handles.
  static GuardrailMetrics from_registry(obs::MetricsRegistry& registry);
};

// Guardrail thresholds (DESIGN.md §10), tuned on the synthetic world
// (bench_drift_qoe): conservative enough that in-distribution sessions
// rarely trip, fast enough that a mid-trace regime shift is caught within a
// couple of windows. `Cs2pConfig::guardrail` switches the layer on.

// -- Surprise monitor --------------------------------------------------------
inline constexpr std::size_t kSurpriseWindow = 8;  ///< sliding log-likelihood window
inline constexpr std::size_t kMinObservations = 4;  ///< no verdicts before this many accepted
/// Surprise score is a z-score of the window-mean log-likelihood against the
/// offline baseline; enter/exit thresholds form the hysteresis band.
inline constexpr double kEnterZ = 6.0;
inline constexpr double kExitZ = 2.0;
inline constexpr std::size_t kConfirmObservations = 3;   ///< streak: HEALTHY/SUSPECT -> DEGRADED
inline constexpr std::size_t kRecoveryObservations = 8;  ///< streak: DEGRADED -> HEALTHY

// -- Fallback chain ----------------------------------------------------------
/// Harmonic mean over this many most-recent accepted samples.
inline constexpr std::size_t kFallbackWindow = 8;

// -- Offline baseline --------------------------------------------------------
/// The baseline is estimated by sampling sequences from the model itself
/// and replaying them through the filter (deterministic: a fixed seed).
inline constexpr std::size_t kBaselineSequences = 32;
inline constexpr std::size_t kBaselineLength = 48;

// A hysteresis band with exit above enter would oscillate by construction.
static_assert(kExitZ <= kEnterZ);
static_assert(kMinObservations >= 1 && kMinObservations <= kSurpriseWindow);
static_assert(kConfirmObservations >= 1 && kRecoveryObservations >= 1);

/// Per-cluster baseline distribution of the one-step predictive
/// log-likelihood when the model is right, computed offline during training
/// (what "unsurprising" looks like for this cluster's HMM).
struct SurpriseBaseline {
  double mean_log_likelihood = 0.0;
  double std_log_likelihood = 1.0;  ///< floored at a small positive value
};

/// Estimates the baseline by Monte Carlo from the kernel's model itself:
/// sample sequences with a fixed seed, replay them through OnlineHmmFilters
/// on `kernel`, and summarise the per-step predictive log-likelihoods.
/// Deterministic; costs kBaselineSequences x kBaselineLength filter steps
/// (microseconds for the paper's 6-state models).
SurpriseBaseline compute_surprise_baseline(
    const std::shared_ptr<const HmmKernel>& kernel);

/// Why the sanitizer rejected (or altered) a sample.
enum class SampleVerdict : std::uint8_t {
  kAccepted = 0,
  kClamped,           ///< accepted after clamping an implausible spike
  kRejectedNonFinite, ///< NaN or +/-Inf
  kRejectedNegative,
  kRejectedZero,      ///< a fully stalled epoch carries no rate information
};

/// Stateless validation + clamping in front of OnlineHmmFilter::observe,
/// with rejection counters. `spike_ceiling_mbps` is precomputed by the
/// owner as a fixed multiple (10x) of the model's largest state mean.
class ObservationSanitizer {
 public:
  /// `metrics` (optional) receives the same verdicts as the local counters,
  /// into the shared registry — the per-reason counters here stay the
  /// per-session view, the registry is the fleet-wide source of truth.
  explicit ObservationSanitizer(double spike_ceiling_mbps,
                                const GuardrailMetrics* metrics = nullptr)
      : spike_ceiling_mbps_(spike_ceiling_mbps), metrics_(metrics) {}

  struct Result {
    SampleVerdict verdict = SampleVerdict::kAccepted;
    double value = 0.0;  ///< the (possibly clamped) sample; valid iff accepted
    bool accepted() const noexcept {
      return verdict == SampleVerdict::kAccepted ||
             verdict == SampleVerdict::kClamped;
    }
  };

  Result sanitize(double throughput_mbps);

  std::size_t rejected_non_finite() const noexcept { return rejected_non_finite_; }
  std::size_t rejected_negative() const noexcept { return rejected_negative_; }
  std::size_t rejected_zero() const noexcept { return rejected_zero_; }
  std::size_t clamped_spikes() const noexcept { return clamped_spikes_; }
  std::size_t total_rejected() const noexcept {
    return rejected_non_finite_ + rejected_negative_ + rejected_zero_;
  }

 private:
  double spike_ceiling_mbps_;
  const GuardrailMetrics* metrics_;
  std::size_t rejected_non_finite_ = 0;
  std::size_t rejected_negative_ = 0;
  std::size_t rejected_zero_ = 0;
  std::size_t clamped_spikes_ = 0;
};

/// Guardrail verdict for one session at one instant.
enum class GuardrailState : std::uint8_t {
  kHealthy = 0,
  kSuspect,   ///< surprise above kEnterZ, awaiting confirmation streak
  kDegraded,  ///< serving the fallback chain
};

std::string_view guardrail_state_name(GuardrailState state) noexcept;

/// Sliding-window surprise scorer + the HEALTHY/SUSPECT/DEGRADED machine.
/// Fed one predictive log-likelihood per accepted observation; drives the
/// GuardedSessionPredictor's serving decision.
class SurpriseMonitor {
 public:
  explicit SurpriseMonitor(SurpriseBaseline baseline) : baseline_(baseline) {}

  /// Scores the latest accepted observation's predictive log-likelihood
  /// (-infinity for a degenerate update) and advances the state machine.
  /// Returns the state after the update.
  GuardrailState record(double log_likelihood);

  GuardrailState state() const noexcept { return state_; }

  /// Current surprise z-score (0 until kMinObservations accepted).
  double score() const noexcept { return score_; }

  const SurpriseBaseline& baseline() const noexcept { return baseline_; }

  /// HEALTHY/SUSPECT -> DEGRADED transitions (one per "flap").
  std::size_t trips() const noexcept { return trips_; }
  /// DEGRADED -> HEALTHY transitions.
  std::size_t recoveries() const noexcept { return recoveries_; }
  /// Degenerate (-infinity) log-likelihoods seen.
  std::size_t degenerate_observations() const noexcept { return degenerate_; }

 private:
  SurpriseBaseline baseline_;
  /// Ring of the recent (penalised) log-likelihoods.
  std::array<double, kSurpriseWindow> window_{};
  std::size_t window_head_ = 0;   ///< slot the next value overwrites
  std::size_t window_count_ = 0;  ///< values held, at most kSurpriseWindow
  double window_sum_ = 0.0;
  double score_ = 0.0;
  GuardrailState state_ = GuardrailState::kHealthy;
  std::size_t alarm_streak_ = 0;  ///< consecutive scores above kEnterZ
  std::size_t calm_streak_ = 0;   ///< consecutive scores below kExitZ
  std::size_t trips_ = 0;
  std::size_t recoveries_ = 0;
  std::size_t degenerate_ = 0;
};

}  // namespace cs2p
