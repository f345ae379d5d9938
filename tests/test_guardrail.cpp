// Tests for the prediction guardrail layer: observation sanitizer, surprise
// monitor state machine (hysteresis + flap bound), offline baseline, and the
// GuardedSessionPredictor fallback chain.

#include "predictors/guardrail.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "hmm_test_util.h"
#include "predictors/guarded_session.h"
#include "predictors/hmm_session.h"
#include "util/stats.h"

namespace cs2p {
namespace {

using testing_support::sample_sequence;
using testing_support::two_state_model;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// -- ObservationSanitizer ----------------------------------------------------

TEST(Sanitizer, AcceptsPlausibleSamples) {
  ObservationSanitizer sanitizer(50.0);
  const auto r = sanitizer.sanitize(3.2);
  EXPECT_TRUE(r.accepted());
  EXPECT_EQ(r.verdict, SampleVerdict::kAccepted);
  EXPECT_DOUBLE_EQ(r.value, 3.2);
  EXPECT_EQ(sanitizer.total_rejected(), 0u);
}

TEST(Sanitizer, RejectsNonFiniteNegativeAndZero) {
  ObservationSanitizer sanitizer(50.0);
  EXPECT_EQ(sanitizer.sanitize(kNaN).verdict, SampleVerdict::kRejectedNonFinite);
  EXPECT_EQ(sanitizer.sanitize(kInf).verdict, SampleVerdict::kRejectedNonFinite);
  EXPECT_EQ(sanitizer.sanitize(-kInf).verdict, SampleVerdict::kRejectedNonFinite);
  EXPECT_EQ(sanitizer.sanitize(-1.0).verdict, SampleVerdict::kRejectedNegative);
  EXPECT_EQ(sanitizer.sanitize(0.0).verdict, SampleVerdict::kRejectedZero);
  EXPECT_FALSE(sanitizer.sanitize(kNaN).accepted());
  EXPECT_EQ(sanitizer.rejected_non_finite(), 4u);
  EXPECT_EQ(sanitizer.rejected_negative(), 1u);
  EXPECT_EQ(sanitizer.rejected_zero(), 1u);
  EXPECT_EQ(sanitizer.total_rejected(), 6u);
  EXPECT_EQ(sanitizer.clamped_spikes(), 0u);
}

TEST(Sanitizer, ClampsImplausibleSpikes) {
  ObservationSanitizer sanitizer(50.0);
  const auto r = sanitizer.sanitize(400.0);
  EXPECT_TRUE(r.accepted());
  EXPECT_EQ(r.verdict, SampleVerdict::kClamped);
  EXPECT_DOUBLE_EQ(r.value, 50.0);
  EXPECT_EQ(sanitizer.clamped_spikes(), 1u);
  // Clamped samples are accepted, not rejected.
  EXPECT_EQ(sanitizer.total_rejected(), 0u);
}

TEST(Sanitizer, ZeroCeilingDisablesClamping) {
  ObservationSanitizer sanitizer(0.0);
  const auto r = sanitizer.sanitize(1e9);
  EXPECT_EQ(r.verdict, SampleVerdict::kAccepted);
  EXPECT_DOUBLE_EQ(r.value, 1e9);
}

// -- compute_surprise_baseline -----------------------------------------------

TEST(SurpriseBaselineTest, DeterministicAndSane) {
  const auto kernel = HmmKernel::create(two_state_model());
  const SurpriseBaseline a = compute_surprise_baseline(kernel);
  const SurpriseBaseline b = compute_surprise_baseline(kernel);
  EXPECT_DOUBLE_EQ(a.mean_log_likelihood, b.mean_log_likelihood);
  EXPECT_DOUBLE_EQ(a.std_log_likelihood, b.std_log_likelihood);
  EXPECT_TRUE(std::isfinite(a.mean_log_likelihood));
  EXPECT_GE(a.std_log_likelihood, 0.05);  // floor
}

TEST(SurpriseBaselineTest, InDistributionDataScoresNearBaseline) {
  // Replaying model-sampled data through the filter should produce
  // log-likelihoods whose mean is within a couple of baseline sigmas.
  const GaussianHmm model = two_state_model();
  const SurpriseBaseline baseline =
      compute_surprise_baseline(HmmKernel::create(model));

  Rng rng(99);
  OnlineHmmFilter filter(model);
  double sum = 0.0;
  std::size_t n = 0;
  for (double w : sample_sequence(model, 200, rng)) {
    filter.observe(w);
    if (std::isfinite(filter.last_log_likelihood())) {
      sum += filter.last_log_likelihood();
      ++n;
    }
  }
  ASSERT_GT(n, 150u);
  EXPECT_NEAR(sum / static_cast<double>(n), baseline.mean_log_likelihood,
              2.0 * baseline.std_log_likelihood);
}

// -- SurpriseMonitor ---------------------------------------------------------
//
// Every case runs the shipped machine: window 8, a verdict from the 4th
// observation, enter z 6, exit z 2, a 3-streak to trip and an 8-streak to
// recover.
static_assert(kSurpriseWindow == 8 && kMinObservations == 4);
static_assert(kEnterZ == 6.0 && kExitZ == 2.0);
static_assert(kConfirmObservations == 3 && kRecoveryObservations == 8);

// Unit baseline makes the score arithmetic transparent:
// score = -window_mean * sqrt(n), so a full window scores -sum / sqrt(8).
SurpriseBaseline unit_baseline() { return SurpriseBaseline{0.0, 1.0}; }

/// A monitor whose window is full of baseline-mean (0) values.
SurpriseMonitor calm_monitor() {
  SurpriseMonitor monitor(unit_baseline());
  for (std::size_t i = 0; i < kSurpriseWindow; ++i) monitor.record(0.0);
  return monitor;
}

TEST(Monitor, StaysHealthyOnBaselineData) {
  SurpriseMonitor monitor(unit_baseline());
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(monitor.record(0.0), GuardrailState::kHealthy);
  EXPECT_EQ(monitor.trips(), 0u);
  EXPECT_NEAR(monitor.score(), 0.0, 1e-12);
}

TEST(Monitor, NoVerdictBeforeMinObservations) {
  SurpriseMonitor monitor(unit_baseline());
  // Three wildly surprising observations — still below kMinObservations.
  EXPECT_EQ(monitor.record(-100.0), GuardrailState::kHealthy);
  EXPECT_EQ(monitor.record(-100.0), GuardrailState::kHealthy);
  EXPECT_EQ(monitor.record(-100.0), GuardrailState::kHealthy);
  EXPECT_DOUBLE_EQ(monitor.score(), 0.0);
  // The fourth is scored: mean -100 over 4 values, score 200.
  EXPECT_EQ(monitor.record(-100.0), GuardrailState::kSuspect);
  EXPECT_DOUBLE_EQ(monitor.score(), 200.0);
}

TEST(Monitor, TripsThroughSuspectAfterConfirmStreak) {
  SurpriseMonitor monitor = calm_monitor();
  ASSERT_EQ(monitor.state(), GuardrailState::kHealthy);
  // window [0 x7, -20]: sum -20, score 7.07 >= kEnterZ -> SUSPECT (streak 1).
  EXPECT_EQ(monitor.record(-20.0), GuardrailState::kSuspect);
  // streak 2 < kConfirmObservations: still SUSPECT.
  EXPECT_EQ(monitor.record(-20.0), GuardrailState::kSuspect);
  EXPECT_EQ(monitor.trips(), 0u);
  // streak 3 = kConfirmObservations -> DEGRADED.
  EXPECT_EQ(monitor.record(-20.0), GuardrailState::kDegraded);
  EXPECT_EQ(monitor.trips(), 1u);
  EXPECT_EQ(monitor.recoveries(), 0u);
}

TEST(Monitor, SuspectFallsBackToHealthyWhenAlarmBreaks) {
  SurpriseMonitor monitor = calm_monitor();
  EXPECT_EQ(monitor.record(-20.0), GuardrailState::kSuspect);
  // A calm observation interrupts the confirmation streak: window
  // [0 x6, -20, 16] sums to -4, score 1.41 <= kExitZ.
  EXPECT_EQ(monitor.record(16.0), GuardrailState::kHealthy);
  EXPECT_EQ(monitor.trips(), 0u);

  // One alarm short of the confirm streak, then a break: no trip either.
  SurpriseMonitor near_trip = calm_monitor();
  EXPECT_EQ(near_trip.record(-20.0), GuardrailState::kSuspect);
  EXPECT_EQ(near_trip.record(-20.0), GuardrailState::kSuspect);
  // [0 x5, -20, -20, 36] sums to -4 again.
  EXPECT_EQ(near_trip.record(36.0), GuardrailState::kHealthy);
  EXPECT_EQ(near_trip.trips(), 0u);
}

TEST(Monitor, RecoversOnlyAfterRecoveryStreak) {
  SurpriseMonitor monitor = calm_monitor();
  monitor.record(-20.0);
  monitor.record(-20.0);
  ASSERT_EQ(monitor.record(-20.0), GuardrailState::kDegraded);
  // Feed calm data; the window drains the -20s first (7 observations whose
  // scores stay alarmed: the 8th 0 is the first to empty the window of
  // them), then needs kRecoveryObservations consecutive calm scores.
  int steps_to_recover = 0;
  while (monitor.state() == GuardrailState::kDegraded && steps_to_recover < 50) {
    monitor.record(0.0);
    ++steps_to_recover;
  }
  EXPECT_EQ(monitor.state(), GuardrailState::kHealthy);
  EXPECT_EQ(monitor.recoveries(), 1u);
  EXPECT_EQ(steps_to_recover, 7 + static_cast<int>(kRecoveryObservations));

  // A 7-streak of calm scores is one short: an alarm restarts the count.
  SurpriseMonitor interrupted = calm_monitor();
  for (int i = 0; i < 3; ++i) interrupted.record(-20.0);
  for (int i = 0; i < 7 + 7; ++i) interrupted.record(0.0);
  ASSERT_EQ(interrupted.state(), GuardrailState::kDegraded);
  interrupted.record(-100.0);  // [0 x7, -100]: score 35.4, an alarm
  // Seven more alarms while the -100 stays in the window, then the count
  // starts over: still DEGRADED after 7 calm scores, HEALTHY on the 8th.
  for (int i = 0; i < 7; ++i) interrupted.record(0.0);
  for (std::size_t i = 0; i + 1 < kRecoveryObservations; ++i)
    EXPECT_EQ(interrupted.record(0.0), GuardrailState::kDegraded);
  EXPECT_EQ(interrupted.record(0.0), GuardrailState::kHealthy);
  EXPECT_EQ(interrupted.recoveries(), 1u);
}

TEST(Monitor, HysteresisBandHoldsState) {
  // Scores inside (kExitZ, kEnterZ) must not move the machine in either
  // direction — this is the anti-flap property.
  SurpriseMonitor healthy = calm_monitor();
  // Constant ll = -1.5: window mean -1.5, score 4.24 — inside the (2, 6)
  // band, and every partly filled window on the way scores lower.
  for (int i = 0; i < 100; ++i) healthy.record(-1.5);
  EXPECT_NEAR(healthy.score(), 1.5 * std::sqrt(8.0), 1e-12);
  EXPECT_EQ(healthy.state(), GuardrailState::kHealthy);
  EXPECT_EQ(healthy.trips(), 0u);

  SurpriseMonitor degraded = calm_monitor();
  degraded.record(-20.0);
  degraded.record(-20.0);
  ASSERT_EQ(degraded.record(-20.0), GuardrailState::kDegraded);
  for (int i = 0; i < 100; ++i) degraded.record(-1.5);
  EXPECT_EQ(degraded.state(), GuardrailState::kDegraded);
  EXPECT_EQ(degraded.recoveries(), 0u);
}

TEST(Monitor, FlapCountBoundedByRegimeShifts) {
  // 6 true regime cycles -> exactly 6 trips and <= 6 recoveries, regardless
  // of the 40 observations inside each phase. A flapping monitor would trip
  // many times per bad phase.
  SurpriseMonitor monitor(unit_baseline());
  const int kCycles = 6;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (int i = 0; i < 40; ++i) monitor.record(-10.0);
    for (int i = 0; i < 40; ++i) monitor.record(0.0);
  }
  EXPECT_EQ(monitor.trips(), static_cast<std::size_t>(kCycles));
  EXPECT_LE(monitor.recoveries(), static_cast<std::size_t>(kCycles));
  EXPECT_GE(monitor.recoveries(), static_cast<std::size_t>(kCycles - 1));
}

TEST(Monitor, SingleOutlierDoesNotTrip) {
  // One catastrophic sample inside healthy traffic: with the shipped
  // thresholds (window 8, enter z 6, penalty 12 sigmas) the window mean
  // moves to -1.5, score ~4.2 — inside the hysteresis band, so no alarm
  // ever starts.
  SurpriseMonitor monitor(unit_baseline());
  for (int i = 0; i < 10; ++i) monitor.record(0.0);
  monitor.record(-std::numeric_limits<double>::infinity());
  for (int i = 0; i < 10; ++i) monitor.record(0.0);
  EXPECT_EQ(monitor.trips(), 0u);
  EXPECT_EQ(monitor.state(), GuardrailState::kHealthy);
  EXPECT_EQ(monitor.degenerate_observations(), 1u);
}

TEST(Monitor, DegenerateObservationsKeepScoreFinite) {
  SurpriseMonitor monitor(unit_baseline());
  for (int i = 0; i < 8; ++i)
    monitor.record(-std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isfinite(monitor.score()));
  EXPECT_EQ(monitor.state(), GuardrailState::kDegraded);
  EXPECT_EQ(monitor.degenerate_observations(), 8u);
}

TEST(Monitor, StateNames) {
  EXPECT_EQ(guardrail_state_name(GuardrailState::kHealthy), "HEALTHY");
  EXPECT_EQ(guardrail_state_name(GuardrailState::kSuspect), "SUSPECT");
  EXPECT_EQ(guardrail_state_name(GuardrailState::kDegraded), "DEGRADED");
}

// -- GuardedSessionPredictor -------------------------------------------------

TEST(GuardedSession, MatchesUnguardedHmmInDistribution) {
  // On data drawn from the model itself, the guardrail must be invisible:
  // identical predictions, no degradation.
  const GaussianHmm model = two_state_model();
  const auto kernel = HmmKernel::create(model);
  const SurpriseBaseline baseline = compute_surprise_baseline(kernel);

  GuardedSessionPredictor guarded(kernel, 2.0, 1.5, baseline);
  HmmSessionPredictor plain(kernel, 2.0);

  EXPECT_EQ(guarded.predict_initial(), plain.predict_initial());
  Rng rng(7);
  for (double w : sample_sequence(model, 120, rng)) {
    guarded.observe(w);
    plain.observe(w);
    ASSERT_DOUBLE_EQ(guarded.predict(1), plain.predict(1));
  }
  EXPECT_FALSE(guarded.degraded());
  EXPECT_EQ(guarded.stats().trips, 0u);
  EXPECT_EQ(guarded.serve_flags(), serve_flags::kPrimary);
}

TEST(GuardedSession, TripsOnRegimeShiftAndServesFallback) {
  const GaussianHmm model = two_state_model();  // states at 1.0 and 5.0
  const auto kernel = HmmKernel::create(model);
  const SurpriseBaseline baseline = compute_surprise_baseline(kernel);
  GuardedSessionPredictor guarded(kernel, 2.0, 1.5, baseline);

  Rng rng(11);
  for (double w : sample_sequence(model, 40, rng)) guarded.observe(w);
  ASSERT_FALSE(guarded.degraded());

  // Regime shift: throughput collapses to ~0.2 Mbps, 8 sigmas below the
  // nearest state. The guardrail must trip and serve the harmonic mean of
  // the recent (post-shift) samples instead of a state mean.
  for (int i = 0; i < 12; ++i) guarded.observe(0.2);
  EXPECT_TRUE(guarded.degraded());
  EXPECT_GE(guarded.stats().trips, 1u);
  EXPECT_NEAR(guarded.predict(1), 0.2, 0.05);
  EXPECT_GT(guarded.stats().fallback_predictions, 0u);
  EXPECT_TRUE(guarded.serve_flags() & serve_flags::kDegraded);
  EXPECT_TRUE(guarded.serve_flags() & serve_flags::kGuardrailTripped);
}

TEST(GuardedSession, RecoversWithHysteresis) {
  const GaussianHmm model = two_state_model();
  const auto kernel = HmmKernel::create(model);
  const SurpriseBaseline baseline = compute_surprise_baseline(kernel);
  GuardedSessionPredictor guarded(kernel, 2.0, 1.5, baseline);

  Rng rng(13);
  for (double w : sample_sequence(model, 30, rng)) guarded.observe(w);
  for (int i = 0; i < 12; ++i) guarded.observe(0.2);
  ASSERT_TRUE(guarded.degraded());

  // Back in distribution: the filter keeps updating while degraded, so the
  // monitor can observe the return to normal and recover.
  for (double w : sample_sequence(model, 60, rng)) guarded.observe(w);
  EXPECT_FALSE(guarded.degraded());
  EXPECT_GE(guarded.stats().recoveries, 1u);
  EXPECT_EQ(guarded.serve_flags(), serve_flags::kPrimary);
}

TEST(GuardedSession, PoisonedSamplesNeverReachTheFilter) {
  const auto kernel = HmmKernel::create(two_state_model());
  GuardedSessionPredictor guarded(kernel, 2.0, 1.5,
                                  compute_surprise_baseline(kernel));

  guarded.observe(1.0);
  const std::size_t before = guarded.filter().observations();
  guarded.observe(kNaN);
  guarded.observe(kInf);
  guarded.observe(-3.0);
  guarded.observe(0.0);
  EXPECT_EQ(guarded.filter().observations(), before);
  EXPECT_EQ(guarded.stats().rejected_samples, 4u);
  EXPECT_FALSE(guarded.degraded());
  EXPECT_TRUE(std::isfinite(guarded.predict(1)));
}

TEST(GuardedSession, SpikesAreClampedNotBelieved) {
  // Max state mean 5.0 -> ceiling 50.
  const auto kernel = HmmKernel::create(two_state_model());
  GuardedSessionPredictor guarded(kernel, 2.0, 1.5,
                                  compute_surprise_baseline(kernel));

  guarded.observe(1.0);
  guarded.observe(1e7);
  EXPECT_EQ(guarded.stats().clamped_samples, 1u);
  EXPECT_TRUE(std::isfinite(guarded.predict(1)));
}

TEST(GuardedSession, NoNanPredictionsUnderAdversarialInput) {
  // Satellite acceptance: far-out observations must never produce NaN
  // beliefs or predictions, guardrail on or off.
  const GaussianHmm model = two_state_model();
  const auto kernel = HmmKernel::create(model);
  GuardedSessionPredictor guarded(kernel, 2.0, 1.5,
                                  compute_surprise_baseline(kernel));
  OnlineHmmFilter unguarded(model);

  const double hostile[] = {1.0, kNaN,  1e12, -5.0, kInf, 0.2,
                            0.0, 1e-9, 5.0,  -kInf, 0.3,  1e7};
  for (double w : hostile) {
    guarded.observe(w);
    ASSERT_TRUE(std::isfinite(guarded.predict(1)));
    if (std::isfinite(w) && w > 0.0) {
      unguarded.observe(w);
      ASSERT_TRUE(std::isfinite(unguarded.predict(1)));
      for (double p : unguarded.belief()) ASSERT_TRUE(std::isfinite(p));
    }
  }
  for (double p : guarded.filter().belief()) EXPECT_TRUE(std::isfinite(p));
}

TEST(GuardedSession, FallbackIsTheHarmonicMeanOfTheLastAcceptedWindow) {
  const GaussianHmm model = two_state_model();
  const auto kernel = HmmKernel::create(model);
  GuardedSessionPredictor guarded(kernel, 2.0, 1.5,
                                  compute_surprise_baseline(kernel));

  Rng rng(11);
  for (double w : sample_sequence(model, 40, rng)) guarded.observe(w);
  // A collapse to distinct values around 0.2 Mbps, with rejected samples
  // in between that must not enter the window.
  std::vector<double> accepted;
  for (int i = 0; i < 12; ++i) {
    const double w = 0.15 + 0.01 * i;
    guarded.observe(w);
    accepted.push_back(w);
    guarded.observe(kNaN);
    guarded.observe(0.0);
  }
  ASSERT_TRUE(guarded.degraded());
  // The last kFallbackWindow accepted samples, oldest first: the forecast
  // is their harmonic mean to the bit, and the same at every horizon.
  const std::vector<double> window(accepted.end() - kFallbackWindow,
                                   accepted.end());
  EXPECT_EQ(guarded.predict(1), harmonic_mean(window));
  EXPECT_EQ(guarded.predict(5), harmonic_mean(window));
  EXPECT_NE(guarded.predict(1), harmonic_mean(accepted));
}

TEST(GuardedSession, FallbackChainEndsAtGlobalThenInitial) {
  const GaussianHmm model = two_state_model();
  const auto kernel = HmmKernel::create(model);
  const SurpriseBaseline baseline = compute_surprise_baseline(kernel);

  // No accepted samples yet: predict() returns the session's initial value.
  GuardedSessionPredictor fresh(kernel, 2.25, 1.5, baseline);
  EXPECT_DOUBLE_EQ(fresh.predict(1), 2.25);
  EXPECT_EQ(fresh.predict_initial(), std::optional<double>(2.25));

  // Denormal samples are positive, so the sanitizer accepts them, but their
  // reciprocals overflow: the window's harmonic mean is 0, not usable. The
  // chain then serves the global model's initial value...
  constexpr double kDenormal = 1e-320;
  GuardedSessionPredictor to_global(kernel, 2.25, 1.5, baseline);
  for (int i = 0; i < 12; ++i) to_global.observe(kDenormal);
  ASSERT_TRUE(to_global.degraded());
  EXPECT_EQ(to_global.predict(1), 1.5);

  // ...and the session's own initial value when the global one is unusable.
  for (const double unusable : {0.0, kNaN}) {
    GuardedSessionPredictor to_initial(kernel, 2.25, unusable, baseline);
    for (int i = 0; i < 12; ++i) to_initial.observe(kDenormal);
    ASSERT_TRUE(to_initial.degraded());
    EXPECT_EQ(to_initial.predict(1), 2.25);
  }
}

TEST(GuardedSession, EventCallbackLifecycle) {
  const GaussianHmm model = two_state_model();
  const auto kernel = HmmKernel::create(model);
  const SurpriseBaseline baseline = compute_surprise_baseline(kernel);

  std::vector<GuardrailEvent> events;
  {
    GuardedSessionPredictor guarded(
        kernel, 2.0, 1.5, baseline, PredictionRule::kMleState,
        serve_flags::kPrimary,
        [&](GuardrailEvent event, bool) { events.push_back(event); });
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0], GuardrailEvent::kOpened);

    Rng rng(17);
    for (double w : sample_sequence(model, 30, rng)) guarded.observe(w);
    for (int i = 0; i < 12; ++i) guarded.observe(0.2);
    ASSERT_TRUE(guarded.degraded());
    ASSERT_GE(events.size(), 2u);
    EXPECT_EQ(events[1], GuardrailEvent::kTripped);

    for (double w : sample_sequence(model, 60, rng)) guarded.observe(w);
    ASSERT_FALSE(guarded.degraded());
    ASSERT_GE(events.size(), 3u);
    EXPECT_EQ(events[2], GuardrailEvent::kRecovered);
  }
  EXPECT_EQ(events.back(), GuardrailEvent::kClosed);
}

TEST(GuardedSession, StaticFlagsAreCarried) {
  const auto kernel = HmmKernel::create(two_state_model());
  GuardedSessionPredictor guarded(
      kernel, 2.0, 1.5, compute_surprise_baseline(kernel),
      PredictionRule::kMleState,
      static_cast<std::uint8_t>(serve_flags::kGlobalModel |
                                serve_flags::kClusterDrifted));
  EXPECT_TRUE(guarded.serve_flags() & serve_flags::kGlobalModel);
  EXPECT_TRUE(guarded.serve_flags() & serve_flags::kClusterDrifted);
  EXPECT_FALSE(guarded.serve_flags() & serve_flags::kDegraded);
}

}  // namespace
}  // namespace cs2p
