// Recovery bench — time-to-recover after a world shift: continuous training
// vs. a full retrain from the on-disk dataset (DESIGN.md §15, EXPERIMENTS.md).
//
// Scenario: a serving engine trained offline on the pre-shift world, then
// every cluster's live throughput collapses to 25% of its trained level (an
// access-network regime change). Live sessions keep completing and the two
// recovery strategies race:
//
//   - full-retrain: a reload (SIGHUP or --reload-interval) retrains from
//     --data. The CSV on disk predates the shift, so however often it
//     retrains it reproduces the same stale model (and why interval reloads
//     skip unchanged datasets entirely).
//   - continuous: the streaming trainer ingests the completed post-shift
//     sessions, marks the moved clusters dirty, retrains them on the live
//     reservoirs and swaps each candidate through the canary gate.
//
// Metric: per-round median one-step relative error of the arm's current
// model over a fresh batch of post-shift sessions. Time-to-recover = first
// round whose median error falls back within 1.5x the pre-shift baseline.
//
// Gate (exit code): the continuous arm must recover within the bench
// horizon AND strictly earlier than the full-retrain arm (which, training
// on stale data, should never recover at all).

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/trainer.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace cs2p;

constexpr double kShiftScale = 0.25;   ///< post-shift throughput multiplier
constexpr double kRecoverFactor = 1.5; ///< recovered when <= this x baseline
constexpr int kRounds = 10;
constexpr int kSessionsPerRound = 16;
constexpr int kEpochsPerSession = 12;

const std::vector<std::pair<std::string, double>>& cities() {
  static const std::vector<std::pair<std::string, double>> kCities = {
      {"alpha", 1.5}, {"beta", 3.0}, {"gamma", 6.0}, {"delta", 12.0}};
  return kCities;
}

SessionFeatures city_features(const std::string& city) {
  return {"ISP0", "AS0", "P0", city, "S0", "Pfx-" + city};
}

/// The pre-shift world: four clusters at well-separated throughput levels,
/// fixed start hour so live sessions map onto their training buckets.
Dataset pre_shift_dataset() {
  Dataset train;
  Rng rng(31);
  std::int64_t id = 0;
  for (const auto& [city, level] : cities()) {
    for (int i = 0; i < 16; ++i) {
      Session s;
      s.id = id++;
      s.features = city_features(city);
      s.start_hour = 12.0;
      for (int t = 0; t < 10; ++t)
        s.throughput_mbps.push_back(level * (1.0 + rng.uniform(-0.15, 0.15)));
      train.add(s);
    }
  }
  return train;
}

Cs2pConfig engine_config() {
  Cs2pConfig config;
  config.hmm.num_states = 2;
  config.hmm.max_iterations = 8;
  config.selector.min_cluster_size = 6;
  config.max_sequences_per_cluster = 24;
  config.max_global_sequences = 64;
  return config;
}

/// One live session's throughput sequence at `scale` x its cluster level.
std::vector<double> live_sequence(double level, double scale, Rng& rng) {
  std::vector<double> out;
  out.reserve(kEpochsPerSession);
  for (int t = 0; t < kEpochsPerSession; ++t)
    out.push_back(level * scale * (1.0 + rng.uniform(-0.15, 0.15)));
  return out;
}

/// Replays one round of live sessions against `model` and returns the
/// per-epoch one-step relative errors. When `trainer` is set, each session
/// also completes into it (the serving completion hook).
std::vector<double> play_round(const Cs2pPredictorModel& model, double scale,
                               Rng& rng, ContinuousTrainer* trainer) {
  std::vector<double> errors;
  for (int i = 0; i < kSessionsPerRound; ++i) {
    const auto& [city, level] = cities()[i % cities().size()];
    const std::vector<double> sequence = live_sequence(level, scale, rng);
    auto session =
        model.make_session({city_features(city), 1, 12.0, nullptr});
    for (std::size_t t = 0; t + 1 < sequence.size(); ++t) {
      session->observe(sequence[t]);
      const double predicted = session->predict(1);
      const double actual = sequence[t + 1];
      errors.push_back(std::abs(predicted - actual) / std::max(actual, 0.01));
    }
    if (trainer != nullptr)
      trainer->ingest(city_features(city), 12.0, sequence);
  }
  return errors;
}

double median_of(std::vector<double> xs) { return median(xs); }

}  // namespace

int main() {
  const Dataset train = pre_shift_dataset();

  auto stale_engine = std::make_shared<Cs2pEngine>(train, engine_config());
  stale_engine->warm_up();
  auto stale_model = std::make_shared<Cs2pPredictorModel>(stale_engine);

  // Pre-shift baseline: what "healthy" error looks like on the trained world.
  Rng baseline_rng(101);
  const double baseline =
      median_of(play_round(*stale_model, 1.0, baseline_rng, nullptr));
  const double recover_threshold = kRecoverFactor * baseline;
  std::printf("pre-shift baseline: median one-step relative error %.3f "
              "(recover when <= %.3f)\n\n",
              baseline, recover_threshold);

  // Arm 1: a full retrain from --data, as a reload runs it. The dataset on
  // disk never saw the shift, and identical data + config reproduce an
  // identical model, so one rebuild stands in for every per-round retrain.
  auto full_retrain_engine =
      std::make_shared<Cs2pEngine>(train, engine_config());
  full_retrain_engine->warm_up();
  auto full_retrain_model =
      std::make_shared<Cs2pPredictorModel>(full_retrain_engine);

  // Arm 2: continuous training over the live post-shift stream.
  TrainerConfig trainer_config;
  trainer_config.reservoir_size = 32;
  trainer_config.min_new_sessions = 4;
  trainer_config.canary_margin = 0.01;
  trainer_config.horizon = 2;
  trainer_config.probation_ms = 0;  // no guardrail sessions in this bench
  ContinuousTrainer trainer(stale_engine, trainer_config);

  std::printf("%-7s %22s %22s\n", "round", "continuous med err",
              "full-retrain med err");
  int continuous_recovered = -1;
  int full_recovered = -1;
  Rng continuous_rng(202);
  Rng full_rng(202);  // identical live traffic for both arms
  for (int round = 1; round <= kRounds; ++round) {
    const Cs2pPredictorModel continuous_model(trainer.engine());
    const double continuous_err = median_of(
        play_round(continuous_model, kShiftScale, continuous_rng, &trainer));
    trainer.run_once();

    const double full_err = median_of(
        play_round(*full_retrain_model, kShiftScale, full_rng, nullptr));

    if (continuous_recovered < 0 && continuous_err <= recover_threshold)
      continuous_recovered = round;
    if (full_recovered < 0 && full_err <= recover_threshold)
      full_recovered = round;
    std::printf("%-7d %22.3f %22.3f\n", round, continuous_err, full_err);
  }

  const TrainerStats stats = trainer.stats();
  std::printf("\ntrainer: %llu ingested, %llu retrains, %llu accepts, "
              "%llu rejects, generation %llu\n",
              static_cast<unsigned long long>(stats.sessions_ingested),
              static_cast<unsigned long long>(stats.retrains),
              static_cast<unsigned long long>(stats.canary_accepts),
              static_cast<unsigned long long>(stats.canary_rejects),
              static_cast<unsigned long long>(stats.generation));
  std::printf("time-to-recover (rounds of %d sessions): continuous=%s, "
              "full-retrain=%s\n",
              kSessionsPerRound,
              continuous_recovered > 0
                  ? std::to_string(continuous_recovered).c_str()
                  : "never",
              full_recovered > 0 ? std::to_string(full_recovered).c_str()
                                 : "never");

  // Gate: continuous training must recover, and strictly before a full
  // retrain from the stale dataset does (it shouldn't recover at all).
  const bool pass =
      continuous_recovered > 0 &&
      (full_recovered < 0 || continuous_recovered < full_recovered);
  std::printf("gate: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
