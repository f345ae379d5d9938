// Continuous-training pipeline tests (core/trainer.h, DESIGN.md §15):
// streaming ingest + reservoir bookkeeping, the canary gate accepting a
// genuinely shifted world and bumping the model lineage, the gate blocking a
// poisoned retrain while serving continues (the acceptance scenario of the
// robustness PR), drift-quorum rollback during probation with retrain
// backoff, clean probation release, external-reload adoption (and the
// clusters a reload drops), and the server-level unified BYE/eviction
// completion hook that feeds it all.

#include "core/trainer.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/model_store.h"
#include "hmm/online_filter.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "predictors/guarded_session.h"
#include "util/rng.h"

namespace cs2p {
namespace {

/// Two-cluster world with a fixed start hour so every ingested session maps
/// to the same bucket its training twin occupied. "low-city" streams around
/// 2 Mbps, "high-city" around 6 Mbps.
SessionFeatures city_features(const std::string& city) {
  return {"ISP0", "AS0", "P0", city, "S0", "Pfx-" + city};
}

Dataset tiny_dataset(std::size_t per_city = 10) {
  Dataset train;
  Rng rng(5);
  std::int64_t id = 0;
  for (const auto& [city, level] :
       std::vector<std::pair<std::string, double>>{{"low-city", 2.0},
                                                   {"high-city", 6.0}}) {
    for (std::size_t i = 0; i < per_city; ++i) {
      Session s;
      s.id = id++;
      s.features = city_features(city);
      s.start_hour = 12.0;
      for (int t = 0; t < 8; ++t)
        s.throughput_mbps.push_back(level * (1.0 + rng.uniform(-0.15, 0.15)));
      train.add(s);
    }
  }
  return train;
}

Cs2pConfig tiny_config() {
  Cs2pConfig config;
  config.hmm.num_states = 2;
  config.hmm.max_iterations = 8;
  config.selector.min_cluster_size = 4;
  config.max_sequences_per_cluster = 16;
  config.max_global_sequences = 32;
  return config;
}

std::shared_ptr<const Cs2pEngine> tiny_engine() {
  auto engine = std::make_shared<Cs2pEngine>(tiny_dataset(), tiny_config());
  engine->warm_up();
  return engine;
}

TrainerConfig fast_trainer_config() {
  TrainerConfig config;
  config.reservoir_size = 32;
  config.min_new_sessions = 8;
  config.canary_margin = 0.01;
  config.horizon = 2;
  config.probation_ms = 60'000;  // tests resolve probations explicitly
  config.backoff_initial_ms = 3'600'000;
  return config;
}

/// One session's throughput sequence around `level` (±20% noise).
std::vector<double> sequence_at(double level, Rng& rng, std::size_t epochs = 12) {
  std::vector<double> out;
  out.reserve(epochs);
  for (std::size_t t = 0; t < epochs; ++t)
    out.push_back(level * (1.0 + rng.uniform(-0.2, 0.2)));
  return out;
}

/// The trainer's stable identity of the cluster serving `features`.
std::pair<std::size_t, std::string> cluster_identity(
    const Cs2pEngine& engine, const SessionFeatures& features,
    double start_hour = 12.0) {
  const SelectionResult selection = engine.selector().select(features, start_hour);
  EXPECT_NE(selection.cluster, nullptr);
  return {selection.candidate_id,
          engine.cluster_index()
              .index_for(selection.candidate_id)
              .bucket_key_for(features, start_hour)};
}

/// What the engine would forecast for this cluster after seeing `observed`
/// three times — a functional probe of which model generation is serving.
double steady_prediction(const Cs2pEngine& engine, std::size_t candidate_id,
                         const std::string& bucket_key, double observed) {
  const ClusterModelView view =
      engine.cluster_model_view(candidate_id, bucket_key);
  OnlineHmmFilter filter(view.hmm, PredictionRule::kMleState);
  for (int i = 0; i < 3; ++i) filter.observe(observed);
  return filter.predict(1);
}

TEST(Trainer, RejectsDegenerateConstruction) {
  EXPECT_THROW(ContinuousTrainer(nullptr, {}), std::invalid_argument);
  TrainerConfig zero;
  zero.reservoir_size = 0;
  EXPECT_THROW(ContinuousTrainer(tiny_engine(), zero), std::invalid_argument);
}

TEST(Trainer, IngestTracksClustersAndDropsJunk) {
  ContinuousTrainer trainer(tiny_engine(), fast_trainer_config());
  const SessionFeatures low = city_features("low-city");

  // Too short after sample-wise sanitization: NaN and negatives drop out.
  const double nan = std::nan("");
  trainer.ingest(low, 12.0, {1.0, nan, -3.0, 2.0});
  EXPECT_EQ(trainer.stats().sessions_ingested, 0u);
  EXPECT_EQ(trainer.stats().sessions_dropped, 1u);

  Rng rng(7);
  for (int i = 0; i < 5; ++i) trainer.ingest(low, 12.0, sequence_at(2.0, rng));
  const TrainerStats stats = trainer.stats();
  EXPECT_EQ(stats.sessions_ingested, 5u);
  EXPECT_EQ(stats.clusters_tracked, 1u);
  EXPECT_EQ(stats.generation, 0u);

  // Nothing shifted and nothing reached min_new_sessions: a pass is a no-op.
  EXPECT_EQ(trainer.run_once(), 0u);
  EXPECT_EQ(trainer.stats().retrains, 0u);
}

TEST(Trainer, ShiftedClusterRetrainsThroughCanaryWithLineage) {
  auto root = tiny_engine();
  const std::string root_snapshot = serialize_engine(*root);
  const auto [candidate_id, bucket_key] =
      cluster_identity(*root, city_features("low-city"));

  ContinuousTrainer trainer(root, fast_trainer_config());
  std::size_t publishes = 0;
  std::shared_ptr<const Cs2pEngine> published;
  trainer.set_publish([&](const std::shared_ptr<const Cs2pEngine>& engine,
                          const std::string& bytes) {
    ++publishes;
    published = engine;
    EXPECT_FALSE(bytes.empty());
    return true;
  });

  // The low cluster's world jumps from ~2 to ~20 Mbps.
  Rng rng(11);
  for (int i = 0; i < 24; ++i)
    trainer.ingest(city_features("low-city"), 12.0, sequence_at(20.0, rng));

  EXPECT_EQ(trainer.run_once(), 1u);
  const TrainerStats stats = trainer.stats();
  EXPECT_EQ(stats.retrains, 1u);
  EXPECT_EQ(stats.canary_accepts, 1u);
  EXPECT_EQ(stats.canary_rejects, 0u);
  EXPECT_EQ(stats.probations_active, 1u);

  // Lineage: generation 1, parented on the root engine's snapshot bytes.
  auto current = trainer.engine();
  ASSERT_NE(current, root);
  EXPECT_EQ(current->lineage().generation, 1u);
  EXPECT_EQ(current->lineage().parent_checksum, snapshot_checksum(root_snapshot));
  EXPECT_EQ(publishes, 1u);
  EXPECT_EQ(published, current);

  // The swapped cluster now tracks the shifted world; the root still serves
  // the old one (in-flight sessions keep their pinned model).
  EXPECT_GT(steady_prediction(*current, candidate_id, bucket_key, 20.0), 10.0);
  EXPECT_LT(steady_prediction(*root, candidate_id, bucket_key, 20.0), 10.0);

  // The accepted generation round-trips through the snapshot store with its
  // lineage intact — what a restarted replica would restore.
  const std::string bytes = serialize_engine(*current);
  auto restored =
      restore_engine_from_bytes(bytes, current->training(), tiny_config());
  EXPECT_EQ(restored->lineage().generation, 1u);
  EXPECT_EQ(restored->lineage().parent_checksum,
            snapshot_checksum(root_snapshot));
}

TEST(Trainer, RetrainFitCountsInEngineEmHistogram) {
  // A retrain is an EM fit like any other: it must go through the engine's
  // entry point and land in cs2p_engine_em_train_seconds.
  auto root = tiny_engine();
  const auto& em_seconds = root->metrics().histogram(
      "cs2p_engine_em_train_seconds", obs::default_latency_buckets_seconds());
  const std::uint64_t before = em_seconds.count();
  ContinuousTrainer trainer(root, fast_trainer_config());
  Rng rng(11);
  for (int i = 0; i < 24; ++i)
    trainer.ingest(city_features("low-city"), 12.0, sequence_at(20.0, rng));

  ASSERT_EQ(trainer.run_once(), 1u);
  EXPECT_EQ(trainer.stats().retrains, 1u);
  EXPECT_EQ(em_seconds.count(), before + 1);
}

TEST(Trainer, CanaryBlocksPoisonedRetrain) {
  auto root = tiny_engine();
  const auto [candidate_id, bucket_key] =
      cluster_identity(*root, city_features("low-city"));

  TrainerConfig config = fast_trainer_config();
  // A near-tie must not swap: the poisoned candidate has to *clearly* beat
  // the incumbent on clean held-out data, which it cannot.
  config.canary_margin = 0.3;
  ContinuousTrainer trainer(root, config);

  // A minority of corrupt sessions (wild 0.01 <-> 400 Mbps swings) lands in
  // the low cluster between clean sessions that match the incumbent world.
  // Offset 2 mod 4 keeps the stride-4 canary holdout poison-free — the gate
  // judges on the clean majority, as the reservoir intends.
  Rng rng(13);
  for (int i = 0; i < 32; ++i) {
    std::vector<double> sequence;
    if (i % 4 == 2) {
      for (int t = 0; t < 12; ++t) sequence.push_back(t % 2 == 0 ? 0.01 : 400.0);
    } else {
      sequence = sequence_at(2.0, rng);
    }
    trainer.ingest(city_features("low-city"), 12.0, sequence);
  }

  EXPECT_EQ(trainer.run_once(), 0u);
  const TrainerStats stats = trainer.stats();
  EXPECT_EQ(stats.canary_accepts, 0u);
  EXPECT_GE(stats.canary_rejects, 1u);
  EXPECT_EQ(stats.rollbacks, 0u);

  // The reject is a model-quality verdict, not a data-volume artifact.
  const std::string key = std::to_string(candidate_id) + ":" + bucket_key;
  const auto reason = trainer.last_reject(key);
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(*reason, CanaryRejectReason::kInsufficientData);

  // Serving continues on the untouched incumbent.
  EXPECT_EQ(trainer.engine(), root);
  EXPECT_EQ(trainer.engine()->lineage().generation, 0u);
  Cs2pPredictorModel model(root);
  auto session = model.make_session({city_features("low-city"), 1, 12.0, nullptr});
  session->observe(2.0);
  EXPECT_TRUE(std::isfinite(session->predict(1)));
}

TEST(Trainer, DriftTripDuringProbationRollsBackAndBacksOff) {
  auto root = tiny_engine();
  const auto [candidate_id, bucket_key] =
      cluster_identity(*root, city_features("low-city"));

  ContinuousTrainer trainer(root, fast_trainer_config());
  Rng rng(17);
  for (int i = 0; i < 24; ++i)
    trainer.ingest(city_features("low-city"), 12.0, sequence_at(20.0, rng));
  ASSERT_EQ(trainer.run_once(), 1u);
  ASSERT_EQ(trainer.stats().probations_active, 1u);

  // The accepted generation disappoints in production: a quorum of its live
  // guarded sessions trips the surprise monitor inside the probation window.
  auto current = trainer.engine();
  const Cluster* cluster = current->find_cluster(candidate_id, bucket_key);
  ASSERT_NE(cluster, nullptr);
  for (int i = 0; i < 4; ++i)
    current->note_guardrail_event(cluster, GuardrailEvent::kOpened, false);
  for (int i = 0; i < 4; ++i)
    current->note_guardrail_event(cluster, GuardrailEvent::kTripped, false);
  ASSERT_TRUE(current->cluster_drifted(cluster));

  EXPECT_EQ(trainer.run_once(), 1u);
  const TrainerStats stats = trainer.stats();
  EXPECT_EQ(stats.rollbacks, 1u);
  EXPECT_EQ(stats.probations_active, 0u);
  // A rollback is itself a new generation whose model is the parent's.
  EXPECT_EQ(stats.generation, 2u);
  auto rolled_back = trainer.engine();
  EXPECT_EQ(rolled_back->lineage().parent_checksum,
            snapshot_checksum(serialize_engine(*current)));
  EXPECT_LT(steady_prediction(*rolled_back, candidate_id, bucket_key, 20.0),
            10.0);

  // The cluster is backed off: more shifted traffic does not retrain it
  // until the (hour-long, in this config) backoff expires.
  for (int i = 0; i < 16; ++i)
    trainer.ingest(city_features("low-city"), 12.0, sequence_at(20.0, rng));
  EXPECT_EQ(trainer.run_once(), 0u);
  EXPECT_EQ(trainer.stats().retrains, 1u);
}

TEST(Trainer, CleanProbationReleasesWithoutRollback) {
  auto root = tiny_engine();
  TrainerConfig config = fast_trainer_config();
  config.probation_ms = 0;  // the deadline passes by the next pass
  ContinuousTrainer trainer(root, config);

  Rng rng(19);
  for (int i = 0; i < 24; ++i)
    trainer.ingest(city_features("low-city"), 12.0, sequence_at(20.0, rng));
  ASSERT_EQ(trainer.run_once(), 1u);
  ASSERT_EQ(trainer.stats().probations_active, 1u);

  // No drift trip: the next pass releases the generation as trusted.
  EXPECT_EQ(trainer.run_once(), 0u);
  const TrainerStats stats = trainer.stats();
  EXPECT_EQ(stats.probations_active, 0u);
  EXPECT_EQ(stats.rollbacks, 0u);
  EXPECT_EQ(stats.generation, 1u);
}

TEST(Trainer, SetEngineAdoptsReloadAndClearsProbations) {
  auto root = tiny_engine();
  ContinuousTrainer trainer(root, fast_trainer_config());
  Rng rng(23);
  for (int i = 0; i < 24; ++i)
    trainer.ingest(city_features("low-city"), 12.0, sequence_at(20.0, rng));
  ASSERT_EQ(trainer.run_once(), 1u);
  ASSERT_EQ(trainer.stats().probations_active, 1u);

  // An interval/SIGHUP reload rebuilt everything offline: the trainer adopts
  // the new lineage root and drops probations guarding superseded parents.
  auto reloaded = tiny_engine();
  trainer.set_engine(reloaded, serialize_engine(*reloaded));
  EXPECT_EQ(trainer.engine(), reloaded);
  EXPECT_EQ(trainer.stats().generation, 0u);
  EXPECT_EQ(trainer.stats().probations_active, 0u);
}

TEST(Trainer, SetEngineForgetsClustersTheReloadDropped) {
  auto root = tiny_engine();
  const auto low = cluster_identity(*root, city_features("low-city"));
  const auto high = cluster_identity(*root, city_features("high-city"));
  ContinuousTrainer trainer(root, fast_trainer_config());
  Rng rng(29);
  for (int i = 0; i < 16; ++i)
    trainer.ingest(city_features("low-city"), 12.0, sequence_at(20.0, rng));
  trainer.ingest(city_features("high-city"), 12.0, sequence_at(6.0, rng));
  ASSERT_EQ(trainer.stats().clusters_tracked, 2u);

  // The reload is trained without low-city: the shifted cluster is gone,
  // high-city's is kept.
  const Dataset both = tiny_dataset();
  Dataset high_only;
  for (const Session& s : both.sessions())
    if (s.features.city == "high-city") high_only.add(s);
  auto reloaded =
      std::make_shared<Cs2pEngine>(std::move(high_only), tiny_config());
  reloaded->warm_up();
  ASSERT_EQ(reloaded->find_cluster(low.first, low.second), nullptr);
  ASSERT_NE(reloaded->find_cluster(high.first, high.second), nullptr);
  trainer.set_engine(reloaded, serialize_engine(*reloaded));
  EXPECT_EQ(trainer.stats().clusters_tracked, 1u);

  // Nothing is left to train: the dropped cluster's reservoir went with its
  // state, so no EM runs for a model that could never be swapped in.
  EXPECT_EQ(trainer.run_once(), 0u);
  const TrainerStats stats = trainer.stats();
  EXPECT_EQ(stats.retrains, 0u);
  EXPECT_EQ(stats.canary_accepts, 0u);
  EXPECT_EQ(stats.canary_rejects, 0u);
  EXPECT_EQ(stats.generation, 0u);
  EXPECT_EQ(trainer.engine(), reloaded);
}

// -- Unified session-completion teardown (net/server.h) ---------------------

/// Trivial deterministic model so the server tests need no training pass.
class FlatModel final : public PredictorModel {
 public:
  std::string name() const override { return "Flat"; }
  std::unique_ptr<SessionPredictor> make_session(
      const SessionContext&) const override {
    class S final : public SessionPredictor {
     public:
      std::optional<double> predict_initial() const override { return 2.0; }
      double predict(unsigned) const override { return last_; }
      void observe(double w) override { last_ = w; }

     private:
      double last_ = 2.0;
    };
    return std::make_unique<S>();
  }
};

TEST(SessionCompletion, ByeAndEvictionBothReachTheHook) {
  auto registry = std::make_shared<obs::MetricsRegistry>();
  std::mutex mutex;
  std::vector<CompletedSession> completed;

  ServerConfig config;
  config.metrics = registry;
  config.session_ttl_ms = 50;  // the abandoned session evicts quickly
  config.on_session_complete = [&](CompletedSession&& done) {
    const std::scoped_lock lock(mutex);
    completed.push_back(std::move(done));
  };

  PredictionServer server(std::make_shared<FlatModel>(), config, 0);
  PredictionClient client(server.port());

  // Session 1: full lifecycle ending in BYE.
  const auto bye_session = client.hello(city_features("low-city"), 12.0);
  for (double w : {3.0, 4.0, 5.0})
    (void)client.observe(bye_session.session_id, w);
  client.bye(bye_session.session_id);

  // Session 2: observed once, then abandoned — TTL eviction must hand the
  // same teardown signal to the same hook (the pre-PR behavior silently
  // discarded it and skipped the duration histogram).
  const auto evicted_session = client.hello(city_features("high-city"), 12.0);
  (void)client.observe(evicted_session.session_id, 7.0);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    {
      const std::scoped_lock lock(mutex);
      if (completed.size() >= 2) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  const std::scoped_lock lock(mutex);
  ASSERT_EQ(completed.size(), 2u);
  const CompletedSession* bye = nullptr;
  const CompletedSession* evict = nullptr;
  for (const CompletedSession& done : completed) {
    if (done.reason == "bye") bye = &done;
    if (done.reason == "evict") evict = &done;
  }
  ASSERT_NE(bye, nullptr) << "BYE teardown must reach the hook";
  ASSERT_NE(evict, nullptr) << "TTL eviction must reach the hook";

  EXPECT_EQ(bye->features.city, "low-city");
  ASSERT_EQ(bye->observations.size(), 3u);
  EXPECT_DOUBLE_EQ(bye->observations[0], 3.0);
  EXPECT_DOUBLE_EQ(bye->observations[2], 5.0);

  EXPECT_EQ(evict->features.city, "high-city");
  ASSERT_EQ(evict->observations.size(), 1u);
  EXPECT_DOUBLE_EQ(evict->observations[0], 7.0);

  // Both teardown paths feed the connection-duration histogram — eviction
  // used to bypass it.
  const auto& seconds = registry->histogram(
      "cs2p_server_session_seconds", obs::default_duration_buckets_seconds());
  EXPECT_EQ(seconds.count(), 2u);
  server.stop();
}

TEST(SessionCompletion, HookExceptionsAreSwallowedAndCounted) {
  auto registry = std::make_shared<obs::MetricsRegistry>();
  ServerConfig config;
  config.metrics = registry;
  config.on_session_complete = [](CompletedSession&&) {
    throw std::runtime_error("trainer backpressure");
  };

  PredictionServer server(std::make_shared<FlatModel>(), config, 0);
  PredictionClient client(server.port());
  const auto session = client.hello(city_features("low-city"), 12.0);
  (void)client.observe(session.session_id, 3.0);
  client.bye(session.session_id);

  // The connection (and server) survive; the failure is observable.
  const auto session2 = client.hello(city_features("low-city"), 12.0);
  EXPECT_GT(session2.initial_mbps, 0.0);
  EXPECT_EQ(
      registry->counter("cs2p_server_completion_hook_errors_total").value(),
      1u);
  server.stop();
}

}  // namespace
}  // namespace cs2p
