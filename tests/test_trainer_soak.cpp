// Continuous-training soak (DESIGN.md §15), run under TSan in CI
// (ci.yml trainer-soak job): 64 client sessions stream through a serving
// process whose world shifts mid-soak while the background trainer ingests
// every completed session, retrains shifted clusters and hot-swaps accepted
// generations into the live server. Acceptance: zero dropped sessions, zero
// torn swaps (every reply finite on a coherent model), bounded rollbacks.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/model_store.h"
#include "core/trainer.h"
#include "net/client.h"
#include "net/server.h"
#include "util/rng.h"

namespace cs2p {
namespace {

SessionFeatures city_features(const std::string& city) {
  return {"ISP0", "AS0", "P0", city, "S0", "Pfx-" + city};
}

/// Tiny fixed-hour world (2 clusters, 2-state HMMs) so EM passes stay cheap
/// enough for a TSan interleaving soak.
Dataset soak_dataset() {
  Dataset train;
  Rng rng(29);
  std::int64_t id = 0;
  for (const auto& [city, level] :
       std::vector<std::pair<std::string, double>>{{"low-city", 2.0},
                                                   {"high-city", 6.0}}) {
    for (int i = 0; i < 10; ++i) {
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

Cs2pConfig soak_config() {
  Cs2pConfig config;
  config.hmm.num_states = 2;
  config.hmm.max_iterations = 6;
  config.selector.min_cluster_size = 4;
  config.max_sequences_per_cluster = 16;
  config.max_global_sequences = 32;
  return config;
}

TEST(TrainerSoak, WorldShiftUnderContinuousTrainingDropsNothing) {
  auto engine = std::make_shared<Cs2pEngine>(soak_dataset(), soak_config());
  engine->warm_up();

  TrainerConfig trainer_config;
  trainer_config.reservoir_size = 24;
  trainer_config.min_new_sessions = 6;
  trainer_config.canary_margin = 0.01;
  trainer_config.horizon = 2;
  trainer_config.train_interval_ms = 20;
  trainer_config.probation_ms = 50;
  ContinuousTrainer trainer(engine, trainer_config);

  ServerConfig server_config;
  server_config.on_session_complete = [&trainer](CompletedSession&& done) {
    trainer.ingest(done.features, done.start_hour, done.observations);
  };

  PredictionServer server(std::make_shared<Cs2pPredictorModel>(engine),
                          server_config, 0);
  std::atomic<std::uint64_t> publishes{0};
  trainer.set_publish([&](const std::shared_ptr<const Cs2pEngine>& fresh,
                          const std::string& bytes) {
    if (bytes.empty()) return false;  // a torn snapshot must never publish
    server.swap_model(std::make_shared<Cs2pPredictorModel>(fresh));
    publishes.fetch_add(1, std::memory_order_relaxed);
    return true;
  });
  trainer.start();

  constexpr int kClients = 8;
  constexpr int kSessionsPerClient = 8;  // 64 sessions through the shift
  constexpr int kEpochs = 10;
  std::atomic<int> bad_replies{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        PredictionClient client(server.port());
        Rng rng(100 + c);
        for (int i = 0; i < kSessionsPerClient; ++i) {
          const std::string city = (c + i) % 2 == 0 ? "low-city" : "high-city";
          // World shift halfway through the soak: the served throughput
          // regime jumps ~6x, so completed sessions mark clusters dirty and
          // the trainer keeps retraining + swapping under this live load.
          const double level = i < kSessionsPerClient / 2
                                   ? (city == "low-city" ? 2.0 : 6.0)
                                   : (city == "low-city" ? 12.0 : 36.0);
          const auto session = client.hello(city_features(city), 12.0);
          if (!(session.initial_mbps >= 0.0)) ++bad_replies;
          for (int t = 0; t < kEpochs; ++t) {
            const double w = level * (1.0 + rng.uniform(-0.2, 0.2));
            const double forecast = client.observe(session.session_id, w);
            if (!std::isfinite(forecast) || forecast < 0.0) ++bad_replies;
          }
          const double ahead = client.predict(session.session_id, 2);
          if (!std::isfinite(ahead) || ahead < 0.0) ++bad_replies;
          client.bye(session.session_id);
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << "client " << c << " died: " << e.what();
      }
    });
  }
  for (auto& thread : clients) thread.join();

  // Every BYE handed its completion to the trainer before its reply, so
  // all 64 are ingested by now; run_once() after stop() is the
  // deterministic final training pass.
  trainer.stop();
  trainer.run_once();

  EXPECT_EQ(bad_replies.load(), 0) << "torn swap or invalid forecast";

  const TrainerStats stats = trainer.stats();
  EXPECT_EQ(stats.sessions_ingested, static_cast<std::uint64_t>(
                                         kClients * kSessionsPerClient))
      << "every completed session must reach the trainer";
  EXPECT_EQ(stats.sessions_dropped, 0u);
  // No guardrail sessions run in this soak, so the drift quorum can never
  // trip: every swap is a canary accept and rollbacks stay bounded at zero.
  EXPECT_EQ(stats.rollbacks, 0u);
  EXPECT_EQ(stats.generation, stats.canary_accepts + stats.rollbacks)
      << "lineage must advance exactly once per published swap";
  EXPECT_EQ(publishes.load(), stats.canary_accepts + stats.rollbacks);
  EXPECT_EQ(server.models_swapped(), publishes.load());

  // The soak's purpose: the shifted world actually forced retrains through
  // the canary gate while serving.
  EXPECT_GE(stats.retrains, 1u);
  EXPECT_GE(stats.canary_accepts, 1u);

  server.stop();
}

}  // namespace
}  // namespace cs2p
