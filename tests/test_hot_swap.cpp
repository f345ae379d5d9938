// Hot-swap retraining tests (net/server.h + core/engine.h): swapping the
// served model under live traffic must never drop a session, never dangle a
// predictor's engine references, and always route new sessions to the fresh
// model. The soak test runs under TSan in CI (ci.yml thread-sanitizer job).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "dataset/synthetic.h"
#include "net/client.h"
#include "net/server.h"

namespace cs2p {
namespace {

SyntheticConfig swap_world(std::uint64_t seed) {
  SyntheticConfig config;
  config.num_isps = 2;
  config.num_provinces = 2;
  config.cities_per_province = 2;
  config.num_servers = 3;
  config.prefixes_per_isp_city = 1;
  config.num_sessions = 600;
  config.seed = seed;
  return config;
}

Cs2pConfig fast_config() {
  Cs2pConfig config;
  config.hmm.num_states = 2;
  config.hmm.max_iterations = 6;
  config.selector.min_cluster_size = 8;
  config.max_sequences_per_cluster = 10;
  config.max_global_sequences = 60;
  return config;
}

std::shared_ptr<Cs2pPredictorModel> make_model(std::uint64_t seed) {
  auto [train, test] = SyntheticWorld(swap_world(seed)).generate().split_by_day(1);
  (void)test;
  return std::make_shared<Cs2pPredictorModel>(std::move(train), fast_config());
}

TEST(HotSwap, InFlightSessionPinsItsModelUntilRelease) {
  auto model_a = make_model(11);
  std::weak_ptr<Cs2pPredictorModel> alive_a = model_a;
  PredictionServer server(model_a, 0);
  PredictionClient client(server.port());

  const SessionFeatures features = model_a->engine().training().sessions()[0].features;
  const auto session = client.hello(features, 12.0);

  // Publish a successor and drop our own reference to the old model: the
  // in-flight session must keep it alive and keep answering on it.
  server.swap_model(make_model(22));
  model_a.reset();
  EXPECT_EQ(server.models_swapped(), 1u);
  EXPECT_FALSE(alive_a.expired()) << "session must pin its creating model";

  const double forecast = client.observe(session.session_id, 2.0);
  EXPECT_TRUE(std::isfinite(forecast));
  EXPECT_GT(forecast, 0.0);

  // Releasing the session releases the old model.
  client.bye(session.session_id);
  EXPECT_TRUE(alive_a.expired()) << "old model must be freed after BYE";

  // New sessions land on the fresh model without disruption.
  const auto session2 = client.hello(features, 12.0);
  EXPECT_GT(session2.initial_mbps, 0.0);
}

TEST(HotSwap, ConcurrentSwapSoakDropsNoSessions) {
  auto model_a = make_model(11);
  auto model_b = make_model(22);
  PredictionServer server(model_a, 0);

  // Feature tuples for the client threads, drawn from model A's world.
  std::vector<SessionFeatures> features;
  for (std::size_t i = 0; i < 8; ++i)
    features.push_back(
        model_a->engine().training().sessions()[i * 37].features);

  constexpr int kClients = 4;
  constexpr int kIterations = 40;
  std::atomic<int> failures{0};

  // Swapper: alternate the published model as fast as the server takes it.
  std::thread swapper([&] {
    for (int i = 0; i < 200; ++i) {
      server.swap_model(i % 2 == 0 ? model_b : model_a);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        PredictionClient client(server.port());
        for (int i = 0; i < kIterations; ++i) {
          const auto& f = features[(c + i) % features.size()];
          const auto session = client.hello(f, (c * 5.0 + i) / 2.0);
          if (!(session.initial_mbps >= 0.0)) ++failures;
          for (int o = 0; o < 3; ++o) {
            const double pred =
                client.observe(session.session_id, 1.0 + 0.25 * o);
            if (!std::isfinite(pred) || pred < 0.0) ++failures;
          }
          const double ahead = client.predict(session.session_id, 2);
          if (!std::isfinite(ahead) || ahead < 0.0) ++failures;
          client.bye(session.session_id);
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  swapper.join();

  EXPECT_EQ(failures.load(), 0) << "every request must succeed across swaps";
  EXPECT_EQ(server.models_swapped(), 200u);
  EXPECT_EQ(server.session_count(), 0u) << "all sessions released";
  EXPECT_GE(server.requests_handled(),
            static_cast<std::uint64_t>(kClients * kIterations * 6));
  server.stop();
}

TEST(HotSwap, SwapRejectsNullModel) {
  PredictionServer server(make_model(11), 0);
  EXPECT_THROW(server.swap_model(nullptr), std::invalid_argument);
  EXPECT_EQ(server.models_swapped(), 0u);
}

TEST(HotSwap, ModelDownloadUsesCurrentModel) {
  auto model_a = make_model(11);
  PredictionServer server(model_a, 0);
  PredictionClient client(server.port());

  const SessionFeatures features = model_a->engine().training().sessions()[0].features;
  const DownloadableModel before = client.download_model(features, 12.0);

  auto model_b = make_model(22);
  server.swap_model(model_b);
  const DownloadableModel after = client.download_model(features, 12.0);

  // The downloaded artifact now comes from engine B (identical bytes would
  // only happen if both engines trained the same model, which the disjoint
  // seeds rule out for the global HMM).
  EXPECT_NE(serialize_hmm(before.hmm), serialize_hmm(after.hmm));
}

}  // namespace
}  // namespace cs2p
