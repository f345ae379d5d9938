// Integration tests for the TCP prediction service (net/server.h, client.h,
// and replica_set.h as the session client of one server).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "dataset/synthetic.h"
#include "hmm/kernel.h"
#include "net/client.h"
#include "net/replica_set.h"
#include "net/server.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "predictors/hmm_session.h"
#include "predictors/predictor.h"
#include "worker_gate.h"

namespace cs2p {
namespace {

using testing_support::ParkedRoundTrip;
using testing_support::WorkerGate;

/// Deterministic in-process model: initial = 2.0, forecast = last + 1.
class EchoPlusOneModel final : public PredictorModel {
 public:
  std::string name() const override { return "EchoPlusOne"; }
  std::unique_ptr<SessionPredictor> make_session(const SessionContext&) const override {
    class S final : public SessionPredictor {
     public:
      std::optional<double> predict_initial() const override { return 2.0; }
      double predict(unsigned steps) const override {
        return last_ + static_cast<double>(steps);
      }
      void observe(double w) override { last_ = w; }

     private:
      double last_ = 0.0;
    };
    return std::make_unique<S>();
  }
};

SessionFeatures features() {
  return {"ISP0", "AS0", "P0", "C0", "S0", "Pfx0"};
}

/// HMM-backed model whose sessions share one SoA kernel — the serving tier's
/// arrangement (DESIGN.md §16).
class SharedKernelHmmModel final : public PredictorModel {
 public:
  SharedKernelHmmModel()
      : kernel_(HmmKernel::create(
            GaussianHmm{{0.6, 0.4},
                        Matrix{{0.9, 0.1}, {0.2, 0.8}},
                        {{1.0, 0.1}, {5.0, 0.5}}})) {}
  std::string name() const override { return "SharedKernelHmm"; }
  std::unique_ptr<SessionPredictor> make_session(
      const SessionContext&) const override {
    return std::make_unique<HmmSessionPredictor>(kernel_, 2.0);
  }

 private:
  std::shared_ptr<const HmmKernel> kernel_;
};

TEST(PredictionService, HelloObservePredictBye) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  PredictionClient client(server.port());

  const SessionResponse session = client.hello(features(), 10.0);
  EXPECT_GT(session.session_id, 0u);
  EXPECT_DOUBLE_EQ(session.initial_mbps, 2.0);

  EXPECT_DOUBLE_EQ(client.observe(session.session_id, 5.0), 6.0);
  EXPECT_DOUBLE_EQ(client.observe(session.session_id, 7.0), 8.0);
  EXPECT_DOUBLE_EQ(client.predict(session.session_id, 3), 10.0);
  EXPECT_NO_THROW(client.bye(session.session_id));
}

TEST(PredictionService, UnknownSessionIsAnError) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  PredictionClient client(server.port());
  EXPECT_THROW(client.observe(424242, 1.0), std::runtime_error);
  EXPECT_THROW(client.predict(424242, 1), std::runtime_error);
}

TEST(PredictionService, ByeInvalidatesSession) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  PredictionClient client(server.port());
  const SessionResponse session = client.hello(features(), 1.0);
  client.bye(session.session_id);
  EXPECT_THROW(client.observe(session.session_id, 1.0), std::runtime_error);
}

TEST(PredictionService, ZeroStepsAheadIsAnError) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  PredictionClient client(server.port());
  const SessionResponse session = client.hello(features(), 1.0);
  EXPECT_THROW(client.predict(session.session_id, 0), std::runtime_error);
}

TEST(PredictionService, MultipleSessionsAreIsolated) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  PredictionClient client(server.port());
  const auto a = client.hello(features(), 1.0);
  const auto b = client.hello(features(), 2.0);
  EXPECT_NE(a.session_id, b.session_id);
  client.observe(a.session_id, 10.0);
  client.observe(b.session_id, 20.0);
  EXPECT_DOUBLE_EQ(client.predict(a.session_id, 1), 11.0);
  EXPECT_DOUBLE_EQ(client.predict(b.session_id, 1), 21.0);
}

TEST(PredictionService, ConcurrentClients) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  constexpr int kClients = 8;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&server, &failures, c] {
      try {
        PredictionClient client(server.port());
        const auto session = client.hello(features(), static_cast<double>(c));
        for (int r = 0; r < kRounds; ++r) {
          const double forecast = client.observe(session.session_id, c + r);
          if (forecast != c + r + 1.0) ++failures;
        }
        client.bye(session.session_id);
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server.requests_handled(),
            static_cast<std::uint64_t>(kClients * (kRounds + 2)));
}

TEST(PredictionService, RemoteSessionPredictorAdapter) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  ReplicaSet set(std::vector<std::uint16_t>{server.port()});
  RemoteSessionPredictor predictor(set, features(), 9.0);
  EXPECT_DOUBLE_EQ(predictor.predict_initial().value(), 2.0);
  EXPECT_DOUBLE_EQ(predictor.predict(1), 2.0);  // cold: initial value
  predictor.observe(4.0);
  EXPECT_DOUBLE_EQ(predictor.predict(1), 5.0);   // cached from OBSERVE
  EXPECT_DOUBLE_EQ(predictor.predict(3), 7.0);   // extra round trip
}

TEST(PredictionService, ModelDownloadUnsupportedByGenericModel) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  PredictionClient client(server.port());
  EXPECT_THROW(client.download_model(features(), 1.0), std::runtime_error);
}

TEST(PredictionService, ServerStopsCleanly) {
  auto server = std::make_unique<PredictionServer>(
      std::make_shared<EchoPlusOneModel>());
  const std::uint16_t port = server->port();
  PredictionClient client(port);
  const auto session = client.hello(features(), 1.0);
  (void)session;
  server->stop();
  // A second stop must be harmless; destruction too.
  server->stop();
  server.reset();
  SUCCEED();
}

// stop() wakes the accept loop, which waits with no timeout: a stop() that
// failed to wake it would never return. The test waits for stop() on another
// thread and fails at a deadline instead of hanging the suite.
TEST(PredictionService, StopWakesTheIdleAcceptLoop) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  {
    PredictionClient client(server.port());
    (void)client.hello(features(), 1.0);  // the loop has accepted and waits again
  }
  std::promise<void> stopped;
  std::future<void> done = stopped.get_future();
  std::thread stopper([&] {
    server.stop();
    stopped.set_value();
  });
  if (done.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
    // The stuck stop() holds the server's stop lock, so neither joining it
    // nor the server's destructor would return: end the process, failed.
    std::fputs("StopWakesTheIdleAcceptLoop: stop() did not return within 5 s\n",
               stderr);
    std::_Exit(1);
  }
  stopper.join();
}

TEST(PredictionService, NullModelThrows) {
  EXPECT_THROW(PredictionServer(nullptr), std::invalid_argument);
}

// -- Robustness: validation, caps, timeouts, eviction -----------------------

TEST(PredictionService, InvalidSamplesRejectedWithTypedError) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  PredictionClient client(server.port());
  const auto session = client.hello(features(), 1.0);

  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -1.0,
                           1e9}) {
    try {
      client.observe(session.session_id, bad);
      FAIL() << "sample " << bad << " should have been rejected";
    } catch (const ServerError& e) {
      EXPECT_EQ(e.code(), WireErrorCode::kInvalidSample);
    }
  }
  // The predictor state was never touched: a good sample still works.
  EXPECT_DOUBLE_EQ(client.observe(session.session_id, 5.0), 6.0);
}

TEST(PredictionService, UnknownSessionCarriesTypedCode) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  PredictionClient client(server.port());
  try {
    client.observe(424242, 1.0);
    FAIL() << "expected UNKNOWN_SESSION";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kUnknownSession);
  }
}

TEST(PredictionService, ConnectionCapRejectsCleanly) {
  ServerConfig config;
  config.max_connections = 2;
  config.retry_after_ms = 321;
  PredictionServer server(std::make_shared<EchoPlusOneModel>(), config);

  PredictionClient a(server.port()), b(server.port()), c(server.port());
  const auto sa = a.hello(features(), 1.0);
  const auto sb = b.hello(features(), 2.0);
  try {
    c.hello(features(), 3.0);
    FAIL() << "expected OVERLOADED rejection";
  } catch (const ServerError& e) {
    // The cap is the only source of OVERLOADED, and it carries the hint
    // ReplicaSet backs off by.
    EXPECT_EQ(e.code(), WireErrorCode::kOverloaded);
    EXPECT_EQ(e.retry_after_ms(), 321u);
  }
  EXPECT_GE(server.connections_rejected(), 1u);
  // Existing connections are unaffected by the rejection.
  EXPECT_DOUBLE_EQ(a.observe(sa.session_id, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(b.observe(sb.session_id, 2.0), 3.0);
}

// The cap closes a refused connection right after its OVERLOADED reply, so
// the client drops that transport: its first call once a slot frees goes
// out on a fresh connection, with no retry or backoff spent on the dead one.
TEST(PredictionService, RefusedClientReconnectsWithoutARetry) {
  ServerConfig config;
  config.max_connections = 1;
  PredictionServer server(std::make_shared<EchoPlusOneModel>(), config);
  auto holder = std::make_unique<PredictionClient>(server.port());
  (void)holder->hello(features(), 1.0);
  PredictionClient refused(server.port());
  try {
    refused.hello(features(), 2.0);
    FAIL() << "expected OVERLOADED rejection";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kOverloaded);
  }

  holder.reset();  // its worker sees the close and frees the slot
  const obs::Gauge& active =
      server.metrics().gauge("cs2p_server_active_connections");
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (active.value() > 0.0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(active.value(), 0.0);

  const auto session = refused.hello(features(), 3.0);
  EXPECT_DOUBLE_EQ(refused.observe(session.session_id, 4.0), 5.0);
  EXPECT_EQ(refused.retries(), 0u);
  EXPECT_EQ(refused.overloaded_replies(), 1u);
}

TEST(PredictionService, IdleConnectionReclaimedAndClientReconnects) {
  ServerConfig config;
  config.idle_timeout_ms = 50;
  PredictionServer server(std::make_shared<EchoPlusOneModel>(), config);
  PredictionClient client(server.port());
  const auto session = client.hello(features(), 1.0);
  // Let the server reap the idle connection, then keep using the session:
  // the client reconnects transparently and the session table still holds
  // our state (idle timeout kills connections, not sessions).
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_DOUBLE_EQ(client.observe(session.session_id, 7.0), 8.0);
  EXPECT_GE(client.reconnects(), 1u);
}

TEST(PredictionService, AbandonedSessionsEvictedByTtl) {
  ServerConfig config;
  config.session_ttl_ms = 80;
  PredictionServer server(std::make_shared<EchoPlusOneModel>(), config);
  {
    PredictionClient client(server.port());
    (void)client.hello(features(), 1.0);
    EXPECT_EQ(server.session_count(), 1u);
    // Client vanishes without BYE.
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.session_count() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(server.session_count(), 0u);
  EXPECT_GE(server.sessions_evicted(), 1u);
}

TEST(PredictionService, ServerRestartHealsViaHelloReplay) {
  auto model = std::make_shared<EchoPlusOneModel>();
  auto server = std::make_unique<PredictionServer>(model);
  const std::uint16_t port = server->port();

  ReplicaSet set(std::vector<std::uint16_t>{port});
  const auto session = set.hello(features(), 1.0);
  EXPECT_DOUBLE_EQ(set.observe_response(session.session_id, 3.0).mbps, 4.0);

  // Restart the server on the same port: all session state is lost.
  server.reset();
  server = std::make_unique<PredictionServer>(model, port);

  // The connection reconnects and gets UNKNOWN_SESSION; the set replays
  // HELLO, and the original handle keeps working against the
  // re-established session.
  EXPECT_DOUBLE_EQ(set.observe_response(session.session_id, 5.0).mbps, 6.0);
  EXPECT_GE(set.failovers(), 1u);
  EXPECT_GE(set.replica_client(0).reconnects(), 1u);
}

// -- Serve-flags plumbing (protocol v2) --------------------------------------

/// Sessions degrade after observing a sample below 0.5 and recover above it;
/// while degraded they report the guardrail flag bits. Mirrors the shape of
/// GuardedSessionPredictor with a trivially controllable switch.
class SwitchableModel final : public PredictorModel {
 public:
  std::string name() const override { return "Switchable"; }
  std::unique_ptr<SessionPredictor> make_session(const SessionContext&) const override {
    class S final : public SessionPredictor {
     public:
      std::optional<double> predict_initial() const override { return 2.0; }
      double predict(unsigned) const override { return degraded_ ? 0.25 : last_; }
      void observe(double w) override {
        last_ = w;
        degraded_ = w < 0.5;
      }
      std::uint8_t serve_flags() const override {
        return degraded_ ? (serve_flags::kDegraded | serve_flags::kGuardrailTripped)
                         : serve_flags::kPrimary;
      }

     private:
      double last_ = 0.0;
      bool degraded_ = false;
    };
    return std::make_unique<S>();
  }
};

TEST(PredictionService, ServeFlagsTravelToClient) {
  PredictionServer server(std::make_shared<SwitchableModel>());
  PredictionClient client(server.port());
  const auto session = client.hello(features(), 1.0);

  // Healthy: PRED carries primary flags and the counter stays at zero.
  const PredictionResponse healthy = client.observe_response(session.session_id, 3.0);
  EXPECT_EQ(healthy.flags, serve_flags::kPrimary);
  EXPECT_EQ(server.degraded_replies(), 0u);

  // Degrade the session: the reply's flags explain the serving path and the
  // server counts the degraded reply.
  const PredictionResponse tripped = client.observe_response(session.session_id, 0.1);
  EXPECT_TRUE(tripped.flags & serve_flags::kDegraded);
  EXPECT_TRUE(tripped.flags & serve_flags::kGuardrailTripped);
  EXPECT_DOUBLE_EQ(tripped.mbps, 0.25);
  EXPECT_GE(server.degraded_replies(), 1u);

  const PredictionResponse direct = client.predict_response(session.session_id, 1);
  EXPECT_TRUE(direct.flags & serve_flags::kDegraded);

  // Recovery clears the flags again.
  const PredictionResponse recovered = client.observe_response(session.session_id, 4.0);
  EXPECT_EQ(recovered.flags, serve_flags::kPrimary);
}

// A CS2P session that no cluster claims says so in SESSION's global bit, and
// every PRED of it carries kGlobalModel: the same serving path on both
// replies, with the guardrail off or on. A clustered session answers 0 and
// primary flags.
TEST(PredictionService, GlobalModelSessionsSayItInSessionAndPred) {
  SyntheticConfig world;
  world.num_isps = 2;
  world.num_provinces = 2;
  world.cities_per_province = 2;
  world.num_servers = 3;
  world.prefixes_per_isp_city = 1;
  world.num_sessions = 600;
  world.seed = 29;
  auto [train, test] = SyntheticWorld(world).generate().split_by_day(1);
  Cs2pConfig config;
  config.hmm.num_states = 2;
  config.hmm.max_iterations = 6;
  config.selector.min_cluster_size = 8;
  config.max_sequences_per_cluster = 10;
  config.max_global_sequences = 60;
  const SessionFeatures unseen = {"ISP-x", "AS-x", "P-x", "C-x", "S-x", "Pfx-x"};
  for (const bool guardrail : {false, true}) {
    SCOPED_TRACE(guardrail ? "guardrail on" : "guardrail off");
    config.guardrail = guardrail;
    const auto model = std::make_shared<Cs2pPredictorModel>(train, config);
    const Session* clustered = nullptr;
    for (const Session& s : test.sessions()) {
      if (s.throughput_mbps.size() >= 2 &&
          !model->engine().session_model(s.features, s.start_hour).used_global_model) {
        clustered = &s;
        break;
      }
    }
    ASSERT_NE(clustered, nullptr);
    PredictionServer server(model);
    PredictionClient client(server.port());

    const SessionResponse global = client.hello(unseen, 12.0);
    EXPECT_TRUE(global.used_global_model);
    const PredictionResponse observed = client.observe_response(global.session_id, 2.0);
    EXPECT_EQ(observed.flags, serve_flags::kGlobalModel);
    EXPECT_EQ(client.predict_response(global.session_id, 3).flags,
              serve_flags::kGlobalModel);

    const SessionResponse primary =
        client.hello(clustered->features, clustered->start_hour);
    EXPECT_FALSE(primary.used_global_model);
    EXPECT_EQ(client.observe_response(primary.session_id, clustered->throughput_mbps[0])
                  .flags,
              serve_flags::kPrimary);
    EXPECT_EQ(client.predict_response(primary.session_id, 2).flags,
              serve_flags::kPrimary);
    EXPECT_EQ(server.degraded_replies(), 2u);  // the global session's two PREDs
  }
}

TEST(PredictionService, RemotePredictorSurfacesServerFlags) {
  PredictionServer server(std::make_shared<SwitchableModel>());
  ReplicaSet set(std::vector<std::uint16_t>{server.port()});
  RemoteSessionPredictor predictor(set, features(), 9.0);

  predictor.observe(3.0);
  EXPECT_EQ(predictor.serve_flags(), serve_flags::kPrimary);
  EXPECT_FALSE(predictor.degraded());

  // The server-side trip is visible through the adapter without any local
  // fault: the remote bits pass through verbatim.
  predictor.observe(0.1);
  EXPECT_TRUE(predictor.serve_flags() & serve_flags::kGuardrailTripped);
  EXPECT_TRUE(predictor.serve_flags() & serve_flags::kDegraded);
  EXPECT_FALSE(predictor.serve_flags() & serve_flags::kRemoteFallback);
  EXPECT_FALSE(predictor.degraded());  // the service itself is healthy
  EXPECT_EQ(predictor.last_server_flags(),
            serve_flags::kDegraded | serve_flags::kGuardrailTripped);

  predictor.observe(5.0);
  EXPECT_EQ(predictor.serve_flags(), serve_flags::kPrimary);
}

TEST(PredictionService, RemoteFallbackSetsLocalFlagBits) {
  auto server = std::make_unique<PredictionServer>(
      std::make_shared<SwitchableModel>());
  const std::uint16_t port = server->port();
  ReplicaSetConfig config;
  config.client.max_retries = 1;
  config.client.backoff_initial_ms = 1;
  ReplicaSet set(std::vector<std::uint16_t>{port}, config);
  RemoteSessionPredictor predictor(set, features(), 9.0);
  predictor.observe(3.0);

  // Kill the service entirely: the predictor degrades to its local fallback
  // and its flags say so (remote-fallback + degraded).
  server.reset();
  for (int i = 0; i < 10 && !predictor.degraded(); ++i) predictor.observe(3.0);
  ASSERT_TRUE(predictor.degraded());
  EXPECT_TRUE(predictor.serve_flags() & serve_flags::kRemoteFallback);
  EXPECT_TRUE(predictor.serve_flags() & serve_flags::kDegraded);
}

// -- Shutdown races ---------------------------------------------------------

TEST(PredictionService, StopWhileRequestsInFlight) {
  auto server = std::make_unique<PredictionServer>(
      std::make_shared<EchoPlusOneModel>());
  const std::uint16_t port = server->port();

  constexpr int kThreads = 4;
  std::atomic<int> escaped{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([port, &escaped] {
      try {
        ReplicaSetConfig config;
        config.client.max_retries = 1;
        config.client.backoff_initial_ms = 1;
        ReplicaSet set(std::vector<std::uint16_t>{port}, config);
        RemoteSessionPredictor predictor(set, features(), 1.0);
        for (int i = 0; i < 500; ++i) predictor.observe(1.0 + i % 7);
        // Either the whole run beat the shutdown, or the predictor degraded
        // to its local fallback — never an exception into this loop.
      } catch (const std::exception&) {
        ++escaped;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server->stop();
  for (auto& t : threads) t.join();
  EXPECT_EQ(escaped.load(), 0);
}

TEST(PredictionService, ConcurrentStopCallers) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  PredictionClient client(server.port());
  (void)client.hello(features(), 1.0);
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i)
    stoppers.emplace_back([&server] { server.stop(); });
  for (auto& t : stoppers) t.join();
  SUCCEED();
}

TEST(PredictionService, DestructorDuringAccept) {
  auto model = std::make_shared<EchoPlusOneModel>();
  for (int i = 0; i < 10; ++i) {
    PredictionServer server(model);
    // Destroyed immediately, possibly before the accept loop first polls.
  }
  SUCCEED();
}

// -- STATS verb (protocol v3) -------------------------------------------------

/// Value of the series rendered exactly as `key` in the exposition, or NaN.
double series_value(const std::string& exposition, const std::string& key) {
  std::size_t pos = 0;
  while (pos < exposition.size()) {
    std::size_t end = exposition.find('\n', pos);
    if (end == std::string::npos) end = exposition.size();
    const std::string line = exposition.substr(pos, end - pos);
    pos = end + 1;
    if (line.size() > key.size() + 1 && line.compare(0, key.size(), key) == 0 &&
        line[key.size()] == ' ')
      return std::stod(line.substr(key.size() + 1));
  }
  return std::numeric_limits<double>::quiet_NaN();
}

TEST(PredictionService, StatsVerbScrapesLiveRegistry) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  PredictionClient client(server.port());

  const auto session = client.hello(features(), 1.0);
  client.observe(session.session_id, 3.0);
  client.predict(session.session_id, 1);

  const StatsResponse stats = client.stats();
  EXPECT_EQ(stats.exposition_version, obs::kMetricsExpositionVersion);
  EXPECT_TRUE(stats.exposition.starts_with("# cs2p_metrics_version"));

  const double requests =
      series_value(stats.exposition, "cs2p_server_requests_total");
  const double replies =
      series_value(stats.exposition, "cs2p_server_replies_total");
  ASSERT_FALSE(std::isnan(requests));
  ASSERT_FALSE(std::isnan(replies));
  // hello + observe + predict + the STATS request itself.
  EXPECT_GE(requests, 4.0);
  // The STATS request is counted before its reply is sent, so the scrape
  // itself proves the invariant strictly.
  EXPECT_GT(requests, replies);
  EXPECT_GE(replies, 3.0);

  // Per-verb counters saw the session lifecycle.
  EXPECT_EQ(series_value(stats.exposition,
                         "cs2p_server_verb_requests_total{verb=\"hello\"}"),
            1.0);
  EXPECT_EQ(series_value(stats.exposition,
                         "cs2p_server_verb_requests_total{verb=\"stats\"}"),
            1.0);
  // The session is still open; the gauge is refreshed at scrape time.
  EXPECT_EQ(series_value(stats.exposition, "cs2p_server_live_sessions"), 1.0);

  client.bye(session.session_id);
  const StatsResponse after = client.stats();
  EXPECT_EQ(series_value(after.exposition, "cs2p_server_live_sessions"), 0.0);
  // Counters are cumulative: the second scrape can only move forward.
  EXPECT_GT(series_value(after.exposition, "cs2p_server_requests_total"),
            requests);
}

// OBSERVE/PREDICT on HMM sessions are served by each session's own filter on
// the shared kernel: replies are the MLE-state means of Algorithm 1 (the
// initial value before any observation, P^tau propagation for longer
// horizons).
TEST(PredictionService, HmmSessionsServeMleForecastsThroughLaneExecutor) {
  PredictionServer server(std::make_shared<SharedKernelHmmModel>());
  PredictionClient client(server.port());
  const auto a = client.hello(features(), 0.0);
  const auto b = client.hello(features(), 0.0);
  EXPECT_DOUBLE_EQ(client.predict(a.session_id, 1), 2.0);    // cold start
  EXPECT_DOUBLE_EQ(client.observe(a.session_id, 1.0), 1.0);  // MLE state 0
  EXPECT_DOUBLE_EQ(client.observe(b.session_id, 5.0), 5.0);  // MLE state 1
  EXPECT_DOUBLE_EQ(client.predict(a.session_id, 1), 1.0);
  // From state 1, P^3 still favours state 1 (0.562) and P^4 tips to
  // state 0 (0.5066).
  EXPECT_DOUBLE_EQ(client.predict(b.session_id, 3), 5.0);
  EXPECT_DOUBLE_EQ(client.predict(b.session_id, 4), 1.0);
  client.bye(a.session_id);
  client.bye(b.session_id);
}

TEST(PredictionService, StatsScrapeCountsDegradedReplies) {
  PredictionServer server(std::make_shared<SwitchableModel>());
  PredictionClient client(server.port());
  const auto session = client.hello(features(), 1.0);
  (void)client.observe_response(session.session_id, 0.1);  // trips the guardrail

  const StatsResponse stats = client.stats();
  EXPECT_GE(
      series_value(stats.exposition, "cs2p_server_degraded_replies_total"),
      1.0);
  // Registry and legacy accessor read the same counter.
  EXPECT_EQ(
      series_value(stats.exposition, "cs2p_server_degraded_replies_total"),
      static_cast<double>(server.degraded_replies()));
  // Request latencies landed in the histogram (hello + observe; the STATS
  // request's own latency is only observed after its reply is sent).
  EXPECT_GE(series_value(stats.exposition,
                         "cs2p_server_request_seconds_count"),
            2.0);
}

TEST(PredictionService, StatsInvariantHoldsUnderConcurrentScrapes) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  constexpr int kWorkers = 4;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> workers;
  for (int c = 0; c < kWorkers; ++c) {
    workers.emplace_back([&server, &failures, c] {
      try {
        PredictionClient client(server.port());
        const auto session = client.hello(features(), static_cast<double>(c));
        for (int r = 0; r < 100; ++r)
          client.observe(session.session_id, 1.0 + r % 5);
        client.bye(session.session_id);
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }

  std::thread scraper([&server, &done, &failures] {
    try {
      PredictionClient client(server.port());
      while (!done.load(std::memory_order_relaxed)) {
        const StatsResponse stats = client.stats();
        const double requests =
            series_value(stats.exposition, "cs2p_server_requests_total");
        const double replies =
            series_value(stats.exposition, "cs2p_server_replies_total");
        // A reply can never outrun its request, no matter when we look.
        if (!(requests >= replies)) ++failures;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    } catch (const std::exception&) {
      ++failures;
    }
  });

  for (auto& t : workers) t.join();
  done.store(true, std::memory_order_relaxed);
  scraper.join();
  EXPECT_EQ(failures.load(), 0);
}

// -- Sharded serving core: worker pool + session migration --------------------

/// Live thread count of this process (the "Threads:" row of
/// /proc/self/status); 0 if unreadable.
std::size_t process_thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0)
      return std::stoul(line.substr(sizeof("Threads:") - 1));
  }
  return 0;
}

// The tests below speak the wire protocol over raw transports, frame by
// frame: they read ERR replies as replies rather than exceptions, and
// several park or pipeline frames in flight, which PredictionClient's one
// round trip per call cannot do.
std::unique_ptr<Transport> raw_connection(std::uint16_t port) {
  return loopback_connector(port, TransportDeadlines{2'000, 2'000})();
}

Response raw_round_trip(Transport& transport, const Request& request) {
  send_frame(transport, serialize_request(request));
  const auto frame = recv_frame(transport);
  if (!frame) throw ConnectionError("server closed connection");
  return parse_response(*frame);
}

// The connection speaks the server's own session ids and never heals a
// session: after a restart the lost session surfaces as UNKNOWN_SESSION and
// no HELLO is replayed behind the caller's back (that is ReplicaSet's job).
TEST(PredictionService, ClientSpeaksServerIdsAndNeverReplaysHello) {
  auto model = std::make_shared<EchoPlusOneModel>();
  auto server = std::make_unique<PredictionServer>(model);
  const std::uint16_t port = server->port();
  PredictionClient client(port);
  const SessionResponse session = client.hello(features(), 1.0);

  // The returned id is the server's: another connection can address it.
  const auto raw = raw_connection(port);
  const Response obs = raw_round_trip(*raw, ObserveRequest{session.session_id, 5.0});
  const auto* forecast = std::get_if<PredictionResponse>(&obs);
  ASSERT_NE(forecast, nullptr);
  EXPECT_DOUBLE_EQ(forecast->mbps, 6.0);

  server.reset();
  server = std::make_unique<PredictionServer>(model, port);
  try {
    client.observe(session.session_id, 5.0);
    FAIL() << "expected UNKNOWN_SESSION after the restart";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kUnknownSession);
  }
  EXPECT_EQ(series_value(server->metrics().scrape(),
                         "cs2p_server_verb_requests_total{verb=\"hello\"}"),
            0.0);
}

// Sessions are addressed by id, not by connection: a session opened on one
// connection is fully usable — and closable — from any other.
TEST(PredictionService, SessionMigratesAcrossConnections) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  const auto a = raw_connection(server.port());
  const auto b = raw_connection(server.port());
  const auto c = raw_connection(server.port());

  const Response hello = raw_round_trip(*a, HelloRequest{features(), 1.0});
  const auto* session = std::get_if<SessionResponse>(&hello);
  ASSERT_NE(session, nullptr);
  const std::uint64_t id = session->session_id;

  const Response obs = raw_round_trip(*b, ObserveRequest{id, 5.0});
  const auto* forecast = std::get_if<PredictionResponse>(&obs);
  ASSERT_NE(forecast, nullptr);
  EXPECT_DOUBLE_EQ(forecast->mbps, 6.0);

  const Response pred = raw_round_trip(*c, PredictRequest{id, 3});
  const auto* direct = std::get_if<PredictionResponse>(&pred);
  ASSERT_NE(direct, nullptr);
  EXPECT_DOUBLE_EQ(direct->mbps, 8.0);

  // BYE from a fourth connection invalidates the session everywhere.
  const auto d = raw_connection(server.port());
  EXPECT_TRUE(std::holds_alternative<OkResponse>(
      raw_round_trip(*d, ByeRequest{id})));
  const Response gone = raw_round_trip(*a, ObserveRequest{id, 1.0});
  const auto* err = std::get_if<ErrorResponse>(&gone);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, WireErrorCode::kUnknownSession);
}

// The horizon is a u32 field, so a wider one cannot be sent; a PREDICT
// record with a u64 horizon is the wrong size, refused at parse rather than
// read as its first four bytes: the request answers BAD_REQUEST and the
// connection keeps serving.
TEST(PredictionService, WrongSizePredictRecordIsBadRequest) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  const auto conn = raw_connection(server.port());
  const Response hello = raw_round_trip(*conn, HelloRequest{features(), 1.0});
  const std::uint64_t id = std::get<SessionResponse>(hello).session_id;
  // Horizon 1 followed by four more bytes: the u64 horizon 4294967297.
  send_frame(*conn, serialize_request(PredictRequest{id, 1}) + std::string("\0\0\0\x01", 4));
  const auto frame = recv_frame(*conn);
  ASSERT_TRUE(frame.has_value());
  const Response reply = parse_response(*frame);
  const auto* err = std::get_if<ErrorResponse>(&reply);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, WireErrorCode::kBadRequest);
  const Response ok = raw_round_trip(*conn, PredictRequest{id, 1});
  EXPECT_DOUBLE_EQ(std::get<PredictionResponse>(ok).mbps, 1.0);
}

// Over-long frames are refused whole and the connection keeps serving: 60 KB
// of 30,000 one-letter tokens stops at the tokenizer's bound, and a 64 KB
// one-token frame gets an error reply that still fits a frame.
TEST(PredictionService, OverlongFramesAnswerBadRequestAndConnectionServes) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  const auto conn = raw_connection(server.port());
  const Response hello = raw_round_trip(*conn, HelloRequest{features(), 1.0});
  const std::uint64_t id = std::get<SessionResponse>(hello).session_id;
  std::string tokens = "a";
  for (int k = 1; k < 30'000; ++k) tokens += " a";
  for (const std::string& payload : {tokens, std::string(kMaxFrameBytes, 'X')}) {
    send_frame(*conn, payload);
    const auto frame = recv_frame(*conn);
    ASSERT_TRUE(frame.has_value()) << "EOF instead of a reply";
    const Response reply = parse_response(*frame);
    const auto* err = std::get_if<ErrorResponse>(&reply);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, WireErrorCode::kBadRequest);
    const Response ok = raw_round_trip(*conn, ObserveRequest{id, 5.0});
    EXPECT_DOUBLE_EQ(std::get<PredictionResponse>(ok).mbps, 6.0);
  }
}

// MODEL refuses a start hour that is not finite, as HELLO does, before the
// model is asked for a download.
TEST(PredictionService, ModelRejectsNonFiniteStartHour) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  const auto conn = raw_connection(server.port());
  for (const double hour : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
    const Response reply = raw_round_trip(*conn, ModelRequest{features(), hour});
    const auto* err = std::get_if<ErrorResponse>(&reply);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, WireErrorCode::kBadRequest);
    EXPECT_EQ(err->message, "start_hour must be finite");
  }
}

/// Order-sensitive sessions: state folds every sample (s = s/2 + w) and the
/// forecast is s + steps, so a reply pins the state and any reordering of a
/// session's observations shows in its replies. A session opened at
/// start_hour >= 99 is a gate instead: its OBSERVE parks the serving worker
/// until the test opens the gate. One opened at start_hour 50 throws from
/// predict().
class FoldingGateModel final : public PredictorModel {
 public:
  std::string name() const override { return "FoldingGate"; }
  std::unique_ptr<SessionPredictor> make_session(
      const SessionContext& context) const override {
    class Folding final : public SessionPredictor {
     public:
      std::optional<double> predict_initial() const override { return 0.0; }
      double predict(unsigned steps) const override {
        return state_ + static_cast<double>(steps);
      }
      void observe(double w) override { state_ = state_ / 2.0 + w; }

     private:
      double state_ = 0.0;
    };
    class Gated final : public SessionPredictor {
     public:
      explicit Gated(std::shared_ptr<WorkerGate> gate) : gate_(std::move(gate)) {}
      double predict(unsigned) const override { return 0.0; }
      void observe(double) override { gate_->park(); }

     private:
      std::shared_ptr<WorkerGate> gate_;
    };
    class Throwing final : public SessionPredictor {
     public:
      double predict(unsigned) const override {
        throw std::runtime_error("predictor failed");
      }
      void observe(double) override {}
    };
    if (context.start_hour >= 99.0) return std::make_unique<Gated>(gate_);
    if (context.start_hour == 50.0) return std::make_unique<Throwing>();
    return std::make_unique<Folding>();
  }

  WorkerGate& gate() const { return *gate_; }

 private:
  std::shared_ptr<WorkerGate> gate_ = std::make_shared<WorkerGate>();
};

// One session driven from two connections at once: each pipelines 16
// frames, and both pipelines reach the worker in the same poll wakeup, so
// every sweep of the pass serves a frame of each for the same session. The
// 32 replies must match one interleaving that keeps each connection's
// order, found by a DP over the 17x17 grid of (A frames applied, B frames
// applied) that replays candidate interleavings through make_session. A
// sends OBSERVEs. So does B, and on the second run B's pipeline ends in
// BYE: A's replies are then forecasts up to the BYE and UNKNOWN_SESSION
// after it, and B's last reply is OK. A server that served a pass's
// lifecycle frames ahead of its OBSERVEs would answer B's own OBSERVEs
// UNKNOWN_SESSION.
TEST(PredictionService, DuplicateSessionFramesApplyInOneConnectionOrderInterleaving) {
  constexpr std::size_t kFrames = 16;
  auto model = std::make_shared<FoldingGateModel>();
  ServerConfig config;
  config.io_threads = 1;  // every connection shares the one worker's passes
  PredictionServer server(model, config);

  const auto control = raw_connection(server.port());
  const auto session_of = [&](double start_hour) {
    const Response hello =
        raw_round_trip(*control, HelloRequest{features(), start_hour});
    return std::get<SessionResponse>(hello).session_id;
  };
  const std::uint64_t gate_id = session_of(99.0);
  const auto a = raw_connection(server.port());
  const auto b = raw_connection(server.port());

  // A pipeline frame: an OBSERVE of the value, or a BYE when empty.
  using Pipeline = std::vector<std::optional<double>>;
  // A reply as the DP compares it: PRED with its forecast, OK, or the code
  // of an ERR.
  using Reply = std::pair<std::string_view, double>;
  const auto replies = [](Transport& transport) {
    std::vector<Reply> out;
    for (std::size_t k = 0; k < kFrames; ++k) {
      const auto frame = recv_frame(transport);
      if (!frame) throw ConnectionError("server closed connection");
      const Response response = parse_response(*frame);
      if (const auto* pred = std::get_if<PredictionResponse>(&response))
        out.emplace_back("PRED", pred->mbps);
      else if (const auto* err = std::get_if<ErrorResponse>(&response))
        out.emplace_back(wire_error_code_name(err->code), 0.0);
      else
        out.emplace_back("OK", 0.0);
    }
    return out;
  };

  for (const bool b_ends_in_bye : {false, true}) {
    const std::uint64_t id = session_of(0.0);
    Pipeline a_frames, b_frames;
    for (std::size_t k = 0; k < kFrames; ++k) {
      a_frames.push_back(1.0 + static_cast<double>(k));
      b_frames.push_back(100.0 + static_cast<double>(k));
    }
    if (b_ends_in_bye) b_frames.back().reset();
    const auto encode = [id](const Pipeline& frames) {
      std::string bytes;
      for (const std::optional<double>& w : frames)
        bytes += encode_frame(serialize_request(
            w ? Request{ObserveRequest{id, *w}} : Request{ByeRequest{id}}));
      return bytes;
    };
    const std::string a_bytes = encode(a_frames);
    const std::string b_bytes = encode(b_frames);

    // Park the worker inside a pass, queue both pipelines behind it, then
    // release: the next wakeup reads both connections at once.
    ParkedRoundTrip parked(model->gate(), [&] {
      std::get<PredictionResponse>(
          raw_round_trip(*control, ObserveRequest{gate_id, 1.0}));
    });
    ASSERT_TRUE(parked.entered());
    a->send(std::as_bytes(std::span(a_bytes.data(), a_bytes.size())));
    b->send(std::as_bytes(std::span(b_bytes.data(), b_bytes.size())));
    ASSERT_TRUE(parked.release());
    const std::vector<Reply> a_replies = replies(*a);
    const std::vector<Reply> b_replies = replies(*b);

    // The reply to the last move of the interleaving `moves` ('a'/'b').
    const auto replay = [&](const std::string& moves) {
      const auto predictor = model->make_session(SessionContext{});
      bool live = true;
      Reply reply;
      std::size_t i = 0, j = 0;
      for (const char move : moves) {
        const std::optional<double>& w = move == 'a' ? a_frames[i++] : b_frames[j++];
        if (!w) {
          live = false;
          reply = {"OK", 0.0};
        } else if (!live) {
          reply = {wire_error_code_name(WireErrorCode::kUnknownSession), 0.0};
        } else {
          predictor->observe(*w);
          reply = {"PRED", predictor->predict(1)};
        }
      }
      return reply;
    };
    // reached[i][j]: interleavings of i A frames and j B frames whose every
    // reply matched. A matched reply pins the state (a forecast pins the
    // fold, anything else means the session is gone), so one witness per
    // last mover covers every interleaving ending at (i, j).
    std::vector<std::vector<std::vector<std::string>>> reached(
        kFrames + 1, std::vector<std::vector<std::string>>(kFrames + 1));
    reached[0][0].push_back("");
    const auto extend = [&](std::size_t i, std::size_t j, const std::string& moves) {
      if (std::none_of(reached[i][j].begin(), reached[i][j].end(),
                       [&](const std::string& w) { return w.back() == moves.back(); }))
        reached[i][j].push_back(moves);
    };
    for (std::size_t i = 0; i <= kFrames; ++i) {
      for (std::size_t j = 0; j <= kFrames; ++j) {
        for (const std::string& moves : reached[i][j]) {
          if (i < kFrames && replay(moves + 'a') == a_replies[i])
            extend(i + 1, j, moves + 'a');
          if (j < kFrames && replay(moves + 'b') == b_replies[j])
            extend(i, j + 1, moves + 'b');
        }
      }
    }
    ASSERT_FALSE(reached[kFrames][kFrames].empty())
        << "the replies match no interleaving that keeps each connection's order"
        << (b_ends_in_bye ? " (B ends in BYE)" : "");
    // The pipelines really shared sweeps: the witness is no concatenation.
    const std::string& witness = reached[kFrames][kFrames].front();
    std::size_t switches = 0;
    for (std::size_t k = 1; k < witness.size(); ++k)
      switches += witness[k] != witness[k - 1];
    EXPECT_GT(switches, 1u) << witness;
    if (b_ends_in_bye) {
      EXPECT_EQ(b_replies.back(), Reply("OK", 0.0));
      const auto gone = std::find_if(a_replies.begin(), a_replies.end(),
                                     [](const Reply& r) { return r.first != "PRED"; });
      EXPECT_TRUE(std::all_of(gone, a_replies.end(), [](const Reply& r) {
        return r.first == "UNKNOWN_SESSION";
      })) << "A's replies after the BYE must all be UNKNOWN_SESSION";
    }
  }
}

// Replies queue for the whole event-loop pass and each connection is flushed
// once when its sweeps run dry: 32 pipelined OBSERVEs read in one wakeup
// take 32 sweeps and leave in one send, in order. The sends counted over
// the burst are the gate's reply and that one flush.
TEST(PredictionService, PipelinedBurstLeavesInOneSend) {
  constexpr int kFrames = 32;
  auto model = std::make_shared<FoldingGateModel>();
  ServerConfig config;
  config.io_threads = 1;  // every connection shares the one worker's passes
  PredictionServer server(model, config);

  const auto control = raw_connection(server.port());
  const auto session_of = [&](double start_hour) {
    const Response hello =
        raw_round_trip(*control, HelloRequest{features(), start_hour});
    return std::get<SessionResponse>(hello).session_id;
  };
  const std::uint64_t id = session_of(0.0);
  const std::uint64_t gate_id = session_of(99.0);
  const auto burst = raw_connection(server.port());

  std::vector<double> values;
  std::string bytes;
  for (int k = 0; k < kFrames; ++k) {
    values.push_back(1.0 + k);
    bytes += encode_frame(serialize_request(ObserveRequest{id, values.back()}));
  }

  // Park the worker inside a pass, queue the whole burst behind it in one
  // send, then release: the next wakeup reads all 32 frames at once.
  const obs::Counter& sends =
      server.metrics().counter("cs2p_server_send_calls_total");
  ParkedRoundTrip parked(model->gate(), [&] {
    std::get<PredictionResponse>(
        raw_round_trip(*control, ObserveRequest{gate_id, 1.0}));
  });
  ASSERT_TRUE(parked.entered());
  const std::uint64_t sends_before = sends.value();
  burst->send(std::as_bytes(std::span(bytes.data(), bytes.size())));
  ASSERT_TRUE(parked.release());

  const auto replay = model->make_session(SessionContext{});
  for (int k = 0; k < kFrames; ++k) {
    const auto frame = recv_frame(*burst);
    ASSERT_TRUE(frame.has_value()) << "EOF after " << k << " replies";
    replay->observe(values[static_cast<std::size_t>(k)]);
    EXPECT_DOUBLE_EQ(std::get<PredictionResponse>(parse_response(*frame)).mbps,
                     replay->predict(1))
        << "reply " << k;
  }
  // The worker counts a send before issuing it, so the replies above prove
  // at least one; a counter read before the worker's last increment lands
  // reads lower, so the upper bound holds whenever it is read.
  EXPECT_GE(sends.value() - sends_before, 1u);
  EXPECT_LE(sends.value() - sends_before, 2u);
}

// A frame with a bad header desyncs the stream and the connection is
// dropped, but the frames pipelined before it are still answered: their
// replies leave before the close.
TEST(PredictionService, RepliesBeforeADesyncedFrameStillLeave) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  const auto conn = raw_connection(server.port());
  const std::uint64_t id =
      std::get<SessionResponse>(raw_round_trip(*conn, HelloRequest{features(), 1.0}))
          .session_id;
  std::string bytes = encode_frame(serialize_request(ObserveRequest{id, 5.0}));
  std::string bad = encode_frame(serialize_request(PredictRequest{id, 1}));
  bad[0] = static_cast<char>(kProtocolVersion + 1);
  bytes += bad;
  conn->send(std::as_bytes(std::span(bytes.data(), bytes.size())));

  const auto frame = recv_frame(*conn);
  ASSERT_TRUE(frame.has_value()) << "EOF before the OBSERVE's reply";
  EXPECT_DOUBLE_EQ(std::get<PredictionResponse>(parse_response(*frame)).mbps, 6.0);
  EXPECT_FALSE(recv_frame(*conn).has_value());
}

// With a trace log configured, every reply's record carries its frame's
// stage fields, and send_us is what is left of the request time: a stage
// attributed more than the request took floors it at 0, never wraps it.
TEST(PredictionService, TracedRepliesCarryStageFields) {
  const std::string path = ::testing::TempDir() + "/cs2p_server_trace.jsonl";
  std::remove(path.c_str());
  ServerConfig config;
  config.trace = std::make_shared<obs::TraceLog>(obs::TraceLog::Config{path, 1.0});
  {
    PredictionServer server(std::make_shared<EchoPlusOneModel>(), config);
    PredictionClient client(server.port());
    const SessionResponse session = client.hello(features(), 1.0);
    for (int k = 0; k < 8; ++k) client.observe(session.session_id, 1.0 + k);
    client.predict(session.session_id, 3);
    client.bye(session.session_id);
  }  // stopped: every record is emitted
  config.trace->flush();

  std::ifstream in(path);
  std::string line;
  std::size_t records = 0;
  while (std::getline(in, line)) {
    ++records;
    for (const std::string field : {"parse_us", "handle_us", "send_us"}) {
      const std::size_t at = line.find("\"" + field + "\":");
      ASSERT_NE(at, std::string::npos) << field << " missing: " << line;
      const double us = std::strtod(line.c_str() + at + field.size() + 3, nullptr);
      EXPECT_LT(us, 60e6) << field << " in " << line;
    }
  }
  EXPECT_EQ(records, 11u);  // hello, 8 observes, predict, bye
}

// A pipeline dribbled one byte per send splits headers and bodies across
// reads and passes, so frames are parsed where they lie in a read buffer that
// is compacted between passes. Its replies must equal those of the same
// pipeline sent whole for a twin session.
TEST(PredictionService, ByteDribbledPipelineIsServedInOrder) {
  constexpr int kFrames = 32;
  PredictionServer server(std::make_shared<FoldingGateModel>());
  const auto control = raw_connection(server.port());
  const auto session = [&] {
    const Response hello = raw_round_trip(*control, HelloRequest{features(), 0.0});
    return std::get<SessionResponse>(hello).session_id;
  };
  const std::uint64_t dribbled = session();
  const std::uint64_t whole = session();
  const auto pipeline = [](std::uint64_t id) {
    std::string bytes;
    for (int k = 0; k < kFrames; ++k) {
      const Request request =
          k % 2 == 0 ? Request{ObserveRequest{id, 1.0 + k}}
                     : Request{PredictRequest{id, 1u + static_cast<unsigned>(k % 5)}};
      bytes += encode_frame(serialize_request(request));
    }
    return bytes;
  };
  const auto replies = [](Transport& transport) {
    std::vector<std::string> out;
    for (int k = 0; k < kFrames; ++k) {
      auto frame = recv_frame(transport);
      if (!frame) throw ConnectionError("server closed connection");
      out.push_back(std::move(*frame));
    }
    return out;
  };

  const auto a = raw_connection(server.port());
  const std::string bytes = pipeline(dribbled);
  for (const char& byte : bytes) a->send(std::as_bytes(std::span(&byte, 1)));
  const std::vector<std::string> dribbled_replies = replies(*a);

  const auto b = raw_connection(server.port());
  const std::string whole_bytes = pipeline(whole);
  b->send(std::as_bytes(std::span(whole_bytes.data(), whole_bytes.size())));
  const std::vector<std::string> whole_replies = replies(*b);

  EXPECT_EQ(dribbled_replies, whole_replies);
  EXPECT_TRUE(std::holds_alternative<PredictionResponse>(
      parse_response(dribbled_replies.back())));
}

// A pass serving a PREDICT for a session whose predict() throws and a
// PREDICT for a healthy session, each from its own connection: the broken
// frame answers INTERNAL, the healthy one its normal forecast, and both
// connections keep serving. The two frames swap connections for a second
// pass, so the broken frame comes first in one of the two passes whatever
// order the worker visits its connections in.
TEST(PredictionService, ThrowingPredictorFailsOnlyItsOwnLane) {
  auto model = std::make_shared<FoldingGateModel>();
  ServerConfig config;
  config.io_threads = 1;  // every connection shares the one worker's passes
  PredictionServer server(model, config);

  const auto control = raw_connection(server.port());
  const auto session_of = [&](double start_hour) {
    const Response hello =
        raw_round_trip(*control, HelloRequest{features(), start_hour});
    return std::get<SessionResponse>(hello).session_id;
  };
  const std::uint64_t healthy = session_of(0.0);
  const std::uint64_t broken = session_of(50.0);
  const std::uint64_t gate_id = session_of(99.0);
  const auto a = raw_connection(server.port());
  const auto b = raw_connection(server.port());
  const auto forecast = [](const Response& response) {
    return std::get<PredictionResponse>(response).mbps;
  };
  // One round trip each, so the worker owns both connections before it parks.
  EXPECT_DOUBLE_EQ(forecast(raw_round_trip(*a, PredictRequest{healthy, 1})), 1.0);
  EXPECT_DOUBLE_EQ(forecast(raw_round_trip(*b, PredictRequest{healthy, 1})), 1.0);

  for (const bool broken_on_a : {true, false}) {
    Transport& to_broken = broken_on_a ? *a : *b;
    Transport& to_healthy = broken_on_a ? *b : *a;

    // Park the worker inside a pass, queue one frame on each connection
    // behind it, then release: the next wakeup reads both into one pass.
    ParkedRoundTrip parked(model->gate(), [&] {
      std::get<PredictionResponse>(
          raw_round_trip(*control, ObserveRequest{gate_id, 1.0}));
    });
    ASSERT_TRUE(parked.entered());
    send_frame(to_broken, serialize_request(PredictRequest{broken, 1}));
    send_frame(to_healthy, serialize_request(PredictRequest{healthy, 2}));
    ASSERT_TRUE(parked.release());

    const auto broken_frame = recv_frame(to_broken);
    const auto healthy_frame = recv_frame(to_healthy);
    ASSERT_TRUE(broken_frame && healthy_frame);
    const Response failed = parse_response(*broken_frame);
    const auto* err = std::get_if<ErrorResponse>(&failed);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, WireErrorCode::kInternal);
    EXPECT_DOUBLE_EQ(forecast(parse_response(*healthy_frame)), 2.0);

    EXPECT_DOUBLE_EQ(forecast(raw_round_trip(*a, PredictRequest{healthy, 3})), 3.0);
    EXPECT_DOUBLE_EQ(forecast(raw_round_trip(*b, PredictRequest{healthy, 4})), 4.0);
  }
}

// A migrated session keeps the model that created it even when the server
// hot-swaps mid-lifetime (the table entry pins the owner); new sessions pick
// up the new model.
TEST(PredictionService, MigratedSessionSurvivesModelSwap) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  const auto a = raw_connection(server.port());
  const Response hello = raw_round_trip(*a, HelloRequest{features(), 1.0});
  const std::uint64_t id = std::get<SessionResponse>(hello).session_id;

  server.swap_model(std::make_shared<SwitchableModel>());

  // EchoPlusOne semantics (last + 1) persist for the pinned session, even
  // when touched from a fresh connection after the swap.
  const auto b = raw_connection(server.port());
  const Response obs = raw_round_trip(*b, ObserveRequest{id, 5.0});
  EXPECT_DOUBLE_EQ(std::get<PredictionResponse>(obs).mbps, 6.0);

  // Switchable semantics (predict == last) apply to sessions born after.
  const Response fresh_hello = raw_round_trip(*b, HelloRequest{features(), 1.0});
  const std::uint64_t fresh = std::get<SessionResponse>(fresh_hello).session_id;
  EXPECT_NE(fresh, id);
  const Response fresh_obs = raw_round_trip(*b, ObserveRequest{fresh, 5.0});
  EXPECT_DOUBLE_EQ(std::get<PredictionResponse>(fresh_obs).mbps, 5.0);
}

TEST(PredictionService, SessionMigrationCoherentUnderConcurrentSwaps) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread swapper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      server.swap_model(std::make_shared<EchoPlusOneModel>());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  constexpr int kWorkers = 4;
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&server, &failures, w] {
      try {
        for (int round = 0; round < 10; ++round) {
          // Every verb of the lifecycle rides a different connection.
          const auto opener = raw_connection(server.port());
          const auto toucher = raw_connection(server.port());
          const auto closer = raw_connection(server.port());
          const Response hello = raw_round_trip(
              *opener, HelloRequest{features(), static_cast<double>(w)});
          const std::uint64_t id = std::get<SessionResponse>(hello).session_id;
          for (int i = 0; i < 5; ++i) {
            const double sample = 1.0 + (w + i) % 7;
            const Response obs =
                raw_round_trip(*toucher, ObserveRequest{id, sample});
            if (std::get<PredictionResponse>(obs).mbps != sample + 1.0)
              ++failures;
          }
          if (!std::holds_alternative<OkResponse>(
                  raw_round_trip(*closer, ByeRequest{id})))
            ++failures;
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  for (auto& t : workers) t.join();
  stop.store(true, std::memory_order_relaxed);
  swapper.join();
  EXPECT_EQ(failures.load(), 0);
}

// The regression the worker pool exists to pin down: serving threads are a
// function of --io-threads, never of how many connections come and go.
TEST(PredictionService, WorkerPoolKeepsThreadCountFixedUnderChurn) {
  ServerConfig config;
  config.io_threads = 4;

  const std::size_t before = process_thread_count();
  ASSERT_GT(before, 0u) << "/proc/self/status unreadable";

  PredictionServer server(std::make_shared<EchoPlusOneModel>(), config);
  EXPECT_EQ(server.config().io_threads, 4u);
  const std::size_t budget = before + config.io_threads + 1;  // pool + accept
  EXPECT_LE(process_thread_count(), budget);

  std::size_t peak = 0;
  for (int i = 0; i < 500; ++i) {
    PredictionClient client(server.port());
    const SessionResponse session = client.hello(features(), 1.0);
    client.observe(session.session_id, 1.0);
    // Half the connections say BYE, half abandon their session outright;
    // either way the connection itself churns (client destructor closes it).
    if (i % 2 == 0) client.bye(session.session_id);
    if (i % 16 == 0) peak = std::max(peak, process_thread_count());
  }
  peak = std::max(peak, process_thread_count());
  EXPECT_LE(peak, budget)
      << "thread count grew with connection churn — thread-per-connection is back";
  EXPECT_GE(server.requests_handled(), 1000u);
}

}  // namespace
}  // namespace cs2p
