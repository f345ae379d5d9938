// Integration tests for the TCP prediction service (net/server.h, client.h,
// and replica_set.h as the session client of one server).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "hmm/kernel.h"
#include "net/client.h"
#include "net/replica_set.h"
#include "net/server.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "predictors/hmm_session.h"
#include "predictors/predictor.h"

namespace cs2p {
namespace {

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
  PredictionServer server(std::make_shared<EchoPlusOneModel>(), config);

  PredictionClient a(server.port()), b(server.port()), c(server.port());
  const auto sa = a.hello(features(), 1.0);
  const auto sb = b.hello(features(), 2.0);
  try {
    c.hello(features(), 3.0);
    FAIL() << "expected OVERLOADED rejection";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kOverloaded);
  }
  EXPECT_GE(server.connections_rejected(), 1u);
  // Existing connections are unaffected by the rejection.
  EXPECT_DOUBLE_EQ(a.observe(sa.session_id, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(b.observe(sb.session_id, 2.0), 3.0);
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
// horizons), and every served lane lands in the cs2p_server_batch_size
// histogram.
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

  // One connection with one frame in flight: six rounds of one lane each.
  const StatsResponse stats = client.stats();
  EXPECT_EQ(series_value(stats.exposition, "cs2p_server_batch_size_count"), 6.0);
  EXPECT_EQ(series_value(stats.exposition, "cs2p_server_batch_size_sum"), 6.0);
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

// A horizon wider than the wire's u32 is refused at parse, not wrapped: the
// request answers BAD_REQUEST and the connection keeps serving.
TEST(PredictionService, OversizedPredictHorizonIsBadRequest) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  const auto conn = raw_connection(server.port());
  const Response hello = raw_round_trip(*conn, HelloRequest{features(), 1.0});
  const std::uint64_t id = std::get<SessionResponse>(hello).session_id;
  send_frame(*conn, "PREDICT " + std::to_string(id) + " 4294967297");
  const auto frame = recv_frame(*conn);
  ASSERT_TRUE(frame.has_value());
  const Response reply = parse_response(*frame);
  const auto* err = std::get_if<ErrorResponse>(&reply);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, WireErrorCode::kBadRequest);
  const Response ok = raw_round_trip(*conn, PredictRequest{id, 1});
  EXPECT_DOUBLE_EQ(std::get<PredictionResponse>(ok).mbps, 1.0);
}

/// Order-sensitive sessions: state folds every sample (s = s/2 + w) and the
/// forecast is s + steps, so a reply pins the state and any reordering of a
/// session's observations shows in its replies. A session opened at
/// start_hour >= 99 is a gate instead: its OBSERVE parks the serving worker
/// until the test opens the gate. One opened at start_hour 50 throws from
/// predict().
class FoldingGateModel final : public PredictorModel {
 public:
  struct Gate {
    std::atomic<bool> entered{false};
    std::atomic<bool> open{false};
  };

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
      explicit Gated(std::shared_ptr<Gate> gate) : gate_(std::move(gate)) {}
      double predict(unsigned) const override { return 0.0; }
      void observe(double) override {
        gate_->entered.store(true);
        gate_->entered.notify_all();
        gate_->open.wait(false);
      }

     private:
      std::shared_ptr<Gate> gate_;
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

  std::shared_ptr<Gate> gate() const { return gate_; }

 private:
  std::shared_ptr<Gate> gate_ = std::make_shared<Gate>();
};

// One session driven from two connections at once: each pipelines 16
// OBSERVEs, and both pipelines reach the worker in the same poll wakeup, so
// every round holds a frame of each for the same session — the later one
// runs in a second wave of the executor. The 32 replies must match one
// interleaving that keeps each connection's order, found by a DP over the
// 17x17 grid of (A frames applied, B frames applied) that replays candidate
// interleavings through make_session.
TEST(PredictionService, DuplicateSessionFramesApplyInOneConnectionOrderInterleaving) {
  constexpr int kFrames = 16;
  auto model = std::make_shared<FoldingGateModel>();
  ServerConfig config;
  config.io_threads = 1;  // every connection shares the one worker's rounds
  PredictionServer server(model, config);

  const auto control = raw_connection(server.port());
  const auto session_of = [&](double start_hour) {
    const Response hello =
        raw_round_trip(*control, HelloRequest{features(), start_hour});
    return std::get<SessionResponse>(hello).session_id;
  };
  const std::uint64_t id = session_of(0.0);
  const std::uint64_t gate_id = session_of(99.0);
  const auto a = raw_connection(server.port());
  const auto b = raw_connection(server.port());

  std::vector<double> a_values, b_values;
  std::string a_bytes, b_bytes;
  for (int k = 0; k < kFrames; ++k) {
    a_values.push_back(1.0 + k);
    b_values.push_back(100.0 + k);
    a_bytes += encode_frame(serialize_request(ObserveRequest{id, a_values.back()}));
    b_bytes += encode_frame(serialize_request(ObserveRequest{id, b_values.back()}));
  }

  // Park the worker inside a round, queue both pipelines behind it, then
  // release: the next wakeup reads both connections at once.
  std::thread parked([&] { raw_round_trip(*control, ObserveRequest{gate_id, 1.0}); });
  model->gate()->entered.wait(false);
  a->send(std::as_bytes(std::span(a_bytes.data(), a_bytes.size())));
  b->send(std::as_bytes(std::span(b_bytes.data(), b_bytes.size())));
  model->gate()->open.store(true);
  model->gate()->open.notify_all();
  parked.join();

  const auto replies = [](Transport& transport) {
    std::vector<double> out;
    for (int k = 0; k < kFrames; ++k) {
      const auto frame = recv_frame(transport);
      if (!frame) throw ConnectionError("server closed connection");
      out.push_back(std::get<PredictionResponse>(parse_response(*frame)).mbps);
    }
    return out;
  };
  const std::vector<double> a_replies = replies(*a);
  const std::vector<double> b_replies = replies(*b);

  // The OBSERVE reply after applying the interleaving `moves` ('a'/'b').
  const auto replay = [&](const std::string& moves) {
    const auto predictor = model->make_session(SessionContext{});
    std::size_t i = 0, j = 0;
    for (const char move : moves)
      predictor->observe(move == 'a' ? a_values[i++] : b_values[j++]);
    return predictor->predict(1);
  };
  // reached[i][j]: interleavings of i A frames and j B frames whose every
  // reply matched. A matched reply pins the state, so one witness per last
  // mover covers every interleaving ending at (i, j).
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
      << "the replies match no interleaving that keeps each connection's order";
  // The pipelines really shared rounds: the witness is no concatenation.
  const std::string& witness = reached[kFrames][kFrames].front();
  std::size_t switches = 0;
  for (std::size_t k = 1; k < witness.size(); ++k)
    switches += witness[k] != witness[k - 1];
  EXPECT_GT(switches, 1u) << witness;
}

// Replies queue for the whole event-loop pass and each connection is flushed
// once when its rounds run dry: 32 pipelined OBSERVEs read in one wakeup
// take 32 rounds and leave in one send, in order. The sends counted over
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

  // Park the worker inside a round, queue the whole burst behind it in one
  // send, then release: the next wakeup reads all 32 frames at once.
  const obs::Counter& sends =
      server.metrics().counter("cs2p_server_send_calls_total");
  std::thread parked([&] { raw_round_trip(*control, ObserveRequest{gate_id, 1.0}); });
  model->gate()->entered.wait(false);
  const std::uint64_t sends_before = sends.value();
  burst->send(std::as_bytes(std::span(bytes.data(), bytes.size())));
  model->gate()->open.store(true);
  model->gate()->open.notify_all();
  parked.join();

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

// A round holding a PREDICT for a session whose predict() throws and a
// PREDICT for a healthy session, each from its own connection: the broken
// lane answers INTERNAL, the healthy one its normal forecast, and both
// connections keep serving. The two lanes swap connections for a second
// round, so the broken lane comes first in one of the two rounds whatever
// order the worker visits its connections in.
TEST(PredictionService, ThrowingPredictorFailsOnlyItsOwnLane) {
  auto model = std::make_shared<FoldingGateModel>();
  ServerConfig config;
  config.io_threads = 1;  // every connection shares the one worker's rounds
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

  const obs::Histogram& widths =
      server.metrics().histogram("cs2p_server_batch_size", {});
  for (const bool broken_on_a : {true, false}) {
    Transport& to_broken = broken_on_a ? *a : *b;
    Transport& to_healthy = broken_on_a ? *b : *a;
    const std::uint64_t rounds_before = widths.count();
    const double lanes_before = widths.sum();

    // Park the worker inside a round, queue one frame on each connection
    // behind it, then release: the next wakeup reads both into one round.
    const auto gate = model->gate();
    gate->entered.store(false);
    gate->open.store(false);
    std::thread parked([&] { raw_round_trip(*control, ObserveRequest{gate_id, 1.0}); });
    gate->entered.wait(false);
    send_frame(to_broken, serialize_request(PredictRequest{broken, 1}));
    send_frame(to_healthy, serialize_request(PredictRequest{healthy, 2}));
    gate->open.store(true);
    gate->open.notify_all();
    parked.join();

    const auto broken_frame = recv_frame(to_broken);
    const auto healthy_frame = recv_frame(to_healthy);
    ASSERT_TRUE(broken_frame && healthy_frame);
    const Response failed = parse_response(*broken_frame);
    const auto* err = std::get_if<ErrorResponse>(&failed);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->code, WireErrorCode::kInternal);
    EXPECT_DOUBLE_EQ(forecast(parse_response(*healthy_frame)), 2.0);
    // The gate's round, then one round holding both lanes.
    EXPECT_EQ(widths.count() - rounds_before, 2u);
    EXPECT_EQ(widths.sum() - lanes_before, 3.0);

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
