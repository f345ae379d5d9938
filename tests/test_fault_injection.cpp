// Fault-injection harness tests (net/fault_injection.h) plus the chaos soak
// and killed-server scenarios from the fault-tolerance acceptance criteria:
// a simulated player must finish its stream through a faulty transport with
// zero exceptions escaping into the player loop, and a predictor that loses
// the service mid-stream must finish on the local harmonic-mean fallback.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/fault_injection.h"
#include "net/replica_set.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/transport.h"
#include "qoe/qoe.h"
#include "sim/player.h"

namespace cs2p {
namespace {

SessionFeatures features() {
  return {"ISP0", "AS0", "P0", "C0", "S0", "Pfx0"};
}

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

/// A connected loopback pair: `peer` is the raw accepted socket, `transport`
/// the client side (optionally wrapped by the test).
struct LoopbackPair {
  FdHandle listener;
  FdHandle peer;
  std::unique_ptr<Transport> transport;
};

LoopbackPair make_pair_with(FaultSpec spec, std::uint64_t seed,
                            std::shared_ptr<FaultCounters> counters) {
  LoopbackPair pair;
  auto [listener, port] = listen_loopback(0);
  pair.listener = std::move(listener);
  FdHandle client = connect_loopback(port);
  pair.peer = accept_connection(pair.listener);
  pair.transport = std::make_unique<FaultInjectingTransport>(
      std::make_unique<SocketTransport>(std::move(client)), spec, seed,
      std::move(counters));
  return pair;
}

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

TEST(FaultInjection, TransparentAtZeroFaults) {
  auto counters = std::make_shared<FaultCounters>();
  auto pair = make_pair_with(FaultSpec{}, 1, counters);

  const auto out = bytes_of("hello across the fault layer");
  pair.transport->send(out);
  std::vector<std::byte> got(out.size());
  ASSERT_TRUE(recv_all(pair.peer, got));
  EXPECT_EQ(got, out);

  send_all(pair.peer, out);
  std::vector<std::byte> back(out.size());
  ASSERT_TRUE(pair.transport->recv(back));
  EXPECT_EQ(back, out);

  EXPECT_EQ(counters->sends.load(), 1u);
  EXPECT_EQ(counters->recvs.load(), 1u);
  EXPECT_EQ(counters->total_faults(), 0u);
}

TEST(FaultInjection, ChunkedIoDeliversIntactBytes) {
  FaultSpec spec;
  spec.max_io_chunk = 3;
  auto counters = std::make_shared<FaultCounters>();
  auto pair = make_pair_with(spec, 2, counters);

  std::vector<std::byte> out(64);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<std::byte>(i * 7 + 1);
  pair.transport->send(out);
  std::vector<std::byte> got(out.size());
  ASSERT_TRUE(recv_all(pair.peer, got));
  EXPECT_EQ(got, out);

  send_all(pair.peer, out);
  std::vector<std::byte> back(out.size());
  ASSERT_TRUE(pair.transport->recv(back));
  EXPECT_EQ(back, out);
  EXPECT_EQ(counters->total_faults(), 0u);
}

TEST(FaultInjection, ResetOnSendThrowsConnectionError) {
  FaultSpec spec;
  spec.reset_on_send = 1.0;
  auto counters = std::make_shared<FaultCounters>();
  auto pair = make_pair_with(spec, 3, counters);
  const auto out = bytes_of("doomed");
  EXPECT_THROW(pair.transport->send(out), ConnectionError);
  EXPECT_GE(counters->resets_injected.load(), 1u);
  // The inner stream really was torn down: the peer sees EOF.
  std::vector<std::byte> got(1);
  EXPECT_FALSE(recv_all(pair.peer, got));
}

TEST(FaultInjection, ResetOnRecvThrowsConnectionError) {
  FaultSpec spec;
  spec.reset_on_recv = 1.0;
  auto counters = std::make_shared<FaultCounters>();
  auto pair = make_pair_with(spec, 4, counters);
  std::vector<std::byte> buffer(8);
  EXPECT_THROW((void)pair.transport->recv(buffer), ConnectionError);
  EXPECT_GE(counters->resets_injected.load(), 1u);
}

TEST(FaultInjection, CorruptionFlipsExactlyOneByte) {
  FaultSpec spec;
  spec.corrupt_on_send = 1.0;
  auto counters = std::make_shared<FaultCounters>();
  auto pair = make_pair_with(spec, 5, counters);

  const auto out = bytes_of("a payload of thirty-two bytes!!!");
  pair.transport->send(out);
  std::vector<std::byte> got(out.size());
  ASSERT_TRUE(recv_all(pair.peer, got));
  std::size_t differing = 0;
  for (std::size_t i = 0; i < out.size(); ++i)
    if (got[i] != out[i]) ++differing;
  EXPECT_EQ(differing, 1u);
  EXPECT_EQ(counters->corruptions_injected.load(), 1u);
}

TEST(FaultInjection, InjectedDelayIsObservable) {
  FaultSpec spec;
  spec.delay = 1.0;
  spec.delay_ms = 30;
  auto counters = std::make_shared<FaultCounters>();
  auto pair = make_pair_with(spec, 6, counters);
  const auto out = bytes_of("slow");
  const auto start = std::chrono::steady_clock::now();
  pair.transport->send(out);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 25);
  EXPECT_GE(counters->delays_injected.load(), 1u);
}

TEST(FaultInjection, ConnectorCanRefuseConnects) {
  auto [listener, port] = listen_loopback(0);
  FaultSpec spec;
  spec.refuse_connect = 1.0;
  auto counters = std::make_shared<FaultCounters>();
  auto factory = fault_injecting_connector(loopback_connector(port), spec,
                                           7, counters);
  EXPECT_THROW((void)factory(), ConnectionError);
  EXPECT_THROW((void)factory(), ConnectionError);
  EXPECT_EQ(counters->connects_refused.load(), 2u);
}

TEST(FaultInjection, SameSeedSameFaultSchedule) {
  FaultSpec spec;
  spec.reset_on_send = 0.3;
  const auto first_reset_index = [&spec](std::uint64_t seed) {
    auto pair = make_pair_with(spec, seed, nullptr);
    const auto out = bytes_of("x");
    for (int i = 0; i < 100; ++i) {
      try {
        pair.transport->send(out);
      } catch (const ConnectionError&) {
        return i;
      }
    }
    return -1;
  };
  EXPECT_EQ(first_reset_index(99), first_reset_index(99));
  EXPECT_NE(first_reset_index(99), -1);
}

// -- Scenario tests ---------------------------------------------------------

/// Rate-based controller exercising the predictor on every chunk: picks the
/// highest rung below the one-step forecast.
class PredictorRateController final : public AbrController {
 public:
  std::string name() const override { return "PredRate"; }
  std::size_t select_bitrate(const AbrState& state, const VideoSpec& video) override {
    double forecast_kbps = 0.0;
    if (state.predictor != nullptr)
      forecast_kbps = state.predictor->predict(1) * 1000.0;
    std::size_t choice = 0;
    for (std::size_t i = 0; i < video.bitrates_kbps.size(); ++i)
      if (video.bitrates_kbps[i] <= forecast_kbps) choice = i;
    return choice;
  }
};

/// Chaos soak: 200 chunks through a fault-injecting transport with ~10%
/// aggregate fault probability per operation. Every chunk must complete with
/// no exception escaping into the player loop, the degraded flag must be
/// consistent, and the server must not leak session-table entries.
TEST(FaultInjection, ChaosSoak200Chunks) {
  ServerConfig server_config;
  server_config.session_ttl_ms = 300;
  PredictionServer server(std::make_shared<EchoPlusOneModel>(), server_config);

  FaultSpec spec;
  spec.refuse_connect = 0.05;
  spec.reset_on_send = 0.04;
  spec.reset_on_recv = 0.04;
  spec.corrupt_on_send = 0.02;
  spec.delay = 0.05;
  spec.delay_ms = 1;
  spec.max_io_chunk = 5;
  auto counters = std::make_shared<FaultCounters>();
  auto connector = fault_injecting_connector(
      loopback_connector(server.port(), TransportDeadlines{500, 500}), spec,
      0xC52B5EEDULL, counters);

  ReplicaSetConfig set_config;
  set_config.client.recv_timeout_ms = 500;
  set_config.client.send_timeout_ms = 500;
  set_config.client.max_retries = 4;
  set_config.client.backoff_initial_ms = 2;
  set_config.client.backoff_max_ms = 20;
  std::vector<ReplicaSet::Endpoint> endpoints;
  endpoints.push_back({"chaos", std::move(connector)});
  ReplicaSet set(std::move(endpoints), set_config);

  VideoSpec video;
  video.num_chunks = 200;
  std::vector<double> epochs;
  epochs.reserve(video.num_chunks);
  for (std::size_t k = 0; k < video.num_chunks; ++k)
    epochs.push_back(0.8 + 0.6 * static_cast<double>(k % 5));
  ThroughputTrace trace(std::move(epochs));

  PlaybackResult result;
  bool ended_degraded = false;
  {
    RemoteSessionPredictor predictor(set, features(), 12.0);
    PredictorRateController controller;
    result = simulate_playback(video, trace, controller, &predictor);
    ended_degraded = predictor.degraded();
  }

  ASSERT_EQ(result.chunks.size(), video.num_chunks);
  // Degradation is sticky: once a chunk is served from the local fallback,
  // every later chunk is too, and the session ends degraded.
  const auto on_fallback = [](const ChunkRecord& chunk) {
    return (chunk.serve_flags & serve_flags::kRemoteFallback) != 0;
  };
  const auto first_fallback =
      std::find_if(result.chunks.begin(), result.chunks.end(), on_fallback);
  EXPECT_TRUE(std::all_of(first_fallback, result.chunks.end(), on_fallback));
  if (first_fallback != result.chunks.end()) {
    EXPECT_TRUE(ended_degraded);
  }
  // The run genuinely exercised the fault paths.
  EXPECT_GT(counters->total_faults(), 0u);
  EXPECT_GT(set.replica_client(0).retries() + set.replica_client(0).reconnects(),
            0u);

  // No session-table leaks: whether the session ended with BYE or was
  // abandoned on degradation, the table must drain (TTL eviction covers the
  // abandoned case).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.session_count() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(server.session_count(), 0u);
}

TEST(FaultInjection, KilledServerMidStreamFallsBackToHarmonicMean) {
  auto server = std::make_unique<PredictionServer>(
      std::make_shared<EchoPlusOneModel>());

  ReplicaSetConfig config;
  config.client.recv_timeout_ms = 200;
  config.client.send_timeout_ms = 200;
  config.client.max_retries = 1;
  config.client.backoff_initial_ms = 1;
  ReplicaSet set(std::vector<std::uint16_t>{server->port()}, config);
  RemoteSessionPredictor predictor(set, features(), 8.0);

  predictor.observe(2.0);
  predictor.observe(4.0);
  EXPECT_FALSE(predictor.degraded());

  server->stop();
  server.reset();

  // The next observation exhausts the retry budget; it must degrade, not
  // throw, and subsequent forecasts are the harmonic mean of the history.
  EXPECT_NO_THROW(predictor.observe(6.0));
  EXPECT_TRUE(predictor.degraded());
  EXPECT_GE(predictor.remote_failures(), 1u);
  const double harmonic_mean = 3.0 / (1.0 / 2.0 + 1.0 / 4.0 + 1.0 / 6.0);
  EXPECT_NEAR(predictor.predict(1), harmonic_mean, 1e-9);
  EXPECT_NEAR(predictor.predict(4), harmonic_mean, 1e-9);
  EXPECT_GE(predictor.fallback_predictions(), 2u);
}

/// Delegating predictor that kills the server after `kill_after` observed
/// chunks — drives the killed-server playback scenario end to end.
class KillServerAt final : public SessionPredictor {
 public:
  KillServerAt(RemoteSessionPredictor& inner, PredictionServer& server,
               int kill_after)
      : inner_(&inner), server_(&server), kill_after_(kill_after) {}

  std::optional<double> predict_initial() const override {
    return inner_->predict_initial();
  }
  double predict(unsigned steps) const override { return inner_->predict(steps); }
  void observe(double w) override {
    if (++observed_ == kill_after_) server_->stop();
    inner_->observe(w);
  }
  std::uint8_t serve_flags() const override { return inner_->serve_flags(); }

 private:
  RemoteSessionPredictor* inner_;
  PredictionServer* server_;
  int kill_after_;
  int observed_ = 0;
};

TEST(FaultInjection, PlaybackCompletesWhenServerDiesMidStream) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  ReplicaSetConfig config;
  config.client.recv_timeout_ms = 200;
  config.client.send_timeout_ms = 200;
  config.client.max_retries = 1;
  config.client.backoff_initial_ms = 1;
  ReplicaSet set(std::vector<std::uint16_t>{server.port()}, config);
  RemoteSessionPredictor remote(set, features(), 15.0);
  KillServerAt predictor(remote, server, 10);

  VideoSpec video;
  video.num_chunks = 30;
  std::vector<double> epochs(video.num_chunks, 2.5);
  ThroughputTrace trace(std::move(epochs));
  PredictorRateController controller;

  const PlaybackResult result =
      simulate_playback(video, trace, controller, &predictor);
  ASSERT_EQ(result.chunks.size(), video.num_chunks);
  EXPECT_NE(result.chunks.back().serve_flags & serve_flags::kRemoteFallback, 0u);
  EXPECT_TRUE(remote.degraded());
  EXPECT_GE(remote.fallback_predictions(), 1u);
  // The degraded run still yields a scoreable QoE.
  const QoeBreakdown qoe = compute_qoe(result);
  EXPECT_GT(qoe.avg_bitrate_kbps, 0.0);
}

}  // namespace
}  // namespace cs2p
