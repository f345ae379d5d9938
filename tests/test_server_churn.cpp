// Connection-churn soak for the sharded serving core (net/server.h).
//
// Built for the TSan CI job: many short-lived client threads churn
// connections over a small fixed worker pool while the model hot-swaps and a
// scraper audits the requests >= replies invariant. Locally (no sanitizer)
// it doubles as a quick stress test. Iteration counts are deliberately
// modest so the soak stays tractable under TSan on small machines.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/fault_injection.h"
#include "net/server.h"
#include "net/transport.h"
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

/// Value of the series rendered exactly as `key`, or NaN.
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

/// One client's calls on its current session. A client thread starved past
/// the TTL may find its session evicted, which the TTL contract allows: the
/// sweep evicts only after last_used + TTL, and last_used is stamped no
/// earlier than the send of the previous request on the session. So an
/// UNKNOWN_SESSION reply that arrives more than the TTL after that send is
/// an allowed eviction; any other error, or an earlier UNKNOWN_SESSION, is a
/// failure and propagates.
class SessionCalls {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SessionCalls(int ttl_ms) : ttl_(std::chrono::milliseconds(ttl_ms)) {}

  /// Call just before the HELLO goes out: the first request on the session.
  void opening() { previous_send_ = Clock::now(); }

  /// Runs `call` (one request on the session); false when it found the
  /// session evicted as the contract allows.
  template <typename Call>
  bool operator()(Call&& call) {
    const auto sent = Clock::now();
    try {
      call();
    } catch (const ServerError& e) {
      if (e.code() != WireErrorCode::kUnknownSession ||
          Clock::now() - previous_send_ <= ttl_)
        throw;
      return false;
    }
    previous_send_ = sent;
    return true;
  }

 private:
  Clock::duration ttl_;
  Clock::time_point previous_send_{};
};

TEST(ServerChurnSoak, SixtyFourClientsOverFourWorkers) {
  ServerConfig config;
  config.io_threads = 4;
  config.session_shards = 8;
  config.max_connections = 256;
  config.session_ttl_ms = 100;  // abandoned sessions get reaped mid-soak
  PredictionServer server(std::make_shared<EchoPlusOneModel>(), config);
  ASSERT_EQ(server.config().io_threads, 4u);
  ASSERT_EQ(server.config().session_shards, 8u);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> byes{0};
  std::atomic<std::uint64_t> abandons{0};
  std::atomic<std::uint64_t> starved_evictions{0};

  // Retrains land mid-flight the whole time: sessions must keep the model
  // that created them (RCU pin) while new sessions pick up the replacement.
  std::thread swapper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      server.swap_model(std::make_shared<EchoPlusOneModel>());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Continuous STATS audit: a reply can never outrun its request.
  std::thread scraper([&] {
    try {
      PredictionClient client(server.port());
      while (!stop.load(std::memory_order_relaxed)) {
        const StatsResponse stats = client.stats();
        const double requests =
            series_value(stats.exposition, "cs2p_server_requests_total");
        const double replies =
            series_value(stats.exposition, "cs2p_server_replies_total");
        if (!(requests >= replies)) ++failures;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    } catch (const std::exception&) {
      ++failures;
    }
  });

  constexpr int kClients = 64;
  constexpr int kRoundsPerClient = 6;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        for (int round = 0; round < kRoundsPerClient; ++round) {
          // Fresh connection every round — this is the churn under test.
          PredictionClient client(server.port());
          SessionCalls calls(config.session_ttl_ms);
          calls.opening();
          const SessionResponse session =
              client.hello(features(), static_cast<double>(c % 24));
          bool live = true;
          for (int i = 0; i < 4 && live; ++i) {
            const double sample = 1.0 + (c + round + i) % 9;
            double forecast = 0.0;
            live = calls([&] { forecast = client.observe(session.session_id, sample); });
            if (live && forecast != sample + 1.0) {
              ++failures;
              return;
            }
          }
          double ahead = 1.0;
          if (live) live = calls([&] { ahead = client.predict(session.session_id, 2); });
          if (ahead <= 0.0) ++failures;
          if (!live) {
            starved_evictions.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          // Half the rounds close politely, half vanish without BYE and
          // leave their session for the TTL sweep.
          if ((c + round) % 2 == 0) {
            client.bye(session.session_id);
            byes.fetch_add(1, std::memory_order_relaxed);
          } else {
            abandons.fetch_add(1, std::memory_order_relaxed);
          }
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }
  // A slow-reader cohort rides along: clients that sleep before every recv
  // drain replies slower than the server produces them, exercising the
  // write-backpressure path (bounded queues, read throttling) concurrently
  // with the fast churn above — under TSan this is the mixed-cohort race.
  constexpr int kSlowClients = 8;
  constexpr int kSlowRounds = 2;
  std::vector<std::thread> slow_clients;
  for (int c = 0; c < kSlowClients; ++c) {
    slow_clients.emplace_back([&, c] {
      try {
        for (int round = 0; round < kSlowRounds; ++round) {
          PredictionClient client(
              slow_client_connector(loopback_connector(server.port()),
                                    /*recv_delay_ms=*/3));
          SessionCalls calls(config.session_ttl_ms);
          calls.opening();
          const SessionResponse session =
              client.hello(features(), static_cast<double>(c % 24));
          bool live = true;
          for (int i = 0; i < 2 && live; ++i) {
            const double sample = 1.0 + (c + round + i) % 9;
            double forecast = 0.0;
            live = calls([&] { forecast = client.observe(session.session_id, sample); });
            if (live && forecast != sample + 1.0) {
              ++failures;
              return;
            }
          }
          if (!live) {
            starved_evictions.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          client.bye(session.session_id);
          byes.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const std::exception&) {
        ++failures;
      }
    });
  }

  for (auto& t : clients) t.join();
  for (auto& t : slow_clients) t.join();
  stop.store(true, std::memory_order_relaxed);
  swapper.join();
  scraper.join();

  EXPECT_EQ(failures.load(), 0);
  if (starved_evictions.load() > 0)
    std::printf("%llu client round(s) found their session evicted after a stall "
                "longer than the TTL\n",
                static_cast<unsigned long long>(starved_evictions.load()));
  EXPECT_GT(byes.load(), 0u);
  EXPECT_GT(abandons.load(), 0u);
  // hello + 4 observes + predict per round, plus byes and scrapes.
  EXPECT_GE(server.requests_handled(),
            static_cast<std::uint64_t>(kClients * kRoundsPerClient * 6));
  EXPECT_GE(server.requests_handled(), server.replies_sent());

  // The abandoned half drains via TTL once the churn stops.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.session_count() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(server.session_count(), 0u);
  EXPECT_GE(server.sessions_evicted(), 1u);
}

}  // namespace
}  // namespace cs2p
