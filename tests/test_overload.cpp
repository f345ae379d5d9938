// Overload control & zero-downtime drain (DESIGN.md §14).
//
// Covers the overload behaviors end to end over real sockets:
//   - write backpressure: a slow reader's queue is bounded by construction
//     (write_budget_bytes + one frame), a stalled one is kicked, and a burst
//     larger than the budget is still answered within the wakeup that read
//     it,
//   - the client tier under overload: a tier whose every replica is at its
//     connection cap makes ReplicaSet back off by the cap's retry-after hint
//     and recover once a slot frees,
//   - the OBSERVE/PREDICT serve path: a guarded session's degraded reply is
//     served by exactly one predict(),
//   - graceful drain: new work refused with SHUTTING_DOWN, in-flight
//     sessions stamped kDraining and proactively migrated by ReplicaSet,
//     abandoned sessions reaped under the shrunk drain TTL.
//
// The rolling-restart soak at the bottom is the CI zero-drop gate: three
// ChaosReplicas drained in turn under 64 live sessions, no session ever
// observing a failed operation.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "hmm_test_util.h"
#include "net/client.h"
#include "net/fault_injection.h"
#include "net/replica_set.h"
#include "net/server.h"
#include "net/session_table.h"
#include "net/socket.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "predictors/guarded_session.h"
#include "predictors/guardrail.h"
#include "predictors/predictor.h"
#include "util/rng.h"
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

/// EchoPlusOneModel's sessions, except that one opened at start_hour 99
/// parks the serving worker inside observe() until the test opens the gate.
class GatedEchoModel final : public PredictorModel {
 public:
  std::string name() const override { return "GatedEcho"; }
  std::unique_ptr<SessionPredictor> make_session(
      const SessionContext& context) const override {
    class Gated final : public SessionPredictor {
     public:
      explicit Gated(std::shared_ptr<WorkerGate> gate) : gate_(std::move(gate)) {}
      double predict(unsigned) const override { return 0.0; }
      void observe(double) override { gate_->park(); }

     private:
      std::shared_ptr<WorkerGate> gate_;
    };
    if (context.start_hour == 99.0) return std::make_unique<Gated>(gate_);
    return echo_.make_session(context);
  }

  WorkerGate& gate() const { return *gate_; }

 private:
  EchoPlusOneModel echo_;
  std::shared_ptr<WorkerGate> gate_ = std::make_shared<WorkerGate>();
};

/// Guarded HMM sessions (the engine's guardrail wrapper, at its shipped
/// thresholds) reporting into a registry the test reads —
/// fallback_predictions is the double-count probe.
class GuardedHmmModel final : public PredictorModel {
 public:
  explicit GuardedHmmModel(obs::MetricsRegistry& registry)
      : kernel_(HmmKernel::create(testing_support::two_state_model())),
        baseline_(compute_surprise_baseline(kernel_)),
        metrics_(GuardrailMetrics::from_registry(registry)) {}
  std::string name() const override { return "GuardedHmm"; }
  std::unique_ptr<SessionPredictor> make_session(const SessionContext&) const override {
    return std::make_unique<GuardedSessionPredictor>(
        kernel_, 2.0, 1.5, baseline_, PredictionRule::kMleState,
        serve_flags::kPrimary, nullptr, &metrics_);
  }

 private:
  std::shared_ptr<const HmmKernel> kernel_;
  SurpriseBaseline baseline_;
  GuardrailMetrics metrics_;
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

void set_rcvbuf(const FdHandle& fd, int bytes) {
  ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &bytes, sizeof bytes);
}

// -- Write backpressure -------------------------------------------------------

TEST(Backpressure, SlowReaderQueueBoundedAndRepliesPipeline) {
  ServerConfig config;
  config.io_threads = 1;
  config.write_budget_bytes = 4 * 1024;
  config.write_stall_timeout_ms = 0;  // reader is slow forever; never kick
  config.so_sndbuf = 4 * 1024;        // make backpressure visible at test scale
  PredictionServer server(std::make_shared<EchoPlusOneModel>(), config);

  // A raw socket that floods STATS requests (each reply is several KB) and
  // reads nothing: the server must stop reading it once the write queue
  // crosses budget instead of buffering replies without bound.
  FdHandle slow = connect_loopback(server.port());
  set_rcvbuf(slow, 4 * 1024);
  const std::string frame = encode_frame(serialize_request(StatsRequest{}));
  constexpr int kRequests = 200;
  for (int i = 0; i < kRequests; ++i)
    send_all(slow, std::as_bytes(std::span(frame.data(), frame.size())));

  // Let the server chew as far as backpressure allows.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_LT(server.requests_handled(), static_cast<std::uint64_t>(kRequests));

  // The worker is not wedged behind the slow reader: a second connection is
  // served normally the whole time.
  PredictionClient probe(server.port());
  const SessionResponse session = probe.hello(features(), 0.0);
  EXPECT_DOUBLE_EQ(probe.observe(session.session_id, 3.0), 4.0);
  probe.bye(session.session_id);

  // The reader recovers: every flood request eventually gets its pipelined
  // reply, in order, as we drain. The drain reads with a normal receive
  // buffer: a 4 KB one is smaller than one STATS reply, so TCP would
  // withhold window updates and advance the drain one zero-window probe at
  // a time, at a pace set by the kernel's cached metrics for 127.0.0.1.
  set_rcvbuf(slow, 256 * 1024);
  for (int i = 0; i < kRequests; ++i) {
    const std::optional<std::string> payload = recv_frame(slow);
    ASSERT_TRUE(payload.has_value()) << "EOF after " << i << " replies";
    const Response response = parse_response(*payload);
    ASSERT_TRUE(std::holds_alternative<StatsResponse>(response));
  }

  // The bound the whole mechanism exists for: no matter how slow the reader,
  // the queue high-water mark stays within budget + one encoded frame.
  EXPECT_GT(server.max_write_queue_bytes(), 0u);
  EXPECT_LE(server.max_write_queue_bytes(),
            config.write_budget_bytes + kMaxFrameBytes + kFrameHeaderBytes);
}

// Replies queue for the whole event-loop pass, so a pipelined burst larger
// than the write budget throttles its connection mid-pass. The end-of-pass
// flush brings the queue back under budget, and the frames still buffered
// must be served in the same pass: they were read off the kernel already,
// so no further POLLIN would come for them, only the poll timeout.
TEST(Backpressure, BurstLargerThanBudgetAnsweredInTheWakeupThatReadIt) {
  constexpr int kFrames = 64;
  auto model = std::make_shared<GatedEchoModel>();
  ServerConfig config;
  config.io_threads = 1;
  config.write_budget_bytes = 128;  // a handful of PRED replies
  PredictionServer server(model, config);

  const auto control = connect_loopback(server.port());
  // A receive deadline, so a gated OBSERVE the server never answers fails
  // the parked round trip instead of blocking its join.
  const timeval receive_deadline{2, 0};
  ASSERT_EQ(::setsockopt(control.get(), SOL_SOCKET, SO_RCVTIMEO,
                         &receive_deadline, sizeof receive_deadline),
            0);
  std::size_t largest_frame = 0;
  const auto round_trip = [&](const FdHandle& fd, const Request& request) {
    const std::string frame = encode_frame(serialize_request(request));
    send_all(fd, std::as_bytes(std::span(frame.data(), frame.size())));
    const std::optional<std::string> payload = recv_frame(fd);
    if (!payload) throw ConnectionError("server closed connection");
    largest_frame = std::max(largest_frame, payload->size() + kFrameHeaderBytes);
    return parse_response(*payload);
  };
  const auto session_of = [&](double start_hour) {
    return std::get<SessionResponse>(
               round_trip(control, HelloRequest{features(), start_hour}))
        .session_id;
  };
  const std::uint64_t id = session_of(0.0);
  const std::uint64_t gate_id = session_of(99.0);
  const FdHandle reader = connect_loopback(server.port());
  // One round trip, so the worker owns the reader before it parks.
  round_trip(reader, ObserveRequest{id, 0.0});

  std::string burst;
  for (int k = 0; k < kFrames; ++k)
    burst += encode_frame(serialize_request(ObserveRequest{id, 1.0 + k}));

  // Park the worker, queue the burst behind it, then release: the next
  // wakeup reads the whole burst at once.
  const obs::Counter& wakeups =
      server.metrics().counter("cs2p_server_loop_iterations_total");
  ParkedRoundTrip parked(model->gate(), [&] {
    std::get<PredictionResponse>(round_trip(control, ObserveRequest{gate_id, 1.0}));
  });
  ASSERT_TRUE(parked.entered());
  const std::uint64_t wakeups_before = wakeups.value();
  send_all(reader, std::as_bytes(std::span(burst.data(), burst.size())));
  ASSERT_TRUE(parked.release());

  for (int k = 0; k < kFrames; ++k) {
    const std::optional<std::string> payload = recv_frame(reader);
    ASSERT_TRUE(payload.has_value()) << "EOF after " << k << " replies";
    largest_frame = std::max(largest_frame, payload->size() + kFrameHeaderBytes);
    EXPECT_DOUBLE_EQ(std::get<PredictionResponse>(parse_response(*payload)).mbps,
                     2.0 + k)
        << "reply " << k;
  }
  // The wakeup that read the burst answered all of it. A second wakeup is
  // the idle poll timeout, if it fires before this read.
  EXPECT_LE(wakeups.value() - wakeups_before, 2u);
  EXPECT_GT(server.max_write_queue_bytes(), config.write_budget_bytes);
  EXPECT_LE(server.max_write_queue_bytes(),
            config.write_budget_bytes + largest_frame);
}

TEST(Backpressure, StalledReaderIsKicked) {
  ServerConfig config;
  config.io_threads = 1;
  config.write_budget_bytes = 4 * 1024;
  config.write_stall_timeout_ms = 100;
  config.so_sndbuf = 4 * 1024;
  PredictionServer server(std::make_shared<EchoPlusOneModel>(), config);

  FdHandle stalled = connect_loopback(server.port());
  set_rcvbuf(stalled, 4 * 1024);
  const std::string frame = encode_frame(serialize_request(StatsRequest{}));
  for (int i = 0; i < 200; ++i)
    send_all(stalled, std::as_bytes(std::span(frame.data(), frame.size())));

  // Never read: once the kernel buffers fill, the flush makes no progress
  // and the stall deadline closes the connection.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.slow_reader_kicks() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(server.slow_reader_kicks(), 1u);

  // The slot is reclaimed; a well-behaved client is unaffected.
  PredictionClient probe(server.port());
  const SessionResponse session = probe.hello(features(), 0.0);
  EXPECT_DOUBLE_EQ(probe.observe(session.session_id, 3.0), 4.0);
}

// -- OBSERVE/PREDICT serve path ----------------------------------------------

TEST(LaneExecutor, GuardedSessionCountsOneFallbackPerDegradedReply) {
  obs::MetricsRegistry registry;
  ServerConfig config;
  config.io_threads = 1;
  PredictionServer server(std::make_shared<GuardedHmmModel>(registry), config);
  const obs::Counter& fallbacks =
      *GuardrailMetrics::from_registry(registry).fallback_predictions;
  PredictionClient client(server.port());
  const SessionResponse session = client.hello(features(), 0.0);

  // In-distribution samples first (healthy), then a collapse to 0.2 Mbps
  // that trips the guardrail. A degraded guarded predictor counts one
  // fallback per predict(), so a frame that predicted twice would count two.
  Rng rng(11);
  std::vector<double> samples =
      testing_support::sample_sequence(testing_support::two_state_model(), 8, rng);
  samples.insert(samples.end(), 12, 0.2);
  std::uint64_t degraded = 0;
  for (const double w : samples) {
    std::uint64_t before = fallbacks.value();
    const PredictionResponse observed =
        client.observe_response(session.session_id, w);
    const bool tripped = (observed.flags & serve_flags::kGuardrailTripped) != 0;
    EXPECT_EQ(fallbacks.value(), before + (tripped ? 1 : 0)) << "OBSERVE " << w;

    before = fallbacks.value();
    const PredictionResponse predicted =
        client.predict_response(session.session_id, 3);
    EXPECT_EQ(predicted.flags, observed.flags);
    EXPECT_EQ(fallbacks.value(), before + (tripped ? 1 : 0)) << "PREDICT after " << w;
    if (tripped) {
      ++degraded;
      EXPECT_DOUBLE_EQ(predicted.mbps, observed.mbps);  // horizon-free chain
    }
  }
  // The collapse did trip the guardrail, after healthy replies that counted
  // no fallback.
  EXPECT_GT(degraded, 0u);
  EXPECT_LT(degraded, samples.size());
  EXPECT_EQ(server.degraded_replies(), 2 * degraded);
}

// -- Graceful drain -----------------------------------------------------------

TEST(Drain, LifecycleRefusesNewWorkStampsDrainingCompletesOnBye) {
  ServerConfig config;
  config.io_threads = 1;
  config.retry_after_ms = 77;
  PredictionServer server(std::make_shared<EchoPlusOneModel>(), config);

  PredictionClient client(server.port());
  const SessionResponse session = client.hello(features(), 0.0);
  EXPECT_FALSE(server.draining());

  server.begin_drain();
  EXPECT_TRUE(server.draining());
  EXPECT_FALSE(server.drained());  // the session is still live

  // New connections are refused at accept with SHUTTING_DOWN + retry-after.
  PredictionClient late(server.port());
  try {
    late.hello(features(), 1.0);
    FAIL() << "draining server must refuse new connections";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kShuttingDown);
    EXPECT_EQ(e.retry_after_ms(), 77u);
  }

  // A new HELLO on an established connection is refused the same way.
  try {
    client.hello(features(), 2.0);
    FAIL() << "draining server must refuse new HELLOs";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kShuttingDown);
    EXPECT_EQ(e.retry_after_ms(), 77u);
  }

  // The in-flight session keeps being served, every reply stamped kDraining
  // — the migrate-now hint — without counting as a degraded forecast.
  const PredictionResponse r = client.observe_response(session.session_id, 3.0);
  EXPECT_DOUBLE_EQ(r.mbps, 4.0);
  EXPECT_NE(r.flags & serve_flags::kDraining, 0);
  EXPECT_EQ(server.degraded_replies(), 0u);

  client.bye(session.session_id);
  EXPECT_TRUE(server.wait_drained(2'000));
  EXPECT_TRUE(server.drained());

  const std::string scrape = server.metrics().scrape();
  EXPECT_DOUBLE_EQ(series_value(scrape, "cs2p_server_draining"), 1.0);
  EXPECT_GE(series_value(scrape, "cs2p_server_drain_rejections_total"), 2.0);
  EXPECT_GE(series_value(scrape, "cs2p_server_last_drain_seconds"), 0.0);

  server.begin_drain();  // idempotent
  EXPECT_TRUE(server.drained());
}

TEST(Drain, ShrunkTtlReapsAbandonedSessions) {
  ServerConfig config;
  config.io_threads = 1;
  config.session_ttl_ms = 120'000;   // steady state would hold them forever
  config.drain_session_ttl_ms = 50;  // the drain must not wait that out
  PredictionServer server(std::make_shared<EchoPlusOneModel>(), config);

  PredictionClient client(server.port());
  constexpr int kAbandoned = 8;
  for (int i = 0; i < kAbandoned; ++i) client.hello(features(), 0.0);
  EXPECT_EQ(server.session_count(), static_cast<std::size_t>(kAbandoned));

  server.begin_drain();
  EXPECT_EQ(server.session_table().ttl_ms(), 50);
  EXPECT_TRUE(server.wait_drained(5'000));
  EXPECT_GE(server.sessions_evicted(), static_cast<std::uint64_t>(kAbandoned));
}

TEST(Drain, SessionTableEvictionRacesTtlRearm) {
  // The drain path re-arms the TTL while workers keep ticking eviction and
  // the serve path keeps inserting/erasing — the TSan job runs this to prove
  // those never race.
  SessionTableConfig config;
  config.shards = 4;
  config.ttl_ms = 100'000;
  config.evict_scan_budget = 8;
  SessionTable table(config);

  const auto make_entry = [](std::uint64_t) {
    SessionTable::Entry entry;
    entry.last_used = SessionTable::Clock::now();
    return entry;
  };

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    std::vector<std::uint64_t> ids;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 4; ++i) ids.push_back(table.emplace(make_entry));
      while (ids.size() > 2) {
        table.erase(ids.back());
        ids.pop_back();
      }
    }
  });
  std::thread evictor([&] {
    while (!stop.load(std::memory_order_relaxed))
      table.evict_tick(SessionTable::Clock::now());
  });
  std::thread rearmer([&] {
    bool drain = false;
    while (!stop.load(std::memory_order_relaxed)) {
      table.set_ttl_ms(drain ? 1 : 100'000);
      drain = !drain;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  stop.store(true, std::memory_order_relaxed);
  mutator.join();
  evictor.join();
  rearmer.join();

  // Final drain sweep: with the TTL at its floor every survivor expires.
  table.set_ttl_ms(1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (table.size() > 0 && std::chrono::steady_clock::now() < deadline) {
    table.evict_tick(SessionTable::Clock::now());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(table.size(), 0u);
}

// -- Client tier under overload and drain ------------------------------------

TEST(ReplicaOverload, BacksOffOnRetryAfterThenRecovers) {
  ServerConfig config;
  config.io_threads = 1;
  config.max_connections = 1;
  config.retry_after_ms = 40;
  PredictionServer a(std::make_shared<EchoPlusOneModel>(), config);
  PredictionServer b(std::make_shared<EchoPlusOneModel>(), config);
  // Each replica's one slot is held by a connection whose HELLO was
  // answered, so the server counts it before the set connects.
  auto holder_a = std::make_unique<PredictionClient>(a.port());
  PredictionClient holder_b(b.port());
  holder_a->hello(features(), 0.0);
  holder_b.hello(features(), 0.0);

  ReplicaSetConfig rc;
  rc.client.backoff_jitter = 0.5;  // sleeps land in (20, 40] ms
  rc.overload_retry_passes = 4;
  rc.down_probe_after_ms = 1;
  ReplicaSet set({a.port(), b.port()}, rc);

  // The whole tier is at its cap. Once both replicas have refused the set,
  // replica a's slot frees: the hello must ride the cap's retry-after hint
  // to success instead of failing.
  std::thread relief([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((set.replica_client(0).overloaded_replies() == 0 ||
            set.replica_client(1).overloaded_replies() == 0) &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    holder_a.reset();
  });
  const auto t0 = std::chrono::steady_clock::now();
  const SessionResponse session = set.hello(features(), 0.0);
  const auto waited = std::chrono::steady_clock::now() - t0;
  relief.join();
  EXPECT_GT(session.session_id, 0u);
  EXPECT_EQ(set.session_replica(session.session_id), 0u);
  // At least one jittered retry-after sleep happened (no hot-spin).
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(waited).count(),
            20);
  EXPECT_GE(set.replica_client(0).overloaded_replies(), 1u);
  EXPECT_GE(set.replica_client(1).overloaded_replies(), 1u);

  // The set now holds a's slot, so a second set finds both replicas at
  // their cap. With every pass exhausted the overload finally surfaces —
  // typed, with the cap's hint, after the full backoff schedule, not as a
  // spin.
  ReplicaSet late({a.port(), b.port()}, rc);
  const auto t1 = std::chrono::steady_clock::now();
  try {
    late.hello(features(), 1.0);
    FAIL() << "a tier at its connection cap must surface OVERLOADED";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kOverloaded);
    EXPECT_EQ(e.retry_after_ms(), 40u);
  }
  const auto exhausted = std::chrono::steady_clock::now() - t1;
  EXPECT_GE(
      std::chrono::duration_cast<std::chrono::milliseconds>(exhausted).count(),
      3 * 20);  // (passes - 1) sleeps, each > 20 ms
}

TEST(ReplicaDrain, PlannedMigrationOnDrainingHint) {
  ServerConfig config;
  config.io_threads = 1;
  PredictionServer a(std::make_shared<EchoPlusOneModel>(), config);
  PredictionServer b(std::make_shared<EchoPlusOneModel>(), config);
  ReplicaSet set({a.port(), b.port()});

  const SessionResponse session = set.hello(features(), 3.0);
  const std::size_t first = set.session_replica(session.session_id);
  PredictionServer& old_server = first == 0 ? a : b;
  PredictionServer& new_server = first == 0 ? b : a;
  EXPECT_EQ(old_server.session_count(), 1u);

  old_server.begin_drain();

  // The very next operation is still served (and answers correctly), carries
  // the kDraining hint, and triggers the proactive move.
  const PredictionResponse r = set.observe_response(session.session_id, 3.0);
  EXPECT_DOUBLE_EQ(r.mbps, 4.0);
  EXPECT_NE(r.flags & serve_flags::kDraining, 0);
  EXPECT_NE(set.session_replica(session.session_id), first);
  EXPECT_GE(set.planned_migrations(), 1u);
  EXPECT_TRUE(set.replica_draining(first));

  // The migration BYEd the old replica, so its drain completes without
  // waiting out any TTL.
  EXPECT_TRUE(old_server.wait_drained(2'000));
  EXPECT_EQ(new_server.session_count(), 1u);

  // The session keeps serving from the new replica, hint-free.
  const PredictionResponse r2 = set.observe_response(session.session_id, 5.0);
  EXPECT_DOUBLE_EQ(r2.mbps, 6.0);
  EXPECT_EQ(r2.flags & serve_flags::kDraining, 0);
}

// -- Rolling restart (the CI zero-drop soak) ---------------------------------

TEST(RollingRestart, DrainEachReplicaInTurnDropsNoSessions) {
  auto registry = std::make_shared<obs::MetricsRegistry>();
  ServerConfig config;
  config.io_threads = 2;
  config.session_shards = 4;
  config.drain_session_ttl_ms = 200;
  config.retry_after_ms = 50;
  config.metrics = registry;
  ReplicaFaultSpec fault;  // no auto-kill; drains are driven explicitly

  constexpr int kReplicas = 3;
  std::vector<std::unique_ptr<ChaosReplica>> replicas;
  std::vector<std::uint16_t> ports;
  for (int i = 0; i < kReplicas; ++i) {
    replicas.push_back(std::make_unique<ChaosReplica>(
        [] { return std::make_shared<EchoPlusOneModel>(); }, config, fault));
    ports.push_back(replicas.back()->port());
  }

  ReplicaSetConfig rc;
  rc.overload_retry_passes = 3;
  rc.down_probe_after_ms = 50;
  rc.metrics = registry;
  ReplicaSet set(ports, rc);

  constexpr int kThreads = 16;
  constexpr int kSessionsPerThread = 4;  // 64 live sessions
  std::atomic<bool> stop{false};
  std::atomic<int> dropped{0};
  // Event-driven pacing: phase 0 is "every player has opened its sessions
  // and finished a round"; phase k > 0 is "every player has finished a round
  // since restart k". Each player counts down a phase's latch once, at the
  // end of its first round in that phase.
  std::vector<std::unique_ptr<std::latch>> phases;
  for (int k = 0; k <= kReplicas; ++k)
    phases.push_back(std::make_unique<std::latch>(kThreads));
  std::atomic<int> phase{0};
  std::vector<std::thread> players;
  for (int t = 0; t < kThreads; ++t) {
    players.emplace_back([&, t] {
      std::vector<std::uint64_t> ids;
      int counted = -1;  // last phase this player counted down
      try {
        for (int s = 0; s < kSessionsPerThread; ++s)
          ids.push_back(
              set.hello(features(), static_cast<double>(t % 24)).session_id);
        int round = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          for (const std::uint64_t id : ids) {
            const double sample = 1.0 + (t + round) % 7;
            const PredictionResponse r = set.observe_response(id, sample);
            if (r.mbps != sample + 1.0) ++dropped;
          }
          ++round;
          const int now = phase.load();
          if (now > counted) {
            phases[static_cast<std::size_t>(now)]->count_down();
            counted = now;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      } catch (const std::exception&) {
        // Any thrown operation is a dropped session — the soak's failure.
        ++dropped;
        // Never block the restarts behind a player that is gone.
        for (int k = counted + 1; k <= kReplicas; ++k)
          phases[static_cast<std::size_t>(k)]->count_down();
      }
      try {
        for (const std::uint64_t id : ids) set.bye(id);
      } catch (const std::exception&) {
        // BYE is best-effort by contract.
      }
    });
  }

  // Once the fleet of sessions is established, restart every replica in
  // turn: each must drain clean (sessions migrated or reaped) before its
  // deadline, and no player may ever see a failed operation.
  phases[0]->wait();
  std::vector<bool> clean;
  for (auto& replica : replicas) {
    clean.push_back(replica->drain_and_restart(/*drain_deadline_ms=*/5'000));
    phases[static_cast<std::size_t>(phase.fetch_add(1) + 1)]->wait();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : players) t.join();

  EXPECT_EQ(dropped.load(), 0);
  for (int i = 0; i < kReplicas; ++i) {
    EXPECT_TRUE(clean[static_cast<std::size_t>(i)]) << "replica " << i;
    EXPECT_EQ(replicas[static_cast<std::size_t>(i)]->drains(), 1u);
    EXPECT_EQ(replicas[static_cast<std::size_t>(i)]->resurrections(), 1u);
  }
  EXPECT_GE(set.planned_migrations(), 1u);

  // Drain telemetry is scrapable over the wire from any live replica (the
  // registry is shared across the tier).
  PredictionClient scraper(ports[0]);
  const StatsResponse stats = scraper.stats();
  EXPECT_GE(series_value(stats.exposition, "cs2p_server_last_drain_seconds"),
            0.0);
  EXPECT_GE(series_value(stats.exposition, "cs2p_server_drain_rejections_total"),
            0.0);
}

}  // namespace
}  // namespace cs2p
