// Replicated serving tier tests (net/replica_set.h, DESIGN.md §13):
// rendezvous placement determinism, health-state hysteresis and recovery
// under traffic, session migration on replica death, re-placement of a lost
// session on its own replica, OVERLOADED-as-failover-signal, SYNC snapshot
// shipping (verified swap, bit-flip rejection, pull bootstrap), whole-replica
// chaos (ChaosReplica), cross-version frame rejection against live peers,
// and the 3-replica kill-one-mid-soak acceptance scenario.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <latch>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "net/client.h"
#include "net/fault_injection.h"
#include "net/replica_set.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "util/rng.h"

namespace cs2p {
namespace {

SessionFeatures features(const std::string& suffix = "0") {
  return {"ISP" + suffix, "AS" + suffix, "P" + suffix,
          "C" + suffix,   "S" + suffix,  "Pfx" + suffix};
}

/// Deterministic in-process model: initial = `initial`, forecast = last + 1.
class EchoPlusOneModel final : public PredictorModel {
 public:
  explicit EchoPlusOneModel(double initial = 2.0) : initial_(initial) {}
  std::string name() const override { return "EchoPlusOne"; }
  std::unique_ptr<SessionPredictor> make_session(
      const SessionContext&) const override {
    class S final : public SessionPredictor {
     public:
      explicit S(double initial) : initial_(initial) {}
      std::optional<double> predict_initial() const override {
        return initial_;
      }
      double predict(unsigned steps) const override {
        return last_ + static_cast<double>(steps);
      }
      void observe(double w) override { last_ = w; }

     private:
      double initial_;
      double last_ = 0.0;
    };
    return std::make_unique<S>(initial_);
  }

 private:
  double initial_;
};

/// Forecast = samples observed so far: a fresh filter answers 1 after its
/// first OBSERVE, one that kept its history answers more.
class CountingModel final : public PredictorModel {
 public:
  std::string name() const override { return "Counting"; }
  std::unique_ptr<SessionPredictor> make_session(
      const SessionContext&) const override {
    class S final : public SessionPredictor {
     public:
      std::optional<double> predict_initial() const override { return 1.0; }
      double predict(unsigned) const override { return seen_; }
      void observe(double) override { seen_ += 1.0; }

     private:
      double seen_ = 0.0;
    };
    return std::make_unique<S>();
  }
};

// -- Rendezvous placement ---------------------------------------------------

TEST(ReplicaSet, SessionKeyAndPreferenceOrderAreDeterministic) {
  const std::uint64_t key_a = make_session_key(features("a"), 8.0, 1);
  EXPECT_EQ(key_a, make_session_key(features("a"), 8.0, 1));
  // Nonce and features both perturb the key — identical-feature sessions
  // must not all pile onto one replica.
  EXPECT_NE(key_a, make_session_key(features("a"), 8.0, 2));
  EXPECT_NE(key_a, make_session_key(features("b"), 8.0, 1));

  // Scores are stable per (key, name): two independently constructed sets
  // over the same names rank identically.
  std::vector<std::unique_ptr<PredictionServer>> servers;
  std::vector<std::uint16_t> ports;
  for (int i = 0; i < 3; ++i) {
    servers.push_back(std::make_unique<PredictionServer>(
        std::make_shared<EchoPlusOneModel>()));
    ports.push_back(servers.back()->port());
  }
  ReplicaSet set_a(ports), set_b(ports);
  for (std::uint64_t key : {key_a, make_session_key(features("c"), 2.0, 7)}) {
    EXPECT_EQ(set_a.preference_order(key), set_b.preference_order(key));
    EXPECT_EQ(set_a.preference_order(key).size(), 3u);
  }
}

TEST(ReplicaSet, RemovingAReplicaOnlyMovesItsOwnSessions) {
  // The minimal-disruption property rendezvous hashing buys: dropping one
  // name leaves every session that preferred another name untouched.
  const std::vector<std::string> names{"r0", "r1", "r2"};
  for (std::uint64_t key = 1; key <= 200; ++key) {
    std::size_t best = 0;
    std::uint64_t best_score = 0;
    for (std::size_t i = 0; i < names.size(); ++i) {
      const std::uint64_t score = rendezvous_score(key, names[i]);
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    if (best == 2) continue;  // r2's sessions are the ones allowed to move
    std::size_t best_without = best == 0 ? 0 : 1;
    std::uint64_t s0 = rendezvous_score(key, names[0]);
    std::uint64_t s1 = rendezvous_score(key, names[1]);
    EXPECT_EQ(best_without == 0, s0 > s1);
    EXPECT_EQ(best, best_without);
  }
}

// -- Health hysteresis ------------------------------------------------------

TEST(ReplicaSet, HealthWalksSuspectDownAndRecovers) {
  // Reserve a port by binding and releasing it: connects then fail fast.
  std::uint16_t port = 0;
  {
    auto [listener, bound] = listen_loopback(0);
    port = bound;
  }
  ReplicaSetConfig config;
  config.client.max_retries = 0;
  config.client.recv_timeout_ms = 200;
  config.client.send_timeout_ms = 200;
  config.down_probe_after_ms = 0;  // probe immediately in tests
  ReplicaSet set(std::vector<std::uint16_t>{port}, config);

  EXPECT_EQ(set.health(0), ReplicaHealth::kHealthy);
  EXPECT_THROW(set.hello(features(), 1.0), TransportError);
  EXPECT_EQ(set.health(0), ReplicaHealth::kSuspect);
  EXPECT_THROW(set.hello(features(), 1.0), TransportError);
  EXPECT_EQ(set.health(0), ReplicaHealth::kDown);

  // Resurrect a real server on the reserved port: hysteresis demands a
  // success streak before HEALTHY, and the outage lands in the recovery
  // histogram.
  PredictionServer server(std::make_shared<EchoPlusOneModel>(), port);
  EXPECT_NO_THROW(set.hello(features("x"), 1.0));
  EXPECT_EQ(set.health(0), ReplicaHealth::kDown) << "one success is not enough";
  EXPECT_NO_THROW(set.hello(features("y"), 1.0));
  EXPECT_EQ(set.health(0), ReplicaHealth::kHealthy);
  const std::string scrape = set.metrics().scrape();
  EXPECT_NE(scrape.find("cs2p_client_replica_recovery_seconds_count 1"),
            std::string::npos)
      << scrape;
}

// Steady traffic on a healthy replica must not keep a recovered one from
// new sessions: an operation that its own replica answers ranks nothing, so
// it cannot restart a DOWN replica's probe rest, and the next HELLO probes.
TEST(ReplicaSet, RecoveredReplicaRejoinsUnderTraffic) {
  PredictionServer live(std::make_shared<EchoPlusOneModel>());
  std::uint16_t dead_port = 0;
  {
    auto [listener, bound] = listen_loopback(0);
    dead_port = bound;
  }
  constexpr int kProbeRestMs = 50;
  ReplicaSetConfig config;
  config.client.max_retries = 0;
  config.down_probe_after_ms = kProbeRestMs;
  ReplicaSet set(std::vector<std::uint16_t>{live.port(), dead_port}, config);

  // HELLOs that prefer the dead replica fail over to the live one until its
  // failure streak marks it DOWN; every session lands on the live replica.
  const SessionResponse steady = set.hello(features("steady"), 1.0);
  for (int i = 0; set.health(1) != ReplicaHealth::kDown; ++i) {
    ASSERT_LT(i, 64) << "the dead replica never went DOWN";
    set.hello(features(std::to_string(100 + i)), 1.0);
  }
  ASSERT_EQ(set.session_replica(steady.session_id), 0u);

  PredictionServer recovered(std::make_shared<EchoPlusOneModel>(), dead_port);
  int placed_on_recovered = 0;
  for (int i = 0; i < 20; ++i) {
    // Past the probe rest, then one operation of an existing session, then
    // a new session.
    std::this_thread::sleep_for(std::chrono::milliseconds(kProbeRestMs + 20));
    set.observe_response(steady.session_id, 1.0);
    const SessionResponse fresh = set.hello(features(std::to_string(200 + i)), 1.0);
    if (set.session_replica(fresh.session_id) == 1) ++placed_on_recovered;
  }
  EXPECT_GE(placed_on_recovered, 1);
  EXPECT_EQ(set.health(1), ReplicaHealth::kHealthy);
}

TEST(ReplicaSet, HealthNamesAreStable) {
  EXPECT_EQ(replica_health_name(ReplicaHealth::kHealthy), "HEALTHY");
  EXPECT_EQ(replica_health_name(ReplicaHealth::kSuspect), "SUSPECT");
  EXPECT_EQ(replica_health_name(ReplicaHealth::kDown), "DOWN");
}

// -- Failover ---------------------------------------------------------------

TEST(ReplicaSet, SessionMigratesWhenItsReplicaDies) {
  std::vector<std::unique_ptr<PredictionServer>> servers;
  std::vector<std::uint16_t> ports;
  for (int i = 0; i < 3; ++i) {
    servers.push_back(std::make_unique<PredictionServer>(
        std::make_shared<EchoPlusOneModel>()));
    ports.push_back(servers.back()->port());
  }
  ReplicaSetConfig config;
  config.client.max_retries = 1;
  config.client.backoff_initial_ms = 1;
  config.client.backoff_max_ms = 5;
  ReplicaSet set(ports, config);

  const SessionResponse session = set.hello(features(), 4.0);
  EXPECT_DOUBLE_EQ(session.initial_mbps, 2.0);
  const std::size_t home = set.session_replica(session.session_id);
  EXPECT_DOUBLE_EQ(set.observe_response(session.session_id, 5.0).mbps, 6.0);

  servers[home].reset();  // the whole replica dies, sessions and all

  // The next operation migrates via HELLO replay and still answers. The
  // migrated session restarts its filter (last=0), so OBSERVE(3) -> 4.
  EXPECT_DOUBLE_EQ(set.observe_response(session.session_id, 3.0).mbps, 4.0);
  EXPECT_NE(set.session_replica(session.session_id), home);
  EXPECT_EQ(set.failovers(), 1u);
  // Subsequent traffic sticks to the new replica — no further failovers.
  EXPECT_DOUBLE_EQ(set.predict_response(session.session_id, 2).mbps, 5.0);
  EXPECT_EQ(set.failovers(), 1u);
  set.bye(session.session_id);
}

TEST(ReplicaSet, LostSessionIsReplacedOnItsOwnReplica) {
  auto model = std::make_shared<CountingModel>();
  std::vector<std::unique_ptr<PredictionServer>> servers;
  std::vector<std::uint16_t> ports;
  for (int i = 0; i < 2; ++i) {
    servers.push_back(std::make_unique<PredictionServer>(model));
    ports.push_back(servers.back()->port());
  }
  ReplicaSet set(ports);

  const SessionResponse session = set.hello(features(), 2.0);
  const std::size_t home = set.session_replica(session.session_id);
  EXPECT_DOUBLE_EQ(set.observe_response(session.session_id, 1.0).mbps, 1.0);
  EXPECT_DOUBLE_EQ(set.observe_response(session.session_id, 1.0).mbps, 2.0);

  // Restart the session's replica on the same port: it is up, but the
  // session is gone.
  servers[home].reset();
  servers[home] = std::make_unique<PredictionServer>(model, ports[home]);

  // UNKNOWN_SESSION re-places the session by HELLO replay on that same
  // replica, and the answer comes from a fresh filter.
  EXPECT_DOUBLE_EQ(set.observe_response(session.session_id, 1.0).mbps, 1.0);
  EXPECT_EQ(set.session_replica(session.session_id), home);
  EXPECT_EQ(set.failovers(), 1u);
  EXPECT_EQ(servers[1 - home]->session_count(), 0u);
}

TEST(ReplicaSet, OverloadedReplyIsAFailoverSignalNotARetry) {
  // Replica A has a 1-connection cap, eaten by a parked raw connection, so
  // every new connect is answered with ERR OVERLOADED. Replica B is fine.
  ServerConfig small;
  small.max_connections = 1;
  auto server_a = std::make_unique<PredictionServer>(
      std::make_shared<EchoPlusOneModel>(), small);
  auto server_b = std::make_unique<PredictionServer>(
      std::make_shared<EchoPlusOneModel>());
  FdHandle parked = connect_loopback(server_a->port());
  // Wait until the parked connection occupies the slot.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (server_a->metrics().scrape().find(
             "cs2p_server_active_connections 1") == std::string::npos) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  ReplicaSetConfig config;
  config.client.max_retries = 1;
  config.client.backoff_initial_ms = 1;
  config.client.backoff_max_ms = 2;
  ReplicaSet set(std::vector<std::uint16_t>{server_a->port(), server_b->port()},
                 config);

  // Every HELLO must land (on B when A's cap refuses it); OVERLOADED
  // replies are counted in the dedicated registry counter, not retried into
  // A's cap.
  for (int i = 0; i < 16; ++i) {
    const SessionResponse session =
        set.hello(features("s" + std::to_string(i)), 1.0);
    EXPECT_DOUBLE_EQ(session.initial_mbps, 2.0);
  }
  std::uint64_t overloaded = set.replica_client(0).overloaded_replies() +
                             set.replica_client(1).overloaded_replies();
  EXPECT_GT(overloaded, 0u) << "no session ever preferred the capped replica";
  const std::string scrape = set.metrics().scrape();
  EXPECT_NE(scrape.find("cs2p_client_overloaded_replies_total"),
            std::string::npos);
  EXPECT_NE(scrape.find("cs2p_client_failovers_total"), std::string::npos);
}

// -- SYNC snapshot shipping -------------------------------------------------

/// sync_apply for tests: bytes are "initial=<value>"; anything else throws.
std::shared_ptr<const PredictorModel> parse_test_snapshot(
    const std::string& bytes) {
  const std::string prefix = "initial=";
  if (!bytes.starts_with(prefix))
    throw std::runtime_error("unrecognized snapshot payload");
  return std::make_shared<EchoPlusOneModel>(
      std::stod(bytes.substr(prefix.size())));
}

TEST(Sync, PushVerifiesAndHotSwaps) {
  ServerConfig config;
  config.sync_apply = parse_test_snapshot;
  PredictionServer server(std::make_shared<EchoPlusOneModel>(2.0), config);
  PredictionClient client(server.port());

  EXPECT_DOUBLE_EQ(client.hello(features("pre"), 1.0).initial_mbps, 2.0);
  client.push_snapshot("initial=7.5");
  EXPECT_EQ(server.syncs_applied(), 1u);
  EXPECT_EQ(server.models_swapped(), 1u);
  // New sessions serve the shipped model; the accepted snapshot is
  // republished for SYNCFETCH chaining.
  EXPECT_DOUBLE_EQ(client.hello(features("post"), 1.0).initial_mbps, 7.5);
  EXPECT_EQ(client.fetch_snapshot(), "initial=7.5");
}

TEST(Sync, MultiChunkSnapshotSurvivesPushAndFetch) {
  // > 2 chunks of payload, binary content: exercises the chunking loop on
  // both directions and byte-for-byte reassembly.
  std::string big = "initial=3.25\n";  // stod stops at the newline
  big.reserve(2 * kSyncChunkBytes + 1024);
  Rng rng(42);
  while (big.size() < 2 * kSyncChunkBytes + 777)
    big += static_cast<char>(rng.uniform_index(256));

  ServerConfig config;
  config.sync_apply = parse_test_snapshot;
  PredictionServer server(std::make_shared<EchoPlusOneModel>(), config);
  PredictionClient client(server.port());
  client.push_snapshot(big);
  EXPECT_EQ(server.syncs_applied(), 1u);
  EXPECT_DOUBLE_EQ(client.hello(features(), 1.0).initial_mbps, 3.25);
  EXPECT_EQ(client.fetch_snapshot(), big);
}

TEST(Sync, BitFlippedSnapshotIsRejectedAndNeverSwapsIn) {
  ServerConfig config;
  config.sync_apply = parse_test_snapshot;
  PredictionServer server(std::make_shared<EchoPlusOneModel>(2.0), config);

  const std::string clean = "initial=9.0";
  std::string corrupt = clean;
  corrupt[corrupt.size() - 2] ^= 0x10;  // one flipped bit in flight

  // Declare the clean snapshot's checksum but ship the corrupted bytes —
  // what a torn write or flaky NIC produces. COMMIT must answer
  // SYNC_REJECTED and the served model must be untouched.
  FdHandle raw = connect_loopback(server.port());
  const auto round_trip = [&raw](const Request& request) {
    send_frame(raw, serialize_request(request));
    const auto reply = recv_frame(raw);
    if (!reply.has_value()) throw std::runtime_error("connection closed");
    return parse_response(*reply);
  };
  ASSERT_TRUE(std::holds_alternative<OkResponse>(
      round_trip(SyncBeginRequest{clean.size(), sync_checksum(clean)})));
  ASSERT_TRUE(std::holds_alternative<OkResponse>(
      round_trip(SyncChunkRequest{corrupt})));
  const Response commit = round_trip(SyncCommitRequest{});
  const auto* err = std::get_if<ErrorResponse>(&commit);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, WireErrorCode::kSyncRejected);

  EXPECT_EQ(server.syncs_rejected(), 1u);
  EXPECT_EQ(server.syncs_applied(), 0u);
  EXPECT_EQ(server.models_swapped(), 0u) << "corrupt model must never swap in";
  PredictionClient client(server.port());
  EXPECT_DOUBLE_EQ(client.hello(features(), 1.0).initial_mbps, 2.0);
  EXPECT_THROW(client.fetch_snapshot(), ServerError);  // nothing published
}

TEST(Sync, OutOfOrderAndOversizedShipmentsAreRejected) {
  ServerConfig config;
  config.sync_apply = parse_test_snapshot;
  config.max_sync_bytes = 1024;
  PredictionServer server(std::make_shared<EchoPlusOneModel>(), config);
  PredictionClient client(server.port());

  // COMMIT and DATA without a BEGIN answer SYNC_REJECTED.
  try {
    client.push_snapshot(std::string(2048, 'x'));  // over max_sync_bytes
    FAIL() << "oversized snapshot accepted";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kSyncRejected);
  }
  EXPECT_EQ(server.syncs_applied(), 0u);
  EXPECT_GT(server.syncs_rejected(), 0u);
}

TEST(Sync, DisabledByDefaultRefusesShipments) {
  PredictionServer server(std::make_shared<EchoPlusOneModel>());  // no sync_apply
  PredictionClient client(server.port());
  try {
    client.push_snapshot("initial=1.0");
    FAIL() << "SYNC accepted without sync_apply";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kSyncRejected);
  }
  EXPECT_EQ(server.models_swapped(), 0u);
}

// -- SYNC vs zero-downtime drain (the §13 x §14 interaction) ----------------

TEST(Sync, PushArrivingMidDrainIsCleanlyRejected) {
  ServerConfig config;
  config.sync_apply = parse_test_snapshot;
  PredictionServer server(std::make_shared<EchoPlusOneModel>(2.0), config);
  PredictionClient client(server.port());
  const auto session = client.hello(features(), 1.0);  // holds the drain open

  // A model push landing on an already-admitted connection after the drain
  // starts: a draining replica is about to disappear, so starting a new
  // shipment is refused outright — never half-staged, never a torn swap.
  server.begin_drain();
  try {
    client.push_snapshot("initial=9.0");
    FAIL() << "draining replica accepted a new SYNC shipment";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kSyncRejected);
  }
  EXPECT_EQ(server.syncs_applied(), 0u);
  EXPECT_EQ(server.models_swapped(), 0u);

  // The in-flight session keeps serving on the untouched incumbent.
  EXPECT_DOUBLE_EQ(client.observe(session.session_id, 3.0), 4.0);
  client.bye(session.session_id);
  EXPECT_TRUE(server.wait_drained(2'000));
}

TEST(Sync, ShipmentStagedBeforeDrainCommitsAtomically) {
  ServerConfig config;
  config.sync_apply = parse_test_snapshot;
  PredictionServer server(std::make_shared<EchoPlusOneModel>(2.0), config);

  const std::string bytes = "initial=7.5";
  FdHandle raw = connect_loopback(server.port());
  const auto round_trip = [&raw](const Request& request) {
    send_frame(raw, serialize_request(request));
    const auto reply = recv_frame(raw);
    if (!reply.has_value()) throw std::runtime_error("connection closed");
    return parse_response(*reply);
  };
  ASSERT_TRUE(std::holds_alternative<OkResponse>(
      round_trip(SyncBeginRequest{bytes.size(), sync_checksum(bytes)})));
  ASSERT_TRUE(std::holds_alternative<OkResponse>(
      round_trip(SyncChunkRequest{bytes})));

  // Drain starts with the shipment fully staged and verified bytes already
  // on the replica: the commit still applies atomically (verify -> decode ->
  // swap is one step) — the other leg of "rejected or swapped, never torn".
  server.begin_drain();
  const Response commit = round_trip(SyncCommitRequest{});
  EXPECT_TRUE(std::holds_alternative<OkResponse>(commit))
      << "staged-before-drain commit must still apply";
  EXPECT_EQ(server.syncs_applied(), 1u);
  EXPECT_EQ(server.syncs_rejected(), 0u);
  EXPECT_EQ(server.models_swapped(), 1u);
  EXPECT_TRUE(server.wait_drained(2'000));
}

// -- Cross-version frame rejection against live peers -----------------------

TEST(CrossVersion, V3ClientAgainstV4ServerGetsCleanRejection) {
  // A v3 (pre-SYNC) peer sends a version-3 frame to a live v4 server. The
  // server must drop the connection at the frame header — the client sees
  // prompt EOF, never a hang or a half-parsed reply.
  PredictionServer server(std::make_shared<EchoPlusOneModel>());
  FdHandle raw = connect_loopback(server.port());
  const std::string payload = "STATS";
  std::string frame;
  frame += static_cast<char>(3);  // old version byte
  frame += static_cast<char>(0);
  frame += static_cast<char>(0);
  frame += static_cast<char>(payload.size());
  frame += payload;
  std::vector<std::byte> bytes(frame.size());
  std::memcpy(bytes.data(), frame.data(), frame.size());
  send_all(raw, bytes);

  std::byte sink[16];
  ASSERT_TRUE(wait_readable(raw, /*timeout_ms=*/5000))
      << "server neither replied nor closed within the deadline";
  EXPECT_EQ(::recv(raw.get(), sink, sizeof(sink), 0), 0)
      << "expected EOF, got bytes or an error";
}

TEST(CrossVersion, V4ClientAgainstV3ServerGetsProtocolError) {
  // The inverse: a v4 client reads a reply framed with version byte 3. The
  // framing layer must throw ProtocolError before any payload parsing.
  auto [listener, port] = listen_loopback(0);
  std::thread v3_server([&listener] {
    FdHandle conn = accept_connection(listener);
    const std::string payload = "OK";
    std::string frame;
    frame += static_cast<char>(3);
    frame += static_cast<char>(0);
    frame += static_cast<char>(0);
    frame += static_cast<char>(payload.size());
    frame += payload;
    std::vector<std::byte> bytes(frame.size());
    std::memcpy(bytes.data(), frame.data(), frame.size());
    send_all(conn, bytes);
  });
  FdHandle client = connect_loopback(port);
  EXPECT_THROW(recv_frame(client), ProtocolError);
  v3_server.join();
}

// -- ChaosReplica -----------------------------------------------------------

TEST(ChaosReplica, DiesAfterQuotaAndResurrectsOnSamePort) {
  ReplicaFaultSpec fault;
  fault.die_after_requests = 3;
  fault.dead_for_ms = 50;
  ChaosReplica replica([] { return std::make_shared<EchoPlusOneModel>(); },
                       ServerConfig{}, fault);
  const std::uint16_t port = replica.port();
  ASSERT_TRUE(replica.alive());

  ClientConfig fast;
  fast.max_retries = 0;
  PredictionClient client(port, fast);
  const SessionResponse session = client.hello(features(), 1.0);
  client.observe(session.session_id, 1.0);
  client.predict(session.session_id, 1);
  replica.poll();  // quota reached -> killed
  EXPECT_FALSE(replica.alive());
  EXPECT_EQ(replica.kills(), 1u);
  EXPECT_THROW(client.observe(session.session_id, 2.0), TransportError);

  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  replica.poll();  // dwell elapsed -> resurrected on the same port
  ASSERT_TRUE(replica.alive());
  EXPECT_EQ(replica.resurrections(), 1u);
  EXPECT_EQ(replica.port(), port);
  // The resurrected server is fresh (old sessions are gone), but a new
  // HELLO on the same port serves immediately.
  PredictionClient fresh(port, fast);
  EXPECT_DOUBLE_EQ(fresh.hello(features(), 1.0).initial_mbps, 2.0);
}

// -- The acceptance scenario: 3 replicas, kill one mid-soak -----------------

TEST(ChaosSoak, KillOneReplicaMidSoakDropsNoSessions) {
  constexpr int kSessions = 64;
  constexpr int kChunks = 24;
  constexpr int kChunksBeforeKill = 4;
  // One registry across the tier and the client set: the acceptance
  // criterion is that failover/time-to-recover metrics are visible via a
  // STATS scrape on a *surviving* replica.
  auto registry = std::make_shared<obs::MetricsRegistry>();
  ServerConfig server_config;
  server_config.metrics = registry;
  server_config.max_connections = 16;  // the set multiplexes per replica
  ReplicaFaultSpec fault;
  fault.die_after_requests = 0;  // killed explicitly mid-soak
  fault.dead_for_ms = 400;
  fault.resurrect = true;

  std::vector<std::unique_ptr<ChaosReplica>> replicas;
  std::vector<std::uint16_t> ports;
  for (int i = 0; i < 3; ++i) {
    replicas.push_back(std::make_unique<ChaosReplica>(
        [] { return std::make_shared<EchoPlusOneModel>(); }, server_config,
        fault));
    ports.push_back(replicas.back()->port());
  }

  ReplicaSetConfig set_config;
  set_config.client.recv_timeout_ms = 2'000;
  set_config.client.send_timeout_ms = 2'000;
  set_config.client.max_retries = 1;
  set_config.client.backoff_initial_ms = 1;
  set_config.client.backoff_max_ms = 10;
  set_config.down_probe_after_ms = 100;
  set_config.metrics = registry;
  ReplicaSet set(ports, set_config);

  std::atomic<int> completed{0};
  std::atomic<int> dropped{0};
  std::atomic<long> max_chunk_us{0};
  std::atomic<bool> start{false};
  // Event-driven fault: the kill fires once every player has completed
  // kChunksBeforeKill chunks, and players hold there until it has — so
  // every session is mid-stream at the kill however loaded the machine is.
  std::latch reached_kill_point(kSessions);
  std::latch killed(1);
  std::vector<std::thread> players;
  players.reserve(kSessions);
  for (int p = 0; p < kSessions; ++p) {
    players.emplace_back([&, p] {
      while (!start.load()) std::this_thread::yield();
      bool arrived = false;
      try {
        const SessionResponse session =
            set.hello(features("p" + std::to_string(p)), p % 24);
        for (int chunk = 0; chunk < kChunks; ++chunk) {
          if (chunk == kChunksBeforeKill) {
            arrived = true;
            reached_kill_point.count_down();
            killed.wait();
          }
          const auto t0 = std::chrono::steady_clock::now();
          set.observe_response(session.session_id, 1.0 + 0.1 * chunk);
          const long us =
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
          long seen = max_chunk_us.load();
          while (us > seen && !max_chunk_us.compare_exchange_weak(seen, us)) {
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        set.bye(session.session_id);
        completed.fetch_add(1);
      } catch (const std::exception&) {
        dropped.fetch_add(1);
        if (!arrived) reached_kill_point.count_down();  // never block the kill
      }
    });
  }
  start.store(true);
  // Kill one replica outright mid-soak. Its monitor resurrects it after the
  // dwell; surviving replicas absorb the sessions.
  reached_kill_point.wait();
  replicas[0]->kill_now();
  replicas[0]->start_monitor();
  killed.count_down();
  for (auto& player : players) player.join();

  EXPECT_EQ(dropped.load(), 0) << "sessions dropped during replica kill";
  EXPECT_EQ(completed.load(), kSessions);
  EXPECT_GE(replicas[0]->kills(), 1u);
  // Bounded per-chunk stall: worst chunk rides one failover — deadlines,
  // one retry round and a HELLO replay — far under the 10 s of a player
  // abandoning the stream.
  EXPECT_LT(max_chunk_us.load(), 10'000'000L);

  // Failover metrics must be visible via a STATS scrape on a surviving
  // replica (the tier shares the registry, so any live node exports them).
  PredictionClient scraper(replicas[1]->port());
  const std::string exposition = scraper.stats().exposition;
  EXPECT_NE(exposition.find("cs2p_client_failovers_total"), std::string::npos);
  EXPECT_NE(exposition.find("cs2p_client_replica_health"), std::string::npos);
  EXPECT_GT(set.failovers(), 0u) << "the kill was never noticed";
}

}  // namespace
}  // namespace cs2p
