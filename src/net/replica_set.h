// ReplicaSet: the client-side session layer of the prediction service
// (DESIGN.md §13) — the one SessionClient, and the only holder of session
// state: handles, HELLO replay, placement and failover all live here. A set
// with one endpoint is the single-server case.
//
// The paper's pilot (§6–§7) runs prediction as one always-on service; at
// million-user scale that service is N replicas, and the client is where
// failover must live — the prediction service sits on the ABR critical
// path, so a dead replica must cost one migration, not a dropped session.
//
// Placement: rendezvous (highest-random-weight) hashing. Each session draws
// a key from its features + start hour + a local nonce and scores every
// replica against that key; sorting the scores yields a per-session
// preference list that every client computes identically with no
// coordination, and removing a replica only moves the sessions that
// preferred it (the minimal-disruption property consistent hashing is used
// for).
//
// Re-placement: a session sticks to its replica, and each operation goes
// there first with no HELLO and no ranking. Only when that fails does the
// set rank the preference list and replay the session's HELLO down it:
//   - UNKNOWN_SESSION (the replica restarted or evicted the session): the
//     replica is up, so the replay tries it first;
//   - a failover signal — transport failure past the connection's retry
//     budget (connect refusal, deadline), a desynced stream, or an
//     OVERLOADED / SHUTTING_DOWN reply (the replica is shedding load;
//     hammering the same socket makes it worse): the replay skips it.
// The operation is then re-issued on the new placement. The server-side
// filter restarts from the cluster prior — a forecast-quality hiccup, never
// a player-visible failure.
//
// Health: per-replica HEALTHY → SUSPECT (first failure) → DOWN (a streak of
// two failures) with hysteresis, mirroring predictors/guardrail.h's
// SurpriseMonitor — one failure must not banish a replica, and recovery
// requires a streak of two successes so a flapping replica cannot
// oscillate. DOWN replicas are ranked last when placing sessions until a
// probe interval elapses; a successful probe walks the replica back to
// HEALTHY and records the outage duration (time-to-recover) in the obs
// registry.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "net/client.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace cs2p {

/// Per-replica availability as seen from this client. Numeric values are
/// what the cs2p_client_replica_health gauge exports.
enum class ReplicaHealth : std::uint8_t {
  kHealthy = 0,  ///< serving normally
  kSuspect = 1,  ///< failed recently; still tried, watched closely
  kDown = 2,     ///< failure streak exhausted; skipped except for probes
};

std::string_view replica_health_name(ReplicaHealth health) noexcept;

/// Failover and hysteresis knobs of one ReplicaSet.
struct ReplicaSetConfig {
  /// Per-replica connection policy (deadlines, retry budget, jitter). Each
  /// replica gets its own PredictionClient; backoff seeds are derived per
  /// replica so their jitter streams differ.
  ClientConfig client;
  /// How long a DOWN replica rests before new sessions probe it.
  int down_probe_after_ms = 500;
  /// When a whole candidate pass fails and at least one replica answered
  /// OVERLOADED/SHUTTING_DOWN with a retry-after hint, sleep that hint
  /// (jittered, capped at 2 s) and sweep again — up to this many passes in
  /// total. 1 disables the backoff (one pass, then the error surfaces).
  /// This is what turns a briefly all-shedding tier into a short stall
  /// instead of a hot-spin of HELLO replays.
  int overload_retry_passes = 2;
  /// Telemetry sink shared by the set and its per-replica clients
  /// (failovers, per-replica health/failures, time-to-recover). Null: a
  /// private registry.
  std::shared_ptr<obs::MetricsRegistry> metrics;
};

/// Deterministic rendezvous key of one session: mixes the feature tuple,
/// the start hour, and a caller-supplied nonce (distinct sessions with
/// identical features must not all land on one replica).
std::uint64_t make_session_key(const SessionFeatures& features,
                               double start_hour, std::uint64_t nonce) noexcept;

/// Rendezvous score of `key` on the replica named `name`; the preference
/// list is replicas sorted by this, descending. Pure and stable — every
/// client ranks identically.
std::uint64_t rendezvous_score(std::uint64_t key, std::string_view name) noexcept;

/// SessionClient over N replicas with rendezvous placement and automatic
/// failover. Thread-safe: concurrent sessions migrate independently (no
/// lock is ever held across a network call).
class ReplicaSet final : public SessionClient {
 public:
  /// One serving replica: a stable name (the rendezvous identity — keep it
  /// stable across restarts or every session re-ranks) and the transport
  /// factory its client (re)connects through.
  struct Endpoint {
    std::string name;
    TransportFactory connector;
  };

  ReplicaSet(std::vector<Endpoint> endpoints, ReplicaSetConfig config = {});

  /// Convenience: loopback replicas on `ports`, named "127.0.0.1:<port>".
  explicit ReplicaSet(const std::vector<std::uint16_t>& ports,
                      ReplicaSetConfig config = {});

  // SessionClient surface. hello() places the session on its preference
  // list; the session_id returned is a ReplicaSet-local handle that stays
  // valid across any number of re-placements.
  SessionResponse hello(const SessionFeatures& features,
                        double start_hour) override;
  PredictionResponse observe_response(std::uint64_t session_id,
                                      double throughput_mbps) override;
  PredictionResponse predict_response(std::uint64_t session_id,
                                      unsigned steps_ahead) override;
  /// Best-effort: a replica that died still forgets the session via TTL.
  void bye(std::uint64_t session_id) override;

  std::size_t replica_count() const noexcept { return replicas_.size(); }

  /// The preference list (replica indices, best first) this set computes
  /// for `key` — exposed so tests can assert placement determinism.
  std::vector<std::size_t> preference_order(std::uint64_t key) const;

  /// Health of replica `index` as currently believed.
  ReplicaHealth health(std::size_t index) const;

  /// Sessions successfully re-placed by HELLO replay: onto another replica
  /// after a failover signal, or onto their own after UNKNOWN_SESSION.
  std::uint64_t failovers() const noexcept { return failovers_->value(); }

  /// Sessions moved off a replica that hinted kDraining on a reply — the
  /// proactive half of a zero-drop rolling restart (the session migrates
  /// while the old replica is still answering, not after it dies).
  std::uint64_t planned_migrations() const noexcept {
    return planned_migrations_->value();
  }

  /// Whether replica `index` is currently believed to be draining.
  bool replica_draining(std::size_t index) const;

  /// The replica `session_id` is currently served by.
  std::size_t session_replica(std::uint64_t session_id) const;

  /// The per-replica connection (test introspection: reconnects, overloaded
  /// replies). Index must be < replica_count().
  PredictionClient& replica_client(std::size_t index) {
    return *replicas_[index]->client;
  }

  /// The registry this set reports into (config metrics or the private one).
  obs::MetricsRegistry& metrics() const noexcept { return *metrics_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Replica {
    std::string name;
    std::unique_ptr<PredictionClient> client;
    // Health state below is guarded by ReplicaSet::health_mutex_.
    ReplicaHealth health = ReplicaHealth::kHealthy;
    int failure_streak = 0;
    int success_streak = 0;
    /// Replica hinted kDraining (or refused with SHUTTING_DOWN): new and
    /// migrating sessions prefer any non-draining replica, and served
    /// sessions proactively move off it. Cleared on the first reply without
    /// the hint (the replica restarted).
    bool draining = false;
    Clock::time_point down_since{};
    Clock::time_point last_probe{};
    obs::Counter* failures = nullptr;
    obs::Gauge* health_gauge = nullptr;
    obs::Gauge* draining_gauge = nullptr;
  };

  struct SessionRecord {
    HelloRequest hello;          ///< replayed on every re-placement
    std::uint64_t key = 0;       ///< rendezvous key (fixed at HELLO)
    std::size_t replica = 0;     ///< index currently serving the session
    std::uint64_t remote_id = 0; ///< that replica's session id
  };

  /// What the failed attempts of one operation left behind.
  struct Failures {
    std::exception_ptr last;          ///< rethrown when nothing succeeds
    std::uint32_t retry_after_ms = 0; ///< smallest server hint this pass
    Clock::time_point first{};        ///< when the first attempt failed
  };

  /// Candidate replicas for (re)placing a session with rendezvous key
  /// `key`: usable replicas (non-DOWN, or DOWN past the probe interval) in
  /// preference order, then the remaining DOWN replicas as a last resort —
  /// an all-replicas-down set still tries everything before giving up.
  std::vector<std::size_t> candidates(std::uint64_t key,
                                      bool include_resting_down);

  /// The one HELLO-replay loop. Runs `serve(client, session)` for the
  /// session in `record` and returns its result. A placed session
  /// (`session_id` != 0) goes to its own replica first with no HELLO;
  /// otherwise, or once that fails, HELLO is replayed down the ranked
  /// preference list and `serve` runs on the replica that accepted it, with
  /// its reply. Updates `record` to the final placement; a re-placed
  /// session is committed and counted as a failover.
  template <typename Serve>
  auto serve_session(std::uint64_t session_id, SessionRecord& record,
                     Serve&& serve)
      -> std::invoke_result_t<Serve&, PredictionClient&, const SessionResponse&>;

  /// The failure-classification helper; call from a catch block around an
  /// attempt on replica `index`. Errors that reflect the request rethrow.
  /// UNKNOWN_SESSION returns true: the replica is up but lost the session.
  /// Failover signals return false after counting against the replica's
  /// health and keeping the smallest retry-after hint.
  bool classify_failure(std::size_t index, Failures& failures);

  /// OBSERVE/PREDICT through serve_session, then the drain hint on the reply.
  template <typename Op>
  PredictionResponse session_op(std::uint64_t session_id, Op&& op);

  SessionRecord record_copy(std::uint64_t session_id) const;
  void record_failure(std::size_t index);
  void record_success(std::size_t index);
  void set_draining(std::size_t index, bool draining);
  /// Best-effort move of a session off a draining replica onto the best
  /// non-draining candidate: HELLO there, BYE here (so the old replica's
  /// drain completes without waiting out the TTL), update the record. The
  /// session stays put if there is nowhere better to go.
  void migrate_off_draining(std::uint64_t session_id, SessionRecord record);
  /// Jittered sleep honoring a server-supplied retry-after hint (capped).
  void overload_backoff(std::uint32_t retry_after_ms);

  ReplicaSetConfig config_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  std::vector<std::unique_ptr<Replica>> replicas_;

  mutable std::mutex health_mutex_;

  mutable std::mutex sessions_mutex_;
  std::unordered_map<std::uint64_t, SessionRecord> sessions_;
  std::uint64_t next_session_id_ = 1;
  std::uint64_t next_nonce_ = 0;

  mutable std::mutex backoff_mutex_;  ///< guards backoff_rng_
  Rng backoff_rng_{0x5eedc0dec52bULL};

  obs::Counter* failovers_ = nullptr;
  obs::Counter* planned_migrations_ = nullptr;
  obs::Histogram* failover_seconds_ = nullptr;
  obs::Histogram* recovery_seconds_ = nullptr;
};

}  // namespace cs2p
