#include "net/replica_set.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "predictors/predictor.h"
#include "util/hash.h"

namespace cs2p {
namespace {

/// Consecutive failed operations before a SUSPECT replica is DOWN.
constexpr int kDownAfterFailures = 2;
/// Consecutive successes before a SUSPECT/DOWN replica is HEALTHY again.
constexpr int kRecoverAfterSuccesses = 2;
/// Upper bound honored for a server-supplied retry-after hint; a
/// misconfigured server cannot park clients for minutes.
constexpr std::uint32_t kMaxRetryAfterMs = 2'000;

}  // namespace

std::string_view replica_health_name(ReplicaHealth health) noexcept {
  switch (health) {
    case ReplicaHealth::kHealthy: return "HEALTHY";
    case ReplicaHealth::kSuspect: return "SUSPECT";
    case ReplicaHealth::kDown: return "DOWN";
  }
  return "UNKNOWN";
}

std::uint64_t make_session_key(const SessionFeatures& features,
                               double start_hour,
                               std::uint64_t nonce) noexcept {
  // FNV-1a, then the SplitMix64 finalizer: FNV alone has weak high bits,
  // and rendezvous ranking compares full 64-bit scores.
  std::uint64_t hash = fnv1a64(features.isp);
  hash = fnv1a64(features.as_number, hash);
  hash = fnv1a64(features.province, hash);
  hash = fnv1a64(features.city, hash);
  hash = fnv1a64(features.server, hash);
  hash = fnv1a64(features.client_prefix, hash);
  std::uint64_t hour_bits = 0;
  static_assert(sizeof(hour_bits) == sizeof(start_hour));
  __builtin_memcpy(&hour_bits, &start_hour, sizeof(hour_bits));
  hash = fnv1a64_u64(hash, hour_bits);
  hash = fnv1a64_u64(hash, nonce);
  return mix64(hash);
}

std::uint64_t rendezvous_score(std::uint64_t key,
                               std::string_view name) noexcept {
  return mix64(fnv1a64_u64(fnv1a64(name), key));
}

ReplicaSet::ReplicaSet(std::vector<Endpoint> endpoints,
                       ReplicaSetConfig config)
    : config_(std::move(config)),
      metrics_(config_.metrics ? config_.metrics
                               : std::make_shared<obs::MetricsRegistry>()) {
  if (endpoints.empty())
    throw std::invalid_argument("ReplicaSet: no replicas");
  failovers_ = &metrics_->counter("cs2p_client_failovers_total");
  planned_migrations_ =
      &metrics_->counter("cs2p_client_planned_migrations_total");
  failover_seconds_ =
      &metrics_->histogram("cs2p_client_failover_seconds",
                           obs::default_latency_buckets_seconds());
  recovery_seconds_ =
      &metrics_->histogram("cs2p_client_replica_recovery_seconds",
                           obs::default_duration_buckets_seconds());
  replicas_.reserve(endpoints.size());
  std::uint64_t replica_index = 0;
  for (auto& endpoint : endpoints) {
    if (endpoint.name.empty())
      throw std::invalid_argument("ReplicaSet: empty replica name");
    if (!endpoint.connector)
      throw std::invalid_argument("ReplicaSet: null connector for " +
                                  endpoint.name);
    auto replica = std::make_unique<Replica>();
    replica->name = endpoint.name;
    ClientConfig client_config = config_.client;
    client_config.metrics = metrics_;
    // Distinct jitter streams per replica: a shared seed would re-sync the
    // very retry storms jitter exists to break up.
    client_config.backoff_seed = mix64(
        client_config.backoff_seed ^ fnv1a64_u64(kFnv1a64Offset, replica_index));
    replica->client = std::make_unique<PredictionClient>(
        std::move(endpoint.connector), client_config);
    replica->failures = &metrics_->counter(
        "cs2p_client_replica_failures_total", {{"replica", replica->name}});
    replica->health_gauge = &metrics_->gauge("cs2p_client_replica_health",
                                             {{"replica", replica->name}});
    replica->health_gauge->set(0.0);
    replica->draining_gauge = &metrics_->gauge(
        "cs2p_client_replica_draining", {{"replica", replica->name}});
    replica->draining_gauge->set(0.0);
    replicas_.push_back(std::move(replica));
    ++replica_index;
  }
}

ReplicaSet::ReplicaSet(const std::vector<std::uint16_t>& ports,
                       ReplicaSetConfig config)
    : ReplicaSet(
          [&ports, &config] {
            std::vector<Endpoint> endpoints;
            endpoints.reserve(ports.size());
            for (const std::uint16_t port : ports) {
              TransportDeadlines deadlines;
              deadlines.recv_timeout_ms = config.client.recv_timeout_ms;
              deadlines.send_timeout_ms = config.client.send_timeout_ms;
              endpoints.push_back(
                  Endpoint{"127.0.0.1:" + std::to_string(port),
                           loopback_connector(port, deadlines)});
            }
            return endpoints;
          }(),
          std::move(config)) {}

std::vector<std::size_t> ReplicaSet::preference_order(
    std::uint64_t key) const {
  std::vector<std::size_t> order(replicas_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto sa = rendezvous_score(key, replicas_[a]->name);
    const auto sb = rendezvous_score(key, replicas_[b]->name);
    if (sa != sb) return sa > sb;
    return a < b;  // total order even on (vanishingly unlikely) score ties
  });
  return order;
}

ReplicaHealth ReplicaSet::health(std::size_t index) const {
  std::scoped_lock lock(health_mutex_);
  return replicas_.at(index)->health;
}

std::size_t ReplicaSet::session_replica(std::uint64_t session_id) const {
  std::scoped_lock lock(sessions_mutex_);
  return sessions_.at(session_id).replica;
}

std::vector<std::size_t> ReplicaSet::candidates(std::uint64_t key,
                                                bool include_resting_down) {
  const auto order = preference_order(key);
  std::vector<std::size_t> usable;
  std::vector<std::size_t> draining;
  std::vector<std::size_t> resting;
  const auto now = Clock::now();
  const auto probe_rest =
      std::chrono::milliseconds(std::max(0, config_.down_probe_after_ms));
  std::scoped_lock lock(health_mutex_);
  for (const std::size_t index : order) {
    Replica& replica = *replicas_[index];
    if (replica.health != ReplicaHealth::kDown) {
      // A draining replica still serves its sessions but refuses new ones:
      // rank it behind every non-draining replica so placements avoid it,
      // but keep it ahead of resting-DOWN — it is alive and may have
      // restarted (in which case its reply clears the flag).
      (replica.draining ? draining : usable).push_back(index);
      continue;
    }
    const auto rested_since =
        std::max(replica.down_since, replica.last_probe);
    if (now - rested_since >= probe_rest) {
      replica.last_probe = now;  // one probe per rest interval, not a stampede
      usable.push_back(index);
    } else {
      resting.push_back(index);
    }
  }
  usable.insert(usable.end(), draining.begin(), draining.end());
  if (include_resting_down)
    usable.insert(usable.end(), resting.begin(), resting.end());
  return usable;
}

bool ReplicaSet::replica_draining(std::size_t index) const {
  std::scoped_lock lock(health_mutex_);
  return replicas_.at(index)->draining;
}

void ReplicaSet::set_draining(std::size_t index, bool draining) {
  Replica& replica = *replicas_[index];
  std::scoped_lock lock(health_mutex_);
  if (replica.draining == draining) return;
  replica.draining = draining;
  replica.draining_gauge->set(draining ? 1.0 : 0.0);
}

void ReplicaSet::overload_backoff(std::uint32_t retry_after_ms) {
  const int capped =
      static_cast<int>(std::min(retry_after_ms, kMaxRetryAfterMs));
  int sleep_ms = 0;
  {
    std::scoped_lock lock(backoff_mutex_);
    sleep_ms = jittered_backoff_ms(std::max(1, capped),
                                   config_.client.backoff_jitter, backoff_rng_);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
}

void ReplicaSet::record_failure(std::size_t index) {
  Replica& replica = *replicas_[index];
  replica.failures->inc();
  std::scoped_lock lock(health_mutex_);
  replica.success_streak = 0;
  replica.failure_streak += 1;
  if (replica.health == ReplicaHealth::kHealthy)
    replica.health = ReplicaHealth::kSuspect;
  if (replica.health == ReplicaHealth::kSuspect &&
      replica.failure_streak >= kDownAfterFailures) {
    replica.health = ReplicaHealth::kDown;
    replica.down_since = Clock::now();
    replica.last_probe = replica.down_since;
  }
  replica.health_gauge->set(static_cast<double>(
      static_cast<std::uint8_t>(replica.health)));
}

void ReplicaSet::record_success(std::size_t index) {
  Replica& replica = *replicas_[index];
  std::scoped_lock lock(health_mutex_);
  replica.failure_streak = 0;
  if (replica.health == ReplicaHealth::kHealthy) return;
  replica.success_streak += 1;
  if (replica.success_streak < kRecoverAfterSuccesses) return;
  if (replica.health == ReplicaHealth::kDown)
    recovery_seconds_->observe(
        std::chrono::duration<double>(Clock::now() - replica.down_since)
            .count());
  replica.health = ReplicaHealth::kHealthy;
  replica.success_streak = 0;
  replica.health_gauge->set(0.0);
}

bool ReplicaSet::classify_failure(std::size_t index, Failures& failures) {
  if (failures.first == Clock::time_point{}) failures.first = Clock::now();
  try {
    throw;
  } catch (const ServerError& e) {
    if (e.code() == WireErrorCode::kUnknownSession) {
      // The replica answered, so it is up: it restarted or evicted the
      // session. No health penalty; the caller replays HELLO there first.
      failures.last = std::current_exception();
      return true;
    }
    // OVERLOADED / SHUTTING_DOWN: the replica told us to go elsewhere.
    // Anything else (BAD_REQUEST, INVALID_SAMPLE, ...) reflects our request,
    // and would fail identically on every replica.
    if (e.code() != WireErrorCode::kOverloaded &&
        e.code() != WireErrorCode::kShuttingDown)
      throw;
    if (e.code() == WireErrorCode::kShuttingDown) set_draining(index, true);
    if (e.retry_after_ms() > 0 && (failures.retry_after_ms == 0 ||
                                   e.retry_after_ms() < failures.retry_after_ms))
      failures.retry_after_ms = e.retry_after_ms();
  } catch (const TransportError&) {
    // Past the connection's own retry budget: refused connect, deadline.
  } catch (const ProtocolError&) {
    // A desynced stream.
  }
  record_failure(index);
  failures.last = std::current_exception();
  return false;
}

template <typename Serve>
auto ReplicaSet::serve_session(std::uint64_t session_id, SessionRecord& record,
                               Serve&& serve)
    -> std::invoke_result_t<Serve&, PredictionClient&, const SessionResponse&> {
  const bool placed = session_id != 0;
  bool lost = false;  // the session's replica answered UNKNOWN_SESSION
  Failures failures;
  const int passes = std::max(1, config_.overload_retry_passes);
  for (int pass = 0; pass < passes; ++pass) {
    if (placed && !lost) {
      // Sticky: the session's own replica, no HELLO, nothing ranked.
      SessionResponse own;  // all an operation needs of it: the id
      own.session_id = record.remote_id;
      try {
        auto result = serve(*replicas_[record.replica]->client, own);
        record_success(record.replica);
        return result;
      } catch (...) {
        lost = classify_failure(record.replica, failures);
      }
    }
    // Replay HELLO down the preference list, ranked only now. The session's
    // own replica goes first if it lost the session and is skipped if it
    // just failed.
    std::vector<std::size_t> order =
        candidates(record.key, /*include_resting_down=*/true);
    if (placed) {
      std::erase(order, record.replica);
      if (lost) order.insert(order.begin(), record.replica);
    }
    for (const std::size_t index : order) {
      try {
        PredictionClient& client = *replicas_[index]->client;
        const SessionResponse session =
            client.hello(record.hello.features, record.hello.start_hour);
        // A draining replica refuses HELLO, so accepting one proves it is
        // not (anymore) — this is how a restarted replica sheds the flag.
        set_draining(index, false);
        auto result = serve(client, session);
        record_success(index);
        record.replica = index;
        record.remote_id = session.session_id;
        if (placed) {
          failovers_->inc();
          failover_seconds_->observe(
              std::chrono::duration<double>(Clock::now() - failures.first)
                  .count());
          std::scoped_lock lock(sessions_mutex_);
          const auto it = sessions_.find(session_id);
          if (it != sessions_.end()) it->second = record;
        }
        return result;
      } catch (...) {
        classify_failure(index, failures);
      }
    }
    // The whole tier turned us away. If any replica supplied a retry-after
    // hint, honor it (jittered) and sweep again instead of surfacing a
    // hot-spin-inducing error; without a hint there is nothing to wait for.
    if (failures.retry_after_ms == 0 || pass + 1 >= passes) break;
    overload_backoff(failures.retry_after_ms);
    failures.retry_after_ms = 0;
  }
  std::rethrow_exception(failures.last);
}

SessionResponse ReplicaSet::hello(const SessionFeatures& features,
                                  double start_hour) {
  SessionRecord record;
  record.hello = HelloRequest{features, start_hour};
  {
    std::scoped_lock lock(sessions_mutex_);
    record.key = make_session_key(features, start_hour, next_nonce_++);
  }
  SessionResponse response = serve_session(
      /*session_id=*/0, record,
      [](PredictionClient&, const SessionResponse& session) { return session; });
  std::scoped_lock lock(sessions_mutex_);
  response.session_id = next_session_id_++;
  sessions_[response.session_id] = std::move(record);
  return response;
}

ReplicaSet::SessionRecord ReplicaSet::record_copy(
    std::uint64_t session_id) const {
  std::scoped_lock lock(sessions_mutex_);
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end())
    throw std::invalid_argument("ReplicaSet: unknown session " +
                                std::to_string(session_id));
  return it->second;
}

template <typename Op>
PredictionResponse ReplicaSet::session_op(std::uint64_t session_id, Op&& op) {
  SessionRecord record = record_copy(session_id);
  const PredictionResponse response =
      serve_session(session_id, record, std::forward<Op>(op));
  const bool drain_hinted = (response.flags & serve_flags::kDraining) != 0;
  set_draining(record.replica, drain_hinted);
  // Planned migration (DESIGN.md §14): the reply is good, but the replica
  // told us it is draining — move the session now, while both sides are
  // still serving, instead of waiting for the replica to die under us.
  // Best-effort; the answer we already have is returned either way.
  if (drain_hinted) migrate_off_draining(session_id, record);
  return response;
}

void ReplicaSet::migrate_off_draining(std::uint64_t session_id,
                                      SessionRecord record) {
  const std::vector<std::size_t> order =
      candidates(record.key, /*include_resting_down=*/false);
  // Replicas still marked draining go last, as probes: the mark can be
  // stale — a drained replica that restarted sheds it only when traffic
  // lands on it again, and during a rolling restart the freshly restarted
  // replicas are exactly the marked ones. The HELLO doubles as the probe: a
  // genuinely draining target refuses it with SHUTTING_DOWN and keeps its
  // mark, a restarted one accepts and clears it.
  for (const bool probe_marked : {false, true}) {
    for (const std::size_t index : order) {
      if (index == record.replica || replica_draining(index) != probe_marked)
        continue;
      SessionRecord moved = record;
      try {
        const SessionResponse session = replicas_[index]->client->hello(
            record.hello.features, record.hello.start_hour);
        moved.replica = index;
        moved.remote_id = session.session_id;
        record_success(index);
        set_draining(index, false);  // the accepted HELLO is the probe result
      } catch (const ServerError& e) {
        if (e.code() == WireErrorCode::kShuttingDown)
          set_draining(index, true);
        record_failure(index);
        continue;  // try the next candidate
      } catch (const std::exception&) {
        record_failure(index);
        continue;
      }
      bool committed = false;
      {
        std::scoped_lock lock(sessions_mutex_);
        const auto it = sessions_.find(session_id);
        // The session may have BYEd or migrated concurrently; only commit
        // if it is still where we copied it from.
        if (it != sessions_.end() && it->second.replica == record.replica) {
          it->second = moved;
          committed = true;
        }
      }
      if (!committed) {
        // Lost the race: the session we just opened on `index` is an orphan.
        try {
          replicas_[index]->client->bye(moved.remote_id);
        } catch (const std::exception&) {
        }
        return;
      }
      planned_migrations_->inc();
      // Tell the draining replica the session is gone so its drain completes
      // now rather than when the shrunk TTL expires. Best-effort.
      try {
        replicas_[record.replica]->client->bye(record.remote_id);
      } catch (const std::exception&) {
      }
      return;
    }
  }
  // Every other replica is down or refused the HELLO: stay put — the shrunk
  // drain TTL or a later op will move us.
}

PredictionResponse ReplicaSet::observe_response(std::uint64_t session_id,
                                                double throughput_mbps) {
  return session_op(session_id, [&](PredictionClient& client,
                                    const SessionResponse& session) {
    return client.observe_response(session.session_id, throughput_mbps);
  });
}

PredictionResponse ReplicaSet::predict_response(std::uint64_t session_id,
                                                unsigned steps_ahead) {
  return session_op(session_id, [&](PredictionClient& client,
                                    const SessionResponse& session) {
    return client.predict_response(session.session_id, steps_ahead);
  });
}

void ReplicaSet::bye(std::uint64_t session_id) {
  SessionRecord record;
  {
    std::scoped_lock lock(sessions_mutex_);
    const auto it = sessions_.find(session_id);
    if (it == sessions_.end()) return;
    record = it->second;
    sessions_.erase(it);
  }
  try {
    replicas_[record.replica]->client->bye(record.remote_id);
    record_success(record.replica);
  } catch (const std::exception&) {
    // Best-effort: a dead replica forgets the session via TTL eviction, and
    // a BYE that cannot be delivered is not worth a migration.
    record_failure(record.replica);
  }
}

}  // namespace cs2p
