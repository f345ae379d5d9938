// PredictionClient: one connection to a PredictionServer.
//
// Every session call (hello, observe, predict, bye) is one round trip in the
// server's own session ids, and MODEL, STATS and the SYNC verbs ride the same
// connection. Fault discipline of the connection itself:
//   - every round trip runs under send/recv deadlines (TimeoutError instead
//     of a hung socket),
//   - transport failures reconnect and retry with bounded, jittered
//     exponential backoff.
// The connection never heals a session: a server that lost one (restart,
// TTL eviction) answers UNKNOWN_SESSION, and the caller sees it.
//
// Surviving a lost server is ReplicaSet's job (net/replica_set.h), the one
// SessionClient: it holds every session handle and replays HELLO, and a set
// with one endpoint is the single-server case. RemoteSessionPredictor drives
// a SessionClient, so the player simulator can be pointed at a live tier
// unchanged — this is how the pilot-deployment bench (§7.5) drives CS2P+MPC
// through a real TCP round trip per chunk, like the dash.js player posting
// to the Node.js server in §6. When the tier is out of reach it does not
// throw into the player loop: it degrades to a local harmonic-mean fallback
// (the paper's §3 HM baseline) over the samples it has seen.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "net/socket.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "predictors/predictor.h"
#include "util/rng.h"

namespace cs2p {

/// Deadline/retry policy of one connection. max_retries counts retries after
/// the first attempt; backoff doubles (capped) between attempts, with full
/// jitter: each sleep is drawn uniformly from ((1 - jitter) * b, b]. Without
/// jitter, every client that lost the same replica retries on the same
/// deterministic schedule — a synchronized retry storm the instant it dies.
struct ClientConfig {
  int recv_timeout_ms = 2'000;
  int send_timeout_ms = 2'000;
  int max_retries = 3;
  int backoff_initial_ms = 10;
  int backoff_max_ms = 200;
  /// Fraction of each backoff randomized away (1.0 = full jitter, 0 = the
  /// old deterministic doubling).
  double backoff_jitter = 1.0;
  /// Seed of the jitter stream; deterministic so tests replay exactly.
  std::uint64_t backoff_seed = 0x9e3779b97f4a7c15ULL;
  /// Optional telemetry sink: OVERLOADED replies and retry counters land
  /// here when set (DESIGN.md §13). Null: client-local atomics only.
  std::shared_ptr<obs::MetricsRegistry> metrics;
};

/// The backoff actually slept before a retry: `backoff_ms` shrunk by up to
/// `jitter` of itself, uniformly at random. Pure — exposed so tests can
/// assert the jitter window without timing a sleep.
int jittered_backoff_ms(int backoff_ms, double jitter, Rng& rng) noexcept;

/// Player-facing session operations of the prediction service — the surface
/// RemoteSessionPredictor drives. Implemented by ReplicaSet (rendezvous-hash
/// placement and failover over one or more servers, net/replica_set.h);
/// an interface so benches can decorate it.
class SessionClient {
 public:
  virtual ~SessionClient() = default;

  virtual SessionResponse hello(const SessionFeatures& features,
                                double start_hour) = 0;
  virtual PredictionResponse observe_response(std::uint64_t session_id,
                                              double throughput_mbps) = 0;
  virtual PredictionResponse predict_response(std::uint64_t session_id,
                                              unsigned steps_ahead) = 0;
  virtual void bye(std::uint64_t session_id) = 0;
};

/// One connection to a PredictionServer; reconnects transparently.
/// Thread-safe (per-call lock).
class PredictionClient {
 public:
  /// Connects lazily to 127.0.0.1:`port` with the config's deadlines.
  explicit PredictionClient(std::uint16_t port, ClientConfig config = {});

  /// Uses `connector` for every (re)connect — this is how tests interpose
  /// FaultInjectingTransport.
  explicit PredictionClient(TransportFactory connector, ClientConfig config = {});

  /// Registers a session; returns the server's session id + initial
  /// prediction. Throws ServerError on server-reported errors,
  /// TransportError when the retry budget runs out.
  SessionResponse hello(const SessionFeatures& features, double start_hour);

  /// Reports a measurement; returns the next-epoch forecast.
  double observe(std::uint64_t session_id, double throughput_mbps);

  /// Requests an h-step-ahead forecast without new data.
  double predict(std::uint64_t session_id, unsigned steps_ahead);

  /// Full-reply variants carrying the v2 serve-flags byte alongside the
  /// forecast (why the server answered from the path it did).
  PredictionResponse observe_response(std::uint64_t session_id,
                                      double throughput_mbps);
  PredictionResponse predict_response(std::uint64_t session_id,
                                      unsigned steps_ahead);

  /// Ends a session server-side.
  void bye(std::uint64_t session_id);

  /// Downloads the compact per-session model for local execution (§5.3's
  /// client-side solution): no per-epoch round trips afterwards. Throws
  /// ServerError when the server's model family cannot export one.
  DownloadableModel download_model(const SessionFeatures& features,
                                   double start_hour);

  /// Scrapes the server's metrics registry (the v3 STATS verb): the raw
  /// versioned text exposition, exactly as the server rendered it. What
  /// cs2p_stats is built on.
  StatsResponse stats();

  /// Ships a model_store snapshot to the server over the v4 SYNC verbs
  /// (BEGIN, kSyncChunkBytes-sized DATA frames, COMMIT). The server
  /// verifies the declared checksum byte-for-byte before hot-swapping; a
  /// rejected snapshot throws ServerError{kSyncRejected} and the server
  /// keeps its current model. A mid-push reconnect (the server's staging is
  /// per-connection) restarts the whole sequence once before giving up.
  void push_snapshot(const std::string& snapshot_bytes);

  /// Pulls the server's published snapshot chunk by chunk (SYNCFETCH),
  /// verifying the declared checksum over the reassembled bytes. A
  /// republish mid-fetch restarts the pull. Throws ServerError when the
  /// server has no snapshot published, ProtocolError on a checksum mismatch.
  std::string fetch_snapshot();

  const ClientConfig& config() const noexcept { return config_; }

  /// Transport teardowns that forced a fresh connect.
  std::uint64_t reconnects() const noexcept { return reconnects_.load(); }

  /// Round-trip attempts beyond the first (any reason).
  std::uint64_t retries() const noexcept { return retries_.load(); }

  /// OVERLOADED replies seen (also counted in the registry when one is
  /// configured). A failover signal, not a retry-this-socket signal: the
  /// replica is at its connection cap and has closed the connection, so the
  /// client drops it (a reconnect) and ReplicaSet moves the session
  /// elsewhere.
  std::uint64_t overloaded_replies() const noexcept {
    return overloaded_.load();
  }

 private:
  void ensure_connected();
  Response locked_round_trip(const Request& request);
  /// locked_round_trip that insists on a `Reply`; `verb` names the request
  /// in the error otherwise.
  template <typename Reply>
  Reply locked_expect(const Request& request, std::string_view verb);

  std::mutex mutex_;
  TransportFactory connector_;
  ClientConfig config_;
  std::unique_ptr<Transport> transport_;
  Rng backoff_rng_;  ///< jitter stream; guarded by mutex_ like the transport
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> overloaded_{0};
  obs::Counter* overloaded_counter_ = nullptr;  ///< null without a registry
  obs::Counter* retries_counter_ = nullptr;
};

/// SessionPredictor adapter over a SessionClient. The client must outlive
/// the predictor.
///
/// Degradation contract: no member ever throws into the player loop. When
/// the service is unreachable past the client's retry budget (including a
/// failed HELLO), the predictor flips to degraded() and serves a harmonic
/// mean of the throughput samples observed so far — the player keeps
/// streaming on the paper's HM baseline and the §7.5 bench can report
/// QoE-under-failure.
class RemoteSessionPredictor final : public SessionPredictor {
 public:
  RemoteSessionPredictor(SessionClient& client, const SessionFeatures& features,
                         double start_hour);
  ~RemoteSessionPredictor() override;

  RemoteSessionPredictor(const RemoteSessionPredictor&) = delete;
  RemoteSessionPredictor& operator=(const RemoteSessionPredictor&) = delete;

  std::optional<double> predict_initial() const override;
  double predict(unsigned steps_ahead) const override;
  void observe(double throughput_mbps) override;

  /// True once the predictor has switched to the local fallback.
  bool degraded() const noexcept { return degraded_; }

  /// Local fallback state plus the server-reported serving path of the last
  /// reply: a remote player can tell "the service is gone" (kRemoteFallback)
  /// from "the service is up but serving me from a guardrail fallback or a
  /// drifted cluster" (server bits passed through).
  std::uint8_t serve_flags() const override;

  /// serve_flags byte of the most recent server reply (0 before any).
  std::uint8_t last_server_flags() const noexcept { return last_server_flags_; }

  /// Remote calls that failed past the retry budget.
  std::uint64_t remote_failures() const noexcept { return remote_failures_; }

  /// Forecasts served by the local harmonic-mean fallback.
  std::uint64_t fallback_predictions() const noexcept {
    return fallback_predictions_;
  }

 private:
  void degrade() const noexcept;
  double fallback_forecast() const;

  SessionClient* client_;
  std::uint64_t session_id_ = 0;
  bool session_established_ = false;
  double initial_mbps_ = 0.0;
  double last_forecast_ = 0.0;
  bool has_observed_ = false;
  std::vector<double> history_;  ///< observed samples, feeds the fallback
  mutable bool degraded_ = false;
  mutable std::uint8_t last_server_flags_ = 0;
  mutable std::uint64_t remote_failures_ = 0;
  mutable std::uint64_t fallback_predictions_ = 0;
};

}  // namespace cs2p
