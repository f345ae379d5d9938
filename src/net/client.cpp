#include "net/client.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "util/stats.h"

namespace cs2p {
namespace {

/// Server errors worth another attempt: a BAD_REQUEST is most likely our
/// frame arriving corrupted (the request we built is well-formed by
/// construction). Everything else reflects real state — retrying the same
/// bytes cannot change UNKNOWN_SESSION or INVALID_SAMPLE.
bool retryable(WireErrorCode code) {
  return code == WireErrorCode::kBadRequest;
}

/// Growth factor of the backoff between attempts.
constexpr int kBackoffMultiplier = 2;

}  // namespace

int jittered_backoff_ms(int backoff_ms, double jitter, Rng& rng) noexcept {
  if (backoff_ms <= 0) return 0;
  const double j = std::clamp(jitter, 0.0, 1.0);
  if (j <= 0.0) return backoff_ms;
  // Uniform in ((1 - j) * b, b]: full jitter at j = 1 decorrelates the retry
  // storms of every client that lost the same replica at the same instant.
  const double scaled =
      static_cast<double>(backoff_ms) * (1.0 - j * rng.uniform());
  return std::max(j >= 1.0 ? 0 : 1, static_cast<int>(scaled));
}

PredictionClient::PredictionClient(std::uint16_t port, ClientConfig config)
    : PredictionClient(
          loopback_connector(port, TransportDeadlines{config.recv_timeout_ms,
                                                      config.send_timeout_ms}),
          config) {}

PredictionClient::PredictionClient(TransportFactory connector, ClientConfig config)
    : connector_(std::move(connector)),
      config_(config),
      backoff_rng_(config.backoff_seed) {
  if (!connector_)
    throw std::invalid_argument("PredictionClient: null connector");
  if (config_.metrics) {
    overloaded_counter_ =
        &config_.metrics->counter("cs2p_client_overloaded_replies_total");
    retries_counter_ = &config_.metrics->counter("cs2p_client_retries_total");
  }
}

void PredictionClient::ensure_connected() {
  if (!transport_) transport_ = connector_();
}

Response PredictionClient::locked_round_trip(const Request& request) {
  const std::string payload = serialize_request(request);
  int backoff_ms = std::max(1, config_.backoff_initial_ms);
  for (int attempt = 0;; ++attempt) {
    const bool last_attempt = attempt >= config_.max_retries;
    try {
      ensure_connected();
      send_frame(*transport_, payload);
      const auto frame = recv_frame(*transport_);
      if (!frame)
        throw ConnectionError("PredictionClient: server closed connection");
      Response response = parse_response(*frame);
      const auto* err = std::get_if<ErrorResponse>(&response);
      if (err == nullptr) return response;
      if (err->code == WireErrorCode::kOverloaded) {
        // The replica is shedding load: record it (ReplicaSet treats this
        // as a failover signal, not a retry-this-socket signal).
        overloaded_.fetch_add(1, std::memory_order_relaxed);
        if (overloaded_counter_ != nullptr) overloaded_counter_->inc();
      }
      if (last_attempt || !retryable(err->code))
        throw ServerError(err->code, err->message, err->retry_after_ms);
      // Retryable server error: same connection, backoff below.
    } catch (const ServerError&) {
      throw;
    } catch (const std::exception&) {
      // Transport fault, desynced framing, or failed connect: the stream is
      // unusable — tear it down and reconnect on the next attempt.
      transport_.reset();
      reconnects_.fetch_add(1, std::memory_order_relaxed);
      if (last_attempt) throw;
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    if (retries_counter_ != nullptr) retries_counter_->inc();
    std::this_thread::sleep_for(std::chrono::milliseconds(
        jittered_backoff_ms(backoff_ms, config_.backoff_jitter, backoff_rng_)));
    backoff_ms = std::min(config_.backoff_max_ms, backoff_ms * kBackoffMultiplier);
  }
}

template <typename Reply>
Reply PredictionClient::locked_expect(const Request& request,
                                      std::string_view verb) {
  Response response = locked_round_trip(request);
  if (auto* reply = std::get_if<Reply>(&response)) return std::move(*reply);
  throw std::runtime_error("PredictionClient: unexpected response to " +
                           std::string(verb));
}

SessionResponse PredictionClient::hello(const SessionFeatures& features,
                                        double start_hour) {
  std::scoped_lock lock(mutex_);
  return locked_expect<SessionResponse>(HelloRequest{features, start_hour},
                                        "HELLO");
}

double PredictionClient::observe(std::uint64_t session_id, double throughput_mbps) {
  return observe_response(session_id, throughput_mbps).mbps;
}

double PredictionClient::predict(std::uint64_t session_id, unsigned steps_ahead) {
  return predict_response(session_id, steps_ahead).mbps;
}

PredictionResponse PredictionClient::observe_response(std::uint64_t session_id,
                                                      double throughput_mbps) {
  std::scoped_lock lock(mutex_);
  return locked_expect<PredictionResponse>(
      ObserveRequest{session_id, throughput_mbps}, "OBSERVE");
}

PredictionResponse PredictionClient::predict_response(std::uint64_t session_id,
                                                      unsigned steps_ahead) {
  std::scoped_lock lock(mutex_);
  return locked_expect<PredictionResponse>(
      PredictRequest{session_id, steps_ahead}, "PREDICT");
}

void PredictionClient::bye(std::uint64_t session_id) {
  std::scoped_lock lock(mutex_);
  locked_expect<OkResponse>(ByeRequest{session_id}, "BYE");
}

DownloadableModel PredictionClient::download_model(const SessionFeatures& features,
                                                   double start_hour) {
  std::scoped_lock lock(mutex_);
  const ModelResponse model =
      locked_expect<ModelResponse>(ModelRequest{features, start_hour}, "MODEL");
  DownloadableModel out;
  out.initial_mbps = model.initial_mbps;
  out.used_global_model = model.used_global_model;
  out.hmm = deserialize_hmm(model.serialized_hmm);
  return out;
}

StatsResponse PredictionClient::stats() {
  std::scoped_lock lock(mutex_);
  return locked_expect<StatsResponse>(StatsRequest{}, "STATS");
}

void PredictionClient::push_snapshot(const std::string& snapshot_bytes) {
  if (snapshot_bytes.empty())
    throw std::invalid_argument("PredictionClient: empty snapshot");
  std::scoped_lock lock(mutex_);
  const std::uint64_t checksum = sync_checksum(snapshot_bytes);
  for (int attempt = 0;; ++attempt) {
    try {
      locked_expect<OkResponse>(
          SyncBeginRequest{snapshot_bytes.size(), checksum}, "SYNCBEGIN");
      for (std::size_t offset = 0; offset < snapshot_bytes.size();
           offset += kSyncChunkBytes) {
        locked_expect<OkResponse>(
            SyncChunkRequest{snapshot_bytes.substr(offset, kSyncChunkBytes)},
            "SYNCDATA");
      }
      locked_expect<OkResponse>(SyncCommitRequest{}, "SYNCCOMMIT");
      return;
    } catch (const ServerError& e) {
      // The staging buffer lives on one server connection: a mid-push
      // reconnect orphans it and the next frame answers SYNC_REJECTED.
      // One clean restart of the whole sequence covers that race; a second
      // rejection is a real refusal (corrupt or mismatched snapshot).
      if (e.code() != WireErrorCode::kSyncRejected || attempt > 0) throw;
    }
  }
}

std::string PredictionClient::fetch_snapshot() {
  std::scoped_lock lock(mutex_);
  // A republish mid-fetch changes the declared (total, checksum): restart.
  for (int attempt = 0; attempt < 3; ++attempt) {
    std::string bytes;
    std::uint64_t total = 0;
    std::uint64_t checksum = 0;
    bool restart = false;
    while (true) {
      // locked_round_trip surfaces ERR replies (e.g. UNSUPPORTED when no
      // snapshot is published) as ServerError before we get here.
      const SnapshotChunkResponse chunk = locked_expect<SnapshotChunkResponse>(
          SyncFetchRequest{bytes.size()}, "SYNCFETCH");
      if (bytes.empty()) {
        total = chunk.total_bytes;
        checksum = chunk.checksum;
      } else if (chunk.total_bytes != total || chunk.checksum != checksum) {
        restart = true;
        break;
      }
      if (chunk.offset != bytes.size())
        throw ProtocolError("wire: SNAPSHOT chunk at wrong offset");
      bytes += chunk.data;
      if (bytes.size() >= total) break;
      if (chunk.data.empty())
        throw ProtocolError("wire: empty SNAPSHOT chunk before end");
    }
    if (restart) continue;
    if (sync_checksum(bytes) != checksum)
      throw ProtocolError(
          "wire: fetched snapshot does not match its declared checksum");
    return bytes;
  }
  throw ProtocolError("wire: snapshot kept changing during fetch");
}

// -- RemoteSessionPredictor --------------------------------------------------

RemoteSessionPredictor::RemoteSessionPredictor(SessionClient& client,
                                               const SessionFeatures& features,
                                               double start_hour)
    : client_(&client) {
  try {
    const SessionResponse session = client_->hello(features, start_hour);
    session_id_ = session.session_id;
    session_established_ = true;
    initial_mbps_ = session.initial_mbps;
    last_forecast_ = session.initial_mbps;
  } catch (const std::exception&) {
    // Service unreachable at session start: run the whole session on the
    // local fallback rather than failing the player.
    degrade();
  }
}

RemoteSessionPredictor::~RemoteSessionPredictor() {
  if (!session_established_ || degraded_) return;
  try {
    client_->bye(session_id_);
  } catch (const std::exception&) {
    // Destructor must not throw; the server's TTL sweeper reaps the entry.
  }
}

void RemoteSessionPredictor::degrade() const noexcept {
  degraded_ = true;
  ++remote_failures_;
}

double RemoteSessionPredictor::fallback_forecast() const {
  // Harmonic mean of the session's own samples — the paper's §3 HM
  // baseline, robust to throughput outliers.
  const double hm = harmonic_mean(history_);
  if (hm > 0.0) return hm;
  // No usable history yet (e.g. HELLO failed before the first chunk): the
  // last known forecast, which is the initial prediction when we have one.
  return last_forecast_;
}

std::optional<double> RemoteSessionPredictor::predict_initial() const {
  if (!session_established_) return std::nullopt;
  return initial_mbps_;
}

double RemoteSessionPredictor::predict(unsigned steps_ahead) const {
  if (degraded_) {
    ++fallback_predictions_;
    return fallback_forecast();
  }
  if (!has_observed_) return initial_mbps_;
  if (steps_ahead <= 1) return last_forecast_;
  try {
    const PredictionResponse reply =
        client_->predict_response(session_id_, steps_ahead);
    last_server_flags_ = reply.flags;
    return reply.mbps;
  } catch (const std::exception&) {
    degrade();
    ++fallback_predictions_;
    return fallback_forecast();
  }
}

void RemoteSessionPredictor::observe(double throughput_mbps) {
  history_.push_back(throughput_mbps);
  has_observed_ = true;
  if (!degraded_) {
    try {
      const PredictionResponse reply =
          client_->observe_response(session_id_, throughput_mbps);
      last_forecast_ = reply.mbps;
      last_server_flags_ = reply.flags;
      return;
    } catch (const std::exception&) {
      degrade();
    }
  }
  last_forecast_ = fallback_forecast();
}

std::uint8_t RemoteSessionPredictor::serve_flags() const {
  if (degraded_)
    return static_cast<std::uint8_t>(last_server_flags_ |
                                     serve_flags::kRemoteFallback |
                                     serve_flags::kDegraded);
  return last_server_flags_;
}

}  // namespace cs2p
