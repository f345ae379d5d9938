// Differential oracle for the frame server (DESIGN.md §12, §16).
//
// A sequential reference written from the protocol rules of DESIGN.md — a
// std::map of sessions, each pinned to the model that created it, plus
// per-connection SYNC staging — answers the same seeded schedules as the
// server, and the two must agree on every reply, on every session handed to
// the completion hook and on the live session count. Session ids are the
// server's to choose: the reference takes each one from the server's SESSION
// reply, after checking that it is non-zero and was never issued before.
//
// In process, FrameServer is driven frame by frame with an injected clock:
// thousands of schedules over several connections' SYNC stagings, with
// model swaps, snapshot publication, drain, stop and clock advances followed
// by evict_tick between frames — no socket, no sleep. A smaller set replays
// through a real PredictionServer over loopback, where every connection
// pipelines its sessions' frames at once and each connection's replies must
// equal the reference's replies for that connection.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "core/engine.h"
#include "dataset/synthetic.h"
#include "hmm/model.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "predictors/history.h"
#include "util/rng.h"

namespace cs2p {
namespace {

using Clock = FrameServer::Clock;
using std::chrono::milliseconds;

/// Mirrors the server's per-session history cap (DESIGN.md §15): the
/// completion hook sees at most this many observations.
constexpr std::size_t kHistoryCap = 512;

// -- Models -------------------------------------------------------------------

struct Models {
  std::shared_ptr<const PredictorModel> plain;    ///< CS2P, guardrail off
  std::shared_ptr<const PredictorModel> guarded;  ///< CS2P, guardrail on
  /// Harmonic mean: predict() before the first observe() throws, the
  /// predictor that fails its own frame with INTERNAL.
  std::shared_ptr<const PredictorModel> history;
  std::vector<Session> sessions;  ///< HELLO/MODEL identities with clusters
};

const Models& models() {
  static const Models built = [] {
    SyntheticConfig world;
    world.num_isps = 2;
    world.num_provinces = 2;
    world.cities_per_province = 2;
    world.num_servers = 3;
    world.prefixes_per_isp_city = 1;
    world.num_sessions = 600;
    world.seed = 23;
    auto [train, test] = SyntheticWorld(world).generate().split_by_day(1);
    (void)test;
    Cs2pConfig config;
    config.hmm.num_states = 2;
    config.hmm.max_iterations = 6;
    config.selector.min_cluster_size = 8;
    config.max_sequences_per_cluster = 10;
    config.max_global_sequences = 60;
    const auto cs2p = [&](bool guardrail) {
      Cs2pConfig c = config;
      c.guardrail = guardrail;
      auto engine = std::make_shared<Cs2pEngine>(train, c);
      engine->warm_up();
      return std::make_shared<Cs2pPredictorModel>(
          std::shared_ptr<const Cs2pEngine>(std::move(engine)));
    };
    Models m;
    m.plain = cs2p(false);
    m.guarded = cs2p(true);
    m.history = std::make_shared<HarmonicMeanModel>();
    for (std::size_t i = 0; i < train.size(); i += 7)
      m.sessions.push_back(train.sessions()[i]);
    return m;
  }();
  return built;
}

/// The test's snapshot format for SYNC shipping: the first line names the
/// model. The server core is format-agnostic (ServerConfig::sync_apply), so
/// this decoder is shared by the server and the reference; what is under
/// test is the shipment protocol around it.
std::shared_ptr<const PredictorModel> decode_snapshot(const std::string& bytes) {
  const std::string head = bytes.substr(0, bytes.find('\n'));
  if (head == "snapshot plain") return models().plain;
  if (head == "snapshot guarded") return models().guarded;
  if (head == "snapshot history") return models().history;
  if (head == "snapshot throws") throw std::runtime_error("undecodable snapshot");
  return nullptr;  // decoded to nothing servable
}

// -- The reference --------------------------------------------------------------

struct Completion {
  std::uint64_t id = 0;
  std::string reason;
  SessionFeatures features;
  double start_hour = 0.0;
  std::vector<double> observations;
};

struct RefStaging {
  bool active = false;
  std::uint64_t expected_bytes = 0;
  std::uint64_t expected_checksum = 0;
  std::string buffer;
};

ErrorResponse error(WireErrorCode code, std::uint32_t retry_after_ms = 0) {
  return ErrorResponse{code, "", retry_after_ms};
}

/// The unsigned big-endian integer `bytes` spell.
std::uint64_t big_endian(std::string_view bytes) {
  std::uint64_t value = 0;
  for (const char byte : bytes) value = value << 8 | static_cast<unsigned char>(byte);
  return value;
}

/// The request `payload` carries, or nullopt for a malformed one. The
/// reference decodes the per-epoch records itself, from the v6 layout
/// (net/wire.h) written out here rather than taken from the codec: a tag
/// byte, big-endian fields, a double as its binary64 bits, and an exact
/// size. OBSERVE is 0x01 | id u64 | mbps f64 (17 bytes), PREDICT is 0x02 |
/// id u64 | steps u32 (13 bytes), and any other first byte below 0x20 that
/// is not wire whitespace (0x09-0x0D) is no request. So a decoder fault
/// shows as a reply the reference does not give. Text lines go to
/// parse_request.
std::optional<Request> decode(std::string_view payload) {
  const int first = payload.empty() ? ' ' : static_cast<unsigned char>(payload[0]);
  if (first < 0x20 && !(first >= 0x09 && first <= 0x0d)) {
    const std::uint64_t id = big_endian(payload.substr(1, 8));
    if (first == 0x01 && payload.size() == 17)
      return ObserveRequest{id, std::bit_cast<double>(big_endian(payload.substr(9)))};
    if (first == 0x02 && payload.size() == 13)
      return PredictRequest{id,
                            static_cast<std::uint32_t>(big_endian(payload.substr(9)))};
    return std::nullopt;
  }
  try {
    return parse_request(payload);
  } catch (const ProtocolError&) {
    return std::nullopt;
  }
}

/// The protocol of DESIGN.md §8–§16 served one frame at a time.
class Reference {
 public:
  Reference(std::shared_ptr<const PredictorModel> model, ServerConfig config)
      : model_(std::move(model)), config_(std::move(config)) {}

  Response serve(std::string_view payload, RefStaging& staging,
                 Clock::time_point now) {
    const std::optional<Request> decoded = decode(payload);
    if (!decoded) return error(WireErrorCode::kBadRequest);
    const Request& request = *decoded;
    // A stopping server answers SHUTTING_DOWN to every frame it parsed.
    if (stopping_) return error(WireErrorCode::kShuttingDown);
    if (const auto* observe = std::get_if<ObserveRequest>(&request))
      return prediction(observe->session_id, observe->throughput_mbps, 1, now);
    if (const auto* predict = std::get_if<PredictRequest>(&request))
      return prediction(predict->session_id, std::nullopt, predict->steps_ahead,
                        now);
    if (const auto* hello = std::get_if<HelloRequest>(&request))
      return open(*hello, now);
    if (const auto* bye = std::get_if<ByeRequest>(&request)) {
      // BYE is idempotent: an unknown id is already gone.
      if (const auto it = sessions_.find(bye->session_id); it != sessions_.end())
        complete(it, "bye");
      return OkResponse{};
    }
    if (std::holds_alternative<StatsRequest>(request)) return StatsResponse{};
    if (const auto* model = std::get_if<ModelRequest>(&request))
      return download(*model);
    return sync(request, staging);
  }

  /// TTL eviction (§8, §14): sessions untouched for longer than the TTL in
  /// force go to the completion hook; a drain shrinks the TTL.
  void evict(Clock::time_point now) {
    int ttl = config_.session_ttl_ms;
    if (draining_ && config_.drain_session_ttl_ms > 0)
      ttl = std::min(ttl, config_.drain_session_ttl_ms);
    if (ttl <= 0) return;
    const auto deadline = now - milliseconds(ttl);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      const auto next = std::next(it);
      if (it->second.last_used < deadline) complete(it, "evict");
      it = next;
    }
  }

  void swap_model(std::shared_ptr<const PredictorModel> model) {
    model_ = std::move(model);
  }
  void publish_snapshot(std::string bytes) { snapshot_ = std::move(bytes); }
  void begin_drain() { draining_ = true; }
  void stop() { stopping_ = true; }

  /// The server's id for the session the last HELLO opened: written into
  /// the reference's reply once it is non-zero and never issued before.
  ::testing::AssertionResult learn_id(const Response& got, Response& want) {
    auto* opened = std::get_if<SessionResponse>(&want);
    if (opened == nullptr) return ::testing::AssertionSuccess();
    const auto* session = std::get_if<SessionResponse>(&got);
    if (session == nullptr)
      return ::testing::AssertionFailure()
             << "server replied '" << serialize_response(got)
             << "' to a HELLO the reference opened";
    const std::uint64_t id = session->session_id;
    if (id == 0 || std::find(issued_.begin(), issued_.end(), id) != issued_.end())
      return ::testing::AssertionFailure()
             << "server issued session id " << id << (id == 0 ? "" : " again");
    issued_.push_back(id);
    opened->session_id = id;
    sessions_.emplace(id, std::move(*pending_));
    pending_.reset();
    return ::testing::AssertionSuccess();
  }

  std::size_t session_count() const { return sessions_.size(); }
  /// Every id issued so far, and the ones BYE'd or evicted since.
  const std::vector<std::uint64_t>& issued_ids() const { return issued_; }
  const std::vector<std::uint64_t>& dead_ids() const { return dead_; }
  /// Open sessions' ids, oldest first: issue order, since an id's value
  /// says nothing of its age.
  std::vector<std::uint64_t> live_ids() const {
    std::vector<std::uint64_t> ids;
    for (const std::uint64_t id : issued_)
      if (sessions_.contains(id)) ids.push_back(id);
    return ids;
  }
  bool draining() const { return draining_; }

  std::vector<Completion> completions;

 private:
  struct Entry {
    std::shared_ptr<const PredictorModel> model;  ///< the pin (§9)
    std::unique_ptr<SessionPredictor> predictor;
    SessionFeatures features;
    double start_hour = 0.0;
    std::vector<double> observations;
    Clock::time_point last_used{};
  };

  std::uint32_t retry_after() const {
    return static_cast<std::uint32_t>(config_.retry_after_ms);
  }

  Response open(const HelloRequest& hello, Clock::time_point now) {
    // Drain gates session creation only (§14).
    if (draining_) return error(WireErrorCode::kShuttingDown, retry_after());
    if (!std::isfinite(hello.start_hour)) return error(WireErrorCode::kBadRequest);
    Entry entry;
    entry.model = model_;
    entry.predictor = model_->make_session(
        SessionContext{hello.features, 0, hello.start_hour, nullptr});
    entry.features = hello.features;
    entry.start_hour = hello.start_hour;
    entry.last_used = now;
    SessionResponse reply;  // the id comes from the server's reply (learn_id)
    reply.initial_mbps = entry.predictor->predict_initial().value_or(0.0);
    reply.used_global_model =
        (entry.predictor->serve_flags() & serve_flags::kGlobalModel) != 0;
    reply.model_name = model_->name();
    pending_ = std::move(entry);
    return reply;
  }

  Response prediction(std::uint64_t id, std::optional<double> sample,
                      unsigned steps, Clock::time_point now) {
    // Validation order (§16): invalid sample, unknown session, zero horizon.
    const double w = sample.value_or(0.0);
    if (!(std::isfinite(w) && w >= 0.0 && w <= config_.max_sample_mbps))
      return error(WireErrorCode::kInvalidSample);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) return error(WireErrorCode::kUnknownSession);
    if (steps == 0) return error(WireErrorCode::kBadRequest);
    Entry& entry = it->second;
    entry.last_used = now;  // the TTL touch
    try {
      if (sample) {
        if (entry.observations.size() < kHistoryCap)
          entry.observations.push_back(w);
        entry.predictor->observe(w);
      }
      const double mbps = entry.predictor->predict(steps);
      // kDraining rides on every PRED while the server drains (§14).
      return PredictionResponse{
          mbps, static_cast<std::uint8_t>(
                    entry.predictor->serve_flags() |
                    (draining_ ? serve_flags::kDraining : 0))};
    } catch (const std::exception&) {
      return error(WireErrorCode::kInternal);  // fails only this frame
    }
  }

  Response download(const ModelRequest& request) {
    if (!std::isfinite(request.start_hour)) return error(WireErrorCode::kBadRequest);
    const auto downloadable = model_->downloadable_model(
        SessionContext{request.features, 0, request.start_hour, nullptr});
    if (!downloadable) return error(WireErrorCode::kUnsupported);
    return ModelResponse{downloadable->initial_mbps,
                         downloadable->used_global_model,
                         serialize_hmm(downloadable->hmm)};
  }

  /// SYNC shipping (§13): staged per connection, verified byte for byte
  /// before the decode, committed as one swap + republish.
  Response sync(const Request& request, RefStaging& staging) {
    const auto reject = [&staging] {
      staging = RefStaging{};
      return Response{error(WireErrorCode::kSyncRejected)};
    };
    if (const auto* begin = std::get_if<SyncBeginRequest>(&request)) {
      if (!config_.sync_apply || draining_ || begin->total_bytes == 0 ||
          begin->total_bytes > config_.max_sync_bytes)
        return reject();
      staging = RefStaging{true, begin->total_bytes, begin->checksum, ""};
      return OkResponse{};
    }
    if (const auto* chunk = std::get_if<SyncChunkRequest>(&request)) {
      if (!staging.active ||
          staging.buffer.size() + chunk->data.size() > staging.expected_bytes)
        return reject();
      staging.buffer += chunk->data;
      return OkResponse{};
    }
    if (std::holds_alternative<SyncCommitRequest>(request)) {
      if (!staging.active || staging.buffer.size() != staging.expected_bytes ||
          sync_checksum(staging.buffer) != staging.expected_checksum)
        return reject();
      std::shared_ptr<const PredictorModel> model;
      try {
        model = config_.sync_apply(staging.buffer);
      } catch (const std::exception&) {
        return reject();
      }
      if (!model) return reject();
      model_ = std::move(model);
      snapshot_ = std::move(staging.buffer);
      staging = RefStaging{};
      return OkResponse{};
    }
    const auto& fetch = std::get<SyncFetchRequest>(request);
    if (snapshot_.empty()) return error(WireErrorCode::kUnsupported);
    if (fetch.offset >= snapshot_.size()) return error(WireErrorCode::kBadRequest);
    return SnapshotChunkResponse{snapshot_.size(), sync_checksum(snapshot_),
                                 fetch.offset,
                                 snapshot_.substr(fetch.offset, kSyncChunkBytes)};
  }

  void complete(std::map<std::uint64_t, Entry>::iterator it,
                std::string_view reason) {
    Entry& entry = it->second;
    completions.push_back(Completion{it->first, std::string(reason),
                                     std::move(entry.features), entry.start_hour,
                                     std::move(entry.observations)});
    dead_.push_back(it->first);
    sessions_.erase(it);
  }

  std::shared_ptr<const PredictorModel> model_;
  ServerConfig config_;
  std::map<std::uint64_t, Entry> sessions_;
  std::optional<Entry> pending_;  ///< opened by the last HELLO, id not yet known
  std::vector<std::uint64_t> issued_;
  std::vector<std::uint64_t> dead_;
  std::string snapshot_;
  bool draining_ = false;
  bool stopping_ = false;
};

// -- Comparison -----------------------------------------------------------------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Every field a client can act on; ERR messages are prose and not compared.
::testing::AssertionResult same_reply(const Response& got, const Response& want) {
  const auto differ = [&] {
    return ::testing::AssertionFailure()
           << "server replied '" << serialize_response(got)
           << "', reference '" << serialize_response(want) << "'";
  };
  if (got.index() != want.index()) return differ();
  if (const auto* g = std::get_if<SessionResponse>(&got)) {
    const auto& w = std::get<SessionResponse>(want);
    if (g->session_id != w.session_id || !same_bits(g->initial_mbps, w.initial_mbps) ||
        g->used_global_model != w.used_global_model ||
        g->model_name != w.model_name)
      return differ();
  } else if (const auto* g = std::get_if<PredictionResponse>(&got)) {
    const auto& w = std::get<PredictionResponse>(want);
    if (!same_bits(g->mbps, w.mbps) || g->flags != w.flags) return differ();
  } else if (const auto* g = std::get_if<ErrorResponse>(&got)) {
    const auto& w = std::get<ErrorResponse>(want);
    if (g->code != w.code || g->retry_after_ms != w.retry_after_ms) return differ();
  } else if (const auto* g = std::get_if<ModelResponse>(&got)) {
    const auto& w = std::get<ModelResponse>(want);
    if (!same_bits(g->initial_mbps, w.initial_mbps) ||
        g->used_global_model != w.used_global_model ||
        g->serialized_hmm != w.serialized_hmm)
      return differ();
  } else if (const auto* g = std::get_if<SnapshotChunkResponse>(&got)) {
    const auto& w = std::get<SnapshotChunkResponse>(want);
    if (g->total_bytes != w.total_bytes || g->checksum != w.checksum ||
        g->offset != w.offset || g->data != w.data)
      return differ();
  }
  return ::testing::AssertionSuccess();  // OK and STATS: the kind is all
}

::testing::AssertionResult same_completions(std::vector<Completion> got,
                                            std::vector<Completion> want) {
  // One evict tick hands sessions over in arena order; compare as sets.
  const auto by_id = [](const Completion& a, const Completion& b) {
    return a.id < b.id;
  };
  std::sort(got.begin(), got.end(), by_id);
  std::sort(want.begin(), want.end(), by_id);
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << got.size() << " sessions completed, reference " << want.size();
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Completion& g = got[i];
    const Completion& w = want[i];
    const bool same_history =
        g.observations.size() == w.observations.size() &&
        std::equal(g.observations.begin(), g.observations.end(),
                   w.observations.begin(), same_bits);
    if (g.id != w.id || g.reason != w.reason || !(g.features == w.features) ||
        !same_bits(g.start_hour, w.start_hour) || !same_history)
      return ::testing::AssertionFailure()
             << "completed session " << g.id << " (" << g.reason << ", "
             << g.observations.size() << " observations), reference " << w.id
             << " (" << w.reason << ", " << w.observations.size()
             << " observations)";
  }
  return ::testing::AssertionSuccess();
}

// -- Schedule generation ----------------------------------------------------------

/// Uniform in [lo, hi].
std::size_t pick(Rng& rng, std::size_t lo, std::size_t hi) {
  return static_cast<std::size_t>(rng.uniform_int(static_cast<std::int64_t>(lo),
                                                  static_cast<std::int64_t>(hi)));
}

/// A HELLO for a training session's identity (or one no cluster claims),
/// now and then with a non-finite start hour.
std::string hello_payload(Rng& rng, bool unseen_features) {
  const auto& sessions = models().sessions;
  HelloRequest hello;
  hello.features = sessions[pick(rng, 0, sessions.size() - 1)].features;
  // Every feature unseen: each candidate keys on at least one, so no
  // cluster claims the session and it runs on the global model.
  if (unseen_features) hello.features = {"Nowhere", "Nowhere", "Nowhere",
                                         "Nowhere", "Nowhere", "Nowhere"};
  const double u = rng.uniform();
  hello.start_hour = u < 0.04   ? std::numeric_limits<double>::quiet_NaN()
                     : u < 0.06 ? std::numeric_limits<double>::infinity()
                                : rng.uniform(0.0, 24.0);
  return serialize_request(hello);
}

double sample_mbps(Rng& rng, double max_sample_mbps) {
  const double u = rng.uniform();
  if (u < 0.04) return std::numeric_limits<double>::quiet_NaN();
  if (u < 0.07) return -rng.uniform(0.01, 5.0);
  if (u < 0.10) return max_sample_mbps * rng.uniform(1.001, 3.0);
  if (u < 0.11) return std::numeric_limits<double>::infinity();
  if (u < 0.13) return max_sample_mbps;  // the bound itself is valid
  if (u < 0.17) return 0.0;              // a stalled epoch is a measurement
  if (u < 0.25) return 0.01;             // trips the guardrail
  return rng.uniform(0.2, 12.0);
}

unsigned horizon(Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.06) return 0;
  if (u < 0.80) return static_cast<unsigned>(pick(rng, 1, 16));
  return static_cast<unsigned>(pick(rng, 17, 40));
}

/// `record` cut to `size` bytes, or zero-padded up to it.
std::string resized(std::string record, std::size_t size) {
  record.resize(size, '\0');
  return record;
}

const std::vector<std::string>& malformed_payloads() {
  static const std::vector<std::string> payloads = [] {
    const std::string observe = serialize_request(ObserveRequest{1, 1.5});
    const std::string predict = serialize_request(PredictRequest{1, 2});
    return std::vector<std::string>{
        "",
        "HELLO",
        "HELLO ISP0 AS0 P0 C0 S0",
        // The v5 text forms of the records, now unknown verbs.
        "OBSERVE",
        "OBSERVE 1",
        "OBSERVE x 1.5",
        "OBSERVE 1 fast",
        "OBSERVE 1 1.5 2",
        "PREDICT 1",
        "PREDICT 1 -3",
        "PREDICT 1 99999999999",
        // Records one byte short or long, a lone tag, the reply's PRED tag and
        // first bytes that are no tag.
        resized(observe, kObserveRecordBytes - 1),
        resized(observe, kObserveRecordBytes + 1),
        resized(predict, kPredictRecordBytes - 1),
        resized(predict, kPredictRecordBytes + 1),
        std::string(1, kObserveTag),
        serialize_response(PredictionResponse{1.5, 0}),
        resized(std::string(1, '\0'), kObserveRecordBytes),
        resized(std::string(1, '\x04'), kPredictRecordBytes),
        resized(std::string(1, '\x1f'), kObserveRecordBytes),
        "BYE",
        "BYE -1",
        "STATS now",
        "MODEL a b c d e f",
        "SYNCBEGIN 10",
        "SYNCBEGIN 10 notahexchecksum!",
        "SYNCCOMMIT now",
        "SYNCFETCH",
        "FETCH 0",
        "a b c d e f g h i",
    };
  }();
  return payloads;
}

/// A snapshot shipment one connection is part-way through.
struct Shipment {
  std::string declared;            ///< SYNCBEGIN payload
  std::vector<std::string> chunks; ///< SYNCDATA bodies still to send
};

std::string snapshot_bytes(Rng& rng) {
  static const char* const kHeads[] = {"snapshot plain", "snapshot guarded",
                                       "snapshot history", "snapshot throws",
                                       "snapshot unknown"};
  std::string bytes = kHeads[pick(rng, 0, 4)];
  bytes += '\n';
  const std::size_t filler = rng.bernoulli(0.05)
                                 ? kSyncChunkBytes + pick(rng, 1, 4096)
                                 : pick(rng, 0, 400);
  for (std::size_t i = 0; i < filler; ++i)
    bytes += static_cast<char>(pick(rng, 0, 255));
  return bytes;
}

/// Plans a shipment: declared size and checksum, then 1–4 chunks, with one
/// fault at most — a bit-flipped chunk, a short shipment, an extra byte, a
/// wrong declaration, an empty or oversized declaration.
Shipment plan_shipment(Rng& rng) {
  std::string bytes = snapshot_bytes(rng);
  std::uint64_t declared_bytes = bytes.size();
  std::uint64_t declared_checksum = sync_checksum(bytes);
  std::vector<std::string> chunks;
  const std::size_t pieces = pick(rng, 1, 4);
  std::size_t at = 0;
  for (std::size_t i = 0; i < pieces; ++i) {
    const std::size_t end = i + 1 == pieces
                                ? bytes.size()
                                : std::min(bytes.size(), at + pick(rng, 0, bytes.size()));
    chunks.push_back(bytes.substr(at, end - at));
    at = end;
  }
  const double u = rng.uniform();
  if (u < 0.10) {
    std::string& chunk = chunks[pick(rng, 0, chunks.size() - 1)];
    if (!chunk.empty()) chunk[pick(rng, 0, chunk.size() - 1)] ^= 0x10;
  } else if (u < 0.18 && chunks.size() > 1) {
    chunks.pop_back();  // short shipment
  } else if (u < 0.22) {
    chunks.back() += 'x';  // more bytes than declared
  } else if (u < 0.26) {
    declared_checksum ^= 1;
  } else if (u < 0.28) {
    declared_bytes = 0;
  } else if (u < 0.32) {
    declared_bytes = std::uint64_t{1} << 40;  // past max_sync_bytes
  }
  return Shipment{serialize_request(SyncBeginRequest{declared_bytes, declared_checksum}),
                  std::move(chunks)};
}

/// How often each (frame kind, reply kind) pair and each completion kind
/// came up: the in-process test requires every outcome the oracle compares.
using Coverage = std::map<std::string, std::size_t>;

/// The verb of a well-formed payload, named from its parsed request.
std::string verb_of(std::string_view payload) {
  constexpr const char* kVerbs[] = {"HELLO",     "OBSERVE",  "PREDICT",
                                    "BYE",       "MODEL",    "STATS",
                                    "SYNCBEGIN", "SYNCDATA", "SYNCCOMMIT",
                                    "SYNCFETCH"};
  static_assert(std::size(kVerbs) == std::variant_size_v<Request>);
  return kVerbs[parse_request(payload).index()];
}

std::string outcome(const Response& reply) {
  if (const auto* err = std::get_if<ErrorResponse>(&reply))
    return "ERR " + std::string(wire_error_code_name(err->code));
  if (const auto* pred = std::get_if<PredictionResponse>(&reply)) {
    if ((pred->flags & serve_flags::kDraining) != 0) return "PRED draining";
    return pred->flags != 0 ? "PRED degraded" : "PRED";
  }
  const std::string serialized = serialize_response(reply);
  return serialized.substr(0, serialized.find_first_of(" \n"));
}

// -- In-process schedules ------------------------------------------------------------

/// One seeded schedule against a FrameServer and the reference, compared
/// after every step.
class InProcessSchedule {
 public:
  InProcessSchedule(std::uint64_t seed, Coverage& coverage)
      : rng_(seed), seed_(seed), coverage_(coverage) {
    connections_ = pick(rng_, 3, 5);
    steps_ = seed % 97 == 0 ? 3000 : pick(rng_, 50, 160);
    config_.session_ttl_ms = static_cast<int>(pick(rng_, 200, 2000));
    config_.drain_session_ttl_ms = rng_.bernoulli(0.5) ? 0 : 150;
    config_.max_sample_mbps = rng_.bernoulli(0.5) ? 100.0 : 10'000.0;
    config_.retry_after_ms = static_cast<int>(pick(rng_, 1, 900));
    config_.session_shards = std::size_t{1} << pick(rng_, 0, 4);
    // One tick sweeps every slot, as the reference's eviction does; the
    // amortized partial sweep is SessionTable's own contract, tested there.
    config_.evict_scan_budget = 1 << 16;
    config_.max_sync_bytes = rng_.bernoulli(0.2) ? 96 : 1 << 20;
    if (rng_.bernoulli(0.9)) config_.sync_apply = decode_snapshot;
    config_.on_session_complete = [this](CompletedSession&& done) {
      completed_.push_back(Completion{done.session_id, std::string(done.reason),
                                      std::move(done.features), done.start_hour,
                                      std::move(done.observations)});
    };
    const auto& m = models();
    const auto first = rng_.bernoulli(0.5) ? m.plain : m.guarded;
    server_ = std::make_unique<FrameServer>(first, config_);
    reference_ = std::make_unique<Reference>(first, config_);
    staging_.resize(connections_);
    ref_staging_.resize(connections_);
    shipments_.resize(connections_);
  }

  /// Runs every step, then lets every session left expire; stops at the
  /// first disagreement.
  void run() {
    for (step_ = 0; step_ <= steps_; ++step_) {
      now_ += milliseconds(pick(rng_, 0, 30));
      if (step_ == steps_) {
        now_ += milliseconds(config_.session_ttl_ms + 1);
        last_ = "final evict_tick";
        server_->evict_tick(now_);
        reference_->evict(now_);
      } else if (rng_.bernoulli(0.15)) {
        control();
      } else {
        frame();
      }
      if (::testing::Test::HasFailure()) return;
      for (const Completion& done : reference_->completions) {
        ++coverage_["completed " + done.reason];
        if (done.observations.size() == kHistoryCap) ++coverage_["history capped"];
      }
      ASSERT_TRUE(same_completions(std::exchange(completed_, {}),
                                   std::exchange(reference_->completions, {})))
          << context();
      ASSERT_EQ(server_->session_count(), reference_->session_count()) << context();
    }
    ASSERT_EQ(server_->session_count(), 0u) << context();
  }

 private:
  std::string context() const {
    std::ostringstream os;
    os << "seed " << seed_ << ", step " << step_ << ": " << last_;
    return os.str();
  }

  void control() {
    const auto& m = models();
    // Long schedules neither drain nor stop: their sessions must live on.
    const double u = rng_.uniform() * (steps_ > 1000 ? 0.95 : 1.0);
    if (u < 0.58) {
      // Clock advance + tick: a session touched within the TTL survives.
      now_ += milliseconds(
          pick(rng_, 0, static_cast<std::size_t>(config_.session_ttl_ms * 0.6)));
      last_ = "evict_tick";
      server_->evict_tick(now_);
      reference_->evict(now_);
    } else if (u < 0.78) {
      const auto model = std::array{m.plain, m.guarded, m.history}[pick(rng_, 0, 2)];
      last_ = "swap_model " + model->name();
      server_->swap_model(model);
      reference_->swap_model(model);
    } else if (u < 0.95) {
      std::string bytes = rng_.bernoulli(0.2) ? "" : snapshot_bytes(rng_);
      last_ = "publish_snapshot " + std::to_string(bytes.size());
      server_->publish_snapshot(bytes);
      reference_->publish_snapshot(std::move(bytes));
    } else if (u < 0.98) {
      last_ = "begin_drain";
      server_->begin_drain();
      reference_->begin_drain();
    } else {
      last_ = "stop";
      server_->stop();
      reference_->stop();
    }
  }

  /// A session id to address: mostly live ones, also ids BYE'd or evicted
  /// before, ids forged from them (the generation one up or down, the slot
  /// index one past its shard's arena), random 64-bit values, and 0. Forging
  /// reads the id layout of DESIGN.md §12: generation << 32 | slot <<
  /// shard_bits | shard.
  std::uint64_t target() {
    const auto live = reference_->live_ids();
    // Long schedules drive the oldest live session past the history cap.
    if (steps_ > 1000 && !live.empty() && rng_.bernoulli(0.7)) return live.front();
    const double u = rng_.uniform();
    if (u < 0.75 && !live.empty()) return live[pick(rng_, 0, live.size() - 1)];
    const auto& dead = reference_->dead_ids();
    if (u < 0.97 && !dead.empty()) {
      const std::uint64_t id = dead[pick(rng_, 0, dead.size() - 1)];
      constexpr std::uint64_t kGeneration = std::uint64_t{1} << 32;
      const double v = rng_.uniform();
      if (v < 0.45) {
        // The slot's next tenant differs from this id only in generation.
        const auto slot_live = [id](std::uint64_t other) {
          return static_cast<std::uint32_t>(other) == static_cast<std::uint32_t>(id);
        };
        if (std::any_of(live.begin(), live.end(), slot_live))
          ++coverage_["dead id whose slot holds a live session"];
        return id;
      }
      if (v < 0.60) return id + kGeneration;
      if (v < 0.75) return id - kGeneration;
      if (v < 0.90) return past_arena(id);
      return rng_();
    }
    return 0;
  }

  /// `id` with its slot index one past the highest slot its shard has
  /// handed out: the first index beyond the shard's arena.
  std::uint64_t past_arena(std::uint64_t id) const {
    const std::uint64_t mask = config_.session_shards - 1;
    const int bits = std::countr_zero(config_.session_shards);
    std::uint64_t next = 0;
    for (const std::uint64_t issued : reference_->issued_ids())
      if ((issued & mask) == (id & mask))
        next = std::max<std::uint64_t>(
            next, (static_cast<std::uint32_t>(issued) >> bits) + 1);
    return (id >> 32 << 32) | next << bits | (id & mask);
  }

  std::string sync_payload(std::size_t conn) {
    const double u = rng_.uniform();
    if (u < 0.20) {
      const std::uint64_t offset =
          rng_.bernoulli(0.3) ? 0 : pick(rng_, 0, 2 * kSyncChunkBytes);
      return serialize_request(SyncFetchRequest{offset});
    }
    // Out of order: DATA or COMMIT with no SYNCBEGIN in progress.
    if (u < 0.26) return serialize_request(SyncChunkRequest{"stray"});
    if (u < 0.30) return serialize_request(SyncCommitRequest{});
    auto& shipment = shipments_[conn];
    if (!shipment) {
      shipment = plan_shipment(rng_);
      return shipment->declared;
    }
    if (!shipment->chunks.empty()) {
      std::string chunk = std::move(shipment->chunks.front());
      shipment->chunks.erase(shipment->chunks.begin());
      return serialize_request(SyncChunkRequest{std::move(chunk)});
    }
    shipment.reset();
    return serialize_request(SyncCommitRequest{});
  }

  void frame() {
    const std::size_t conn = pick(rng_, 0, connections_ - 1);
    std::string payload;
    std::string kind;
    std::uint64_t addressed = 0;  // the session an OBSERVE/PREDICT names
    const double u = rng_.uniform();
    // Long schedules keep a few sessions busy past the history cap.
    const bool long_run = steps_ > 1000;
    const double hellos =
        !long_run ? 0.14 : reference_->session_count() < 3 ? 0.05 : 0.005;
    if (u < hellos) {
      payload = hello_payload(rng_, rng_.bernoulli(0.15));
    } else if (u < (long_run ? 0.70 : 0.52)) {
      addressed = target();
      payload = serialize_request(
          ObserveRequest{addressed, sample_mbps(rng_, config_.max_sample_mbps)});
    } else if (u < 0.72) {
      addressed = target();
      const unsigned steps = horizon(rng_);
      payload = serialize_request(PredictRequest{addressed, steps});
      if (steps > 16) kind = "PREDICT beyond h=16";
    } else if (u < (long_run ? 0.721 : 0.79)) {
      payload = serialize_request(ByeRequest{target()});
    } else if (u < 0.82) {
      const auto& features =
          models().sessions[pick(rng_, 0, models().sessions.size() - 1)].features;
      const double hour = rng_.bernoulli(0.1)
                              ? std::numeric_limits<double>::quiet_NaN()
                              : rng_.uniform(0.0, 24.0);
      payload = serialize_request(ModelRequest{features, hour});
    } else if (u < 0.84) {
      payload = serialize_request(StatsRequest{});
    } else if (u < 0.88) {
      const auto& bad = malformed_payloads();
      payload = bad[pick(rng_, 0, bad.size() - 1)];
      kind = "malformed";
    } else {
      payload = sync_payload(conn);
    }
    if (kind.empty()) kind = verb_of(payload);
    if (kind == "SYNCBEGIN" && reference_->draining()) kind = "SYNCBEGIN while draining";
    last_ = "conn " + std::to_string(conn) + " " + payload.substr(0, 80);
    FrameServer::RequestInfo info;
    const Response got = server_->serve(payload, staging_[conn], now_, info);
    Response want = reference_->serve(payload, ref_staging_[conn], now_);
    ASSERT_TRUE(reference_->learn_id(got, want)) << context();
    ASSERT_TRUE(same_reply(got, want)) << context();
    ++coverage_[kind + " -> " + outcome(want)];
    if (const auto* session = std::get_if<SessionResponse>(&want)) {
      opened_on_[session->session_id] = conn;
      if (session->used_global_model) ++coverage_["global-model SESSION"];
    }
    if (std::holds_alternative<PredictionResponse>(want) &&
        opened_on_[addressed] != conn)
      ++coverage_["PRED for a session opened on another connection"];
  }

  Rng rng_;
  std::uint64_t seed_;
  Coverage& coverage_;
  std::size_t connections_ = 3;
  std::size_t steps_ = 0;
  std::size_t step_ = 0;
  std::string last_;
  Clock::time_point now_ = Clock::time_point{} + std::chrono::hours(1000);
  ServerConfig config_;
  std::vector<Completion> completed_;
  std::unique_ptr<FrameServer> server_;
  std::unique_ptr<Reference> reference_;
  std::vector<FrameServer::SyncStaging> staging_;
  std::vector<RefStaging> ref_staging_;
  std::vector<std::optional<Shipment>> shipments_;
  std::map<std::uint64_t, std::size_t> opened_on_;  ///< session -> HELLO's conn
};

TEST(FrameOracle, InProcessSchedulesMatchTheReference) {
  constexpr std::uint64_t kSchedules = 2000;
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= kSchedules; ++seed) {
    InProcessSchedule(seed, coverage).run();
    if (HasFailure()) return;
  }
  for (const char* required : {
           "HELLO -> SESSION", "HELLO -> ERR SHUTTING_DOWN",
           "HELLO -> ERR BAD_REQUEST",
           "OBSERVE -> PRED", "OBSERVE -> PRED degraded",
           "OBSERVE -> PRED draining", "OBSERVE -> ERR INVALID_SAMPLE",
           "OBSERVE -> ERR UNKNOWN_SESSION", "OBSERVE -> ERR SHUTTING_DOWN",
           "PREDICT -> PRED", "PREDICT beyond h=16 -> PRED",
           "PREDICT -> ERR BAD_REQUEST",
           "PREDICT -> ERR INTERNAL", "PREDICT -> ERR UNKNOWN_SESSION",
           "BYE -> OK", "MODEL -> MODEL", "MODEL -> ERR UNSUPPORTED",
           "MODEL -> ERR BAD_REQUEST", "STATS -> STATS", "SYNCBEGIN -> OK",
           "SYNCBEGIN -> ERR SYNC_REJECTED",
           "SYNCBEGIN while draining -> ERR SYNC_REJECTED", "SYNCDATA -> OK",
           "SYNCDATA -> ERR SYNC_REJECTED", "SYNCCOMMIT -> OK",
           "SYNCCOMMIT -> ERR SYNC_REJECTED", "SYNCFETCH -> SNAPSHOT",
           "SYNCFETCH -> ERR UNSUPPORTED", "SYNCFETCH -> ERR BAD_REQUEST",
           "malformed -> ERR BAD_REQUEST", "completed bye", "completed evict",
           "history capped", "global-model SESSION",
           "PRED for a session opened on another connection",
           "dead id whose slot holds a live session"})
    EXPECT_GT(coverage[required], 0u) << required << " never came up";
}

// -- Loopback schedules ----------------------------------------------------------------

/// Reads one reply frame, failing instead of hanging when none comes.
std::optional<Response> read_reply(const FdHandle& conn) {
  if (!wait_readable(conn, 10'000)) return std::nullopt;
  const auto payload = recv_frame(conn);
  if (!payload) return std::nullopt;
  return parse_response(*payload);
}

std::uint64_t scraped(const std::string& exposition, std::string_view name) {
  std::istringstream lines(exposition);
  std::string line;
  while (std::getline(lines, line))
    if (line.starts_with(name) && line.size() > name.size() && line[name.size()] == ' ')
      return std::stoull(line.substr(name.size() + 1));
  ADD_FAILURE() << name << " missing from the scrape";
  return 0;
}

/// One seeded schedule through a real PredictionServer. Each round every
/// connection opens sessions (its HELLOs answered before anything else is
/// sent for them), then all connections pipeline frames for their own
/// sessions at once, written interleaved in fragments, and each
/// connection's replies must equal what the reference answers for that
/// connection; every few rounds two connections ship snapshots in lockstep.
/// Model swaps, publication and drain happen between rounds, when no frame
/// is in flight.
class LoopbackSchedule {
 public:
  LoopbackSchedule(std::uint64_t seed, std::size_t io_threads)
      : rng_(seed), seed_(seed) {
    config_.io_threads = io_threads;
    config_.session_ttl_ms = 600'000;  // nothing ages out mid-schedule
    config_.drain_session_ttl_ms = 0;
    config_.max_sample_mbps = 100.0;
    config_.retry_after_ms = 40;
    config_.sync_apply = decode_snapshot;
    config_.on_session_complete = [this](CompletedSession&& done) {
      const std::scoped_lock lock(completed_mutex_);
      completed_.push_back(Completion{done.session_id, std::string(done.reason),
                                      std::move(done.features), done.start_hour,
                                      std::move(done.observations)});
    };
    const auto& model = rng_.bernoulli(0.5) ? models().plain : models().guarded;
    server_ = std::make_unique<PredictionServer>(model, config_);
    reference_ = std::make_unique<Reference>(model, config_);
    const std::size_t connections = pick(rng_, 3, 4);
    for (std::size_t c = 0; c < connections; ++c) {
      conns_.push_back(connect_loopback(server_->port()));
      ref_staging_.emplace_back();
      sessions_.emplace_back();
    }
  }

  void run() {
    for (round_ = 0; round_ < 4 && !::testing::Test::HasFailure(); ++round_) {
      between_rounds();
      open_sessions();
      if (::testing::Test::HasFailure()) return;
      pipeline();
      if (::testing::Test::HasFailure()) return;
      if (round_ % 2 == 1) ship_in_lockstep();
      if (::testing::Test::HasFailure()) return;
      compare_completions();
    }
    if (::testing::Test::HasFailure()) return;
    // Every reply has been read: the server's reply count catches up with
    // its request count (a reply is counted once its last byte is handed to
    // the kernel, which may be just after the client read it).
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (server_->replies_sent() != server_->requests_handled() &&
           Clock::now() < deadline)
      std::this_thread::yield();
    EXPECT_EQ(server_->replies_sent(), server_->requests_handled()) << context();
  }

 private:
  std::string context() const {
    return "seed " + std::to_string(seed_) + ", io_threads " +
           std::to_string(config_.io_threads) + ", round " + std::to_string(round_);
  }

  void between_rounds() {
    const auto& m = models();
    if (round_ > 0 && rng_.bernoulli(0.5)) {
      const auto model = std::array{m.plain, m.guarded, m.history}[pick(rng_, 0, 2)];
      server_->swap_model(model);
      reference_->swap_model(model);
    }
    std::string bytes = snapshot_bytes(rng_);
    server_->publish_snapshot(bytes);
    reference_->publish_snapshot(std::move(bytes));
    if (round_ == 3 && rng_.bernoulli(0.6)) {
      server_->begin_drain();
      reference_->begin_drain();
    }
  }

  void open_sessions() {
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      std::vector<std::string> payloads;
      const std::size_t hellos = pick(rng_, 1, 3);
      for (std::size_t i = 0; i < hellos; ++i)
        payloads.push_back(hello_payload(rng_, rng_.bernoulli(0.1)));
      std::string burst;
      for (const auto& payload : payloads) burst += encode_frame(payload);
      send_all(conns_[c], std::as_bytes(std::span(burst)));
      for (const auto& payload : payloads) {
        const auto got = read_reply(conns_[c]);
        ASSERT_TRUE(got.has_value()) << context() << ": no HELLO reply";
        Response want = reference_->serve(payload, ref_staging_[c], Clock::now());
        ASSERT_TRUE(reference_->learn_id(*got, want)) << context() << ", conn " << c;
        if (const auto* session = std::get_if<SessionResponse>(&want))
          sessions_[c].push_back(session->session_id);
        ASSERT_TRUE(same_reply(*got, want)) << context() << ", conn " << c;
      }
    }
  }

  /// A frame for one of connection `c`'s own sessions (or an id nobody
  /// owns).
  std::string own_frame(std::size_t c) {
    const auto& owned = sessions_[c];
    // Generation 0 is never issued (DESIGN.md §12).
    std::uint64_t target = pick(rng_, 0, 0xffffffffu);
    if (!owned.empty() && rng_.bernoulli(0.92))
      target = owned[pick(rng_, 0, owned.size() - 1)];
    const double u = rng_.uniform();
    if (u < 0.55)
      return serialize_request(
          ObserveRequest{target, sample_mbps(rng_, config_.max_sample_mbps)});
    if (u < 0.80) return serialize_request(PredictRequest{target, horizon(rng_)});
    if (u < 0.84) return serialize_request(ByeRequest{target});
    std::string payload;
    if (u < 0.88) {
      payload = serialize_request(StatsRequest{});
    } else if (u < 0.92) {
      payload = serialize_request(ModelRequest{
          models().sessions[pick(rng_, 0, models().sessions.size() - 1)].features,
          rng_.uniform(0.0, 24.0)});
    } else if (u < 0.96) {
      payload = serialize_request(SyncFetchRequest{pick(rng_, 0, 500)});
    } else {
      const auto& bad = malformed_payloads();
      payload = bad[pick(rng_, 0, bad.size() - 1)];
    }
    return payload;
  }

  void pipeline() {
    std::vector<std::vector<Response>> expected(conns_.size());
    std::vector<std::string> bursts(conns_.size());
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      const std::size_t frames = pick(rng_, 20, 60);
      for (std::size_t i = 0; i < frames; ++i) {
        const std::string payload = own_frame(c);
        bursts[c] += encode_frame(payload);
        expected[c].push_back(
            reference_->serve(payload, ref_staging_[c], Clock::now()));
      }
    }
    // Every connection's burst goes out in fragments, round robin, so
    // frames split across reads and passes serve several connections.
    std::vector<std::size_t> sent(conns_.size(), 0);
    for (bool more = true; more;) {
      more = false;
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        const std::size_t n =
            std::min(bursts[c].size() - sent[c], pick(rng_, 1, 300));
        if (n == 0) continue;
        send_all(conns_[c], std::as_bytes(std::span(bursts[c]).subspan(sent[c], n)));
        sent[c] += n;
        more = true;
      }
    }
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      for (std::size_t i = 0; i < expected[c].size(); ++i) {
        const auto got = read_reply(conns_[c]);
        ASSERT_TRUE(got.has_value()) << context() << ", conn " << c << ": reply "
                                     << i << " never came";
        ASSERT_TRUE(same_reply(*got, expected[c][i]))
            << context() << ", conn " << c << ", reply " << i;
        if (const auto* stats = std::get_if<StatsResponse>(&*got)) {
          EXPECT_GE(scraped(stats->exposition, "cs2p_server_requests_total"),
                    scraped(stats->exposition, "cs2p_server_replies_total"))
              << context();
        }
      }
    }
  }

  /// Connections 0 and 1 ship a snapshot each, one frame per step from each
  /// before either reads: with staging per connection neither shipment sees
  /// the other. Both carry the same bytes (one maybe bit-flipped), so the
  /// model after the step does not depend on which commit landed first.
  void ship_in_lockstep() {
    std::string bytes = snapshot_bytes(rng_);
    const auto plan = [&bytes, this](bool flip) {
      std::vector<std::string> frames{
          serialize_request(SyncBeginRequest{bytes.size(), sync_checksum(bytes)})};
      const std::size_t half = bytes.size() / 2;
      std::string second = bytes.substr(half);
      if (flip && !second.empty()) second[pick(rng_, 0, second.size() - 1)] ^= 0x04;
      frames.push_back(serialize_request(SyncChunkRequest{bytes.substr(0, half)}));
      frames.push_back(serialize_request(SyncChunkRequest{std::move(second)}));
      frames.push_back(serialize_request(SyncCommitRequest{}));
      return frames;
    };
    const std::array shipments{plan(false), plan(rng_.bernoulli(0.5))};
    for (std::size_t step = 0; step < shipments[0].size(); ++step) {
      for (std::size_t c = 0; c < 2; ++c) send_frame(conns_[c], shipments[c][step]);
      for (std::size_t c = 0; c < 2; ++c) {
        const auto got = read_reply(conns_[c]);
        ASSERT_TRUE(got.has_value()) << context() << ": no SYNC reply";
        const Response want = reference_->serve(shipments[c][step], ref_staging_[c],
                                                Clock::now());
        ASSERT_TRUE(same_reply(*got, want))
            << context() << ", conn " << c << ", SYNC step " << step;
      }
    }
  }

  void compare_completions() {
    std::vector<Completion> got;
    {
      const std::scoped_lock lock(completed_mutex_);
      got = std::exchange(completed_, {});
    }
    // Replies are read before this runs, and BYE completes its session
    // before it answers.
    EXPECT_TRUE(same_completions(std::move(got),
                                 std::exchange(reference_->completions, {})))
        << context();
  }

  Rng rng_;
  std::uint64_t seed_;
  std::size_t round_ = 0;
  ServerConfig config_;
  std::mutex completed_mutex_;
  std::vector<Completion> completed_;
  std::unique_ptr<PredictionServer> server_;
  std::unique_ptr<Reference> reference_;
  std::vector<FdHandle> conns_;
  std::vector<RefStaging> ref_staging_;
  std::vector<std::vector<std::uint64_t>> sessions_;  ///< ids opened per connection
};

TEST(FrameOracle, LoopbackSchedulesMatchTheReferencePerConnection) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    LoopbackSchedule(seed, seed % 2 == 0 ? 2 : 1).run();
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace cs2p
