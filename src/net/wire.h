// Wire protocol of the prediction service (paper §6).
//
// The paper's player sends an HTTP POST with the last epoch's measured
// throughput and receives the next prediction in ~5 ms. We use the same
// request/response shape over a persistent TCP connection with 4-byte
// big-endian framing — one protocol-version byte followed by a 24-bit
// payload length — and a line-oriented payload:
//
//   client -> server
//     HELLO <isp> <as> <province> <city> <server> <prefix> <hour>
//     OBSERVE <session-id> <mbps>          (report measurement, get forecast)
//     PREDICT <session-id> <steps-ahead>   (extra forecast, no new data)
//     MODEL <isp> <as> <province> <city> <server> <prefix> <hour>
//                                          (download the compact per-session
//                                           model for client-side execution,
//                                           the paper's decentralized mode)
//     STATS                                (scrape the server's metrics
//                                           registry, DESIGN.md §11)
//     BYE <session-id>
//     SYNCBEGIN <total-bytes> <fnv64-hex>  (start shipping a model_store
//                                           snapshot to this replica,
//                                           DESIGN.md §13)
//     SYNCDATA \n <raw snapshot chunk>     (append bytes to the staged
//                                           snapshot; one frame per chunk)
//     SYNCCOMMIT                           (verify byte count + checksum,
//                                           then hot-swap the decoded model)
//     SYNCFETCH <offset>                   (pull a chunk of the replica's
//                                           published snapshot)
//   server -> client
//     SESSION <session-id> <initial-mbps> <global 0|1> <cluster-label>
//     PRED <mbps> <flags>         (flags: serve_flags:: bits — why this
//                                  prediction was served the way it was)
//     MODEL <initial-mbps> <global 0|1> \n <serialized hmm ...>
//     STATS <exposition-version> \n <metrics text exposition ...>
//     SNAPSHOT <total-bytes> <fnv64-hex> <offset> \n <raw snapshot chunk>
//     OK
//     ERR <code> <retry-after-ms> <message>
//                                 (code: see WireErrorCode below; the
//                                  retry-after field is the server's backoff
//                                  hint in milliseconds, 0 = none; the
//                                  message is everything after its space)
//
// Every field is mandatory: the frame header admits only kProtocolVersion,
// so the decoder carries no branches for older payload shapes.
//
// Feature values must be whitespace-free tokens (true for every dataset this
// library produces); HELLO validates this instead of escaping.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>

#include "dataset/session.h"
#include "net/socket.h"
#include "net/transport.h"

namespace cs2p {

/// Version stamped into byte 0 of every frame header; a peer speaking a
/// different framing is rejected with ProtocolError instead of desyncing.
/// v2 added the serve-flags field to PRED responses; v3 added the STATS
/// scrape verb; v4 added the SYNC snapshot-shipping verbs; v5 added the
/// retry-after-ms field to ERR responses (overload shedding + graceful
/// drain, DESIGN.md §14) and the kDraining serve-flag bit (a v1–v4 client
/// is rejected at the frame header, before any verb parsing).
inline constexpr std::uint8_t kProtocolVersion = 5;

/// Maximum accepted frame payload; guards against malformed length prefixes.
/// Must fit the 24-bit length field of the frame header.
inline constexpr std::uint32_t kMaxFrameBytes = 64 * 1024;

/// Size of the frame header ([version][len-hi][len-mid][len-lo]).
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Raw snapshot bytes carried per SYNCDATA/SNAPSHOT frame. Leaves headroom
/// inside kMaxFrameBytes for the verb header line.
inline constexpr std::size_t kSyncChunkBytes = 48 * 1024;

/// FNV-1a 64 over `data` — the wire-level snapshot checksum declared by
/// SYNCBEGIN and verified byte-for-byte before a replica commits a shipped
/// snapshot (the same algorithm core/model_store uses for its footer, so a
/// trainer can checksum once). Stable across platforms.
std::uint64_t sync_checksum(std::string_view data) noexcept;

/// A malformed frame or payload (bad version byte, oversized length,
/// unparseable message). Distinct from TransportError: the bytes arrived but
/// do not decode, so the stream may be desynced and should be reconnected.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Machine-readable error classes carried by ERR responses, so clients can
/// decide what is retryable without parsing prose.
enum class WireErrorCode : std::uint8_t {
  kBadRequest = 0,   ///< unparseable or semantically invalid request
  kUnknownSession,   ///< session id not in the server's table (expired/lost)
  kInvalidSample,    ///< NaN/negative/absurd throughput sample rejected
  kOverloaded,       ///< connection cap reached; try later
  kShuttingDown,     ///< server is stopping
  kUnsupported,      ///< operation not supported by this model family
  kInternal,         ///< unexpected server-side failure
  kSyncRejected,     ///< shipped snapshot refused (corrupt, mismatched, or
                     ///< no SYNC in progress); the served model is unchanged
};

/// Stable token used on the wire ("BAD_REQUEST", "UNKNOWN_SESSION", ...).
std::string_view wire_error_code_name(WireErrorCode code) noexcept;

/// Inverse of wire_error_code_name; nullopt for unknown tokens.
std::optional<WireErrorCode> wire_error_code_from_name(std::string_view name) noexcept;

/// A server-reported error (an ERR response), thrown by PredictionClient.
/// Unlike TransportError, the round trip itself succeeded.
class ServerError : public std::runtime_error {
 public:
  ServerError(WireErrorCode code, const std::string& message,
              std::uint32_t retry_after_ms = 0)
      : std::runtime_error("prediction server: [" +
                           std::string(wire_error_code_name(code)) + "] " +
                           message),
        code_(code),
        retry_after_ms_(retry_after_ms) {}

  WireErrorCode code() const noexcept { return code_; }

  /// The server's backoff hint (protocol v5): how long it suggests waiting
  /// before retrying anywhere in the tier. 0 = no hint. ReplicaSet honors
  /// this when every replica is shedding (DESIGN.md §14).
  std::uint32_t retry_after_ms() const noexcept { return retry_after_ms_; }

 private:
  WireErrorCode code_;
  std::uint32_t retry_after_ms_;
};

/// Encodes one length-prefixed frame (header + payload) into a contiguous
/// buffer — the form buffered non-blocking writers queue. send_frame() is
/// equivalent to sending this in one piece. Throws ProtocolError on
/// oversized payloads.
std::string encode_frame(std::string_view payload);

/// Decodes a frame header (first kFrameHeaderBytes of `header`), validating
/// the version byte and the length field; returns the payload size. Throws
/// ProtocolError on a version mismatch or oversized length — the stream is
/// desynced and must be dropped.
std::uint32_t parse_frame_header(std::string_view header);

/// Sends one length-prefixed frame.
void send_frame(const FdHandle& socket, std::string_view payload);
void send_frame(Transport& transport, std::string_view payload);

/// Receives one frame; nullopt on clean EOF. Throws ProtocolError on
/// version-mismatched or oversized frames.
std::optional<std::string> recv_frame(const FdHandle& socket);
std::optional<std::string> recv_frame(Transport& transport);

// -- Typed messages ---------------------------------------------------------

struct HelloRequest {
  SessionFeatures features;
  double start_hour = 0.0;
};
struct ObserveRequest {
  std::uint64_t session_id = 0;
  double throughput_mbps = 0.0;
};
struct PredictRequest {
  std::uint64_t session_id = 0;
  unsigned steps_ahead = 1;
};
struct ByeRequest {
  std::uint64_t session_id = 0;
};
struct ModelRequest {
  SessionFeatures features;
  double start_hour = 0.0;
};
/// Scrape the server's metrics registry (protocol v3). No arguments: the
/// registry is a process-wide singleton root, and keeping the verb static
/// lets any operator tool speak it without knowing what is registered.
struct StatsRequest {};
/// Start shipping a model_store snapshot to this replica (protocol v4,
/// DESIGN.md §13). Declares the byte count and checksum up front so the
/// receiver can verify byte-for-byte before the RCU hot-swap ever runs.
struct SyncBeginRequest {
  std::uint64_t total_bytes = 0;
  std::uint64_t checksum = 0;  ///< sync_checksum() of the full snapshot
};
/// One chunk of snapshot bytes; appended to the connection's staging buffer
/// in order. Rejected with SYNC_REJECTED when no SYNCBEGIN is in progress.
struct SyncChunkRequest {
  std::string data;
};
/// Finish the shipment: the server verifies the staged byte count and
/// checksum against SYNCBEGIN's declaration, decodes the snapshot, and
/// hot-swaps the model — or answers SYNC_REJECTED and keeps serving the
/// current model. Never a partial swap.
struct SyncCommitRequest {};
/// Pull one chunk of the replica's published snapshot starting at `offset`
/// (the pull direction of SYNC: a fresh replica bootstraps from a trainer).
struct SyncFetchRequest {
  std::uint64_t offset = 0;
};
using Request = std::variant<HelloRequest, ObserveRequest, PredictRequest,
                             ByeRequest, ModelRequest, StatsRequest,
                             SyncBeginRequest, SyncChunkRequest,
                             SyncCommitRequest, SyncFetchRequest>;

struct SessionResponse {
  std::uint64_t session_id = 0;
  double initial_mbps = 0.0;
  bool used_global_model = false;
  std::string cluster_label;
};
struct PredictionResponse {
  double mbps = 0.0;
  /// serve_flags:: bits (predictors/predictor.h): why the server answered
  /// from the path it did (primary model, guardrail fallback, drifted
  /// cluster, global model). 0 = primary.
  std::uint8_t flags = 0;
};
struct OkResponse {};
struct ErrorResponse {
  WireErrorCode code = WireErrorCode::kInternal;
  std::string message;
  /// Backoff hint in milliseconds (protocol v5), 0 = none. Stamped by the
  /// server on OVERLOADED/SHUTTING_DOWN replies so a shedding or draining
  /// tier tells clients how long to wait instead of absorbing a hot-spin of
  /// HELLO replays.
  std::uint32_t retry_after_ms = 0;
};
struct ModelResponse {
  double initial_mbps = 0.0;
  bool used_global_model = false;
  std::string serialized_hmm;  ///< text form (see hmm/model.h)
};
/// Reply to STATS: the registry's versioned text exposition, carried
/// verbatim (obs/metrics.h documents the grammar). `exposition_version`
/// mirrors the `# cs2p_metrics_version` header so a scraper can reject a
/// grammar it does not understand without parsing the body.
struct StatsResponse {
  int exposition_version = 0;
  std::string exposition;
};
/// Reply to SYNCFETCH: one chunk of the published snapshot. `total_bytes`
/// and `checksum` describe the whole snapshot (repeated on every chunk so a
/// puller detects a republish mid-fetch and restarts cleanly).
struct SnapshotChunkResponse {
  std::uint64_t total_bytes = 0;
  std::uint64_t checksum = 0;
  std::uint64_t offset = 0;
  std::string data;
};
using Response = std::variant<SessionResponse, PredictionResponse, OkResponse,
                              ErrorResponse, ModelResponse, StatsResponse,
                              SnapshotChunkResponse>;

/// Parse/serialize. parse_* throws ProtocolError on malformed payloads.
std::string serialize_request(const Request& request);
Request parse_request(std::string_view payload);
std::string serialize_response(const Response& response);
Response parse_response(std::string_view payload);

}  // namespace cs2p
