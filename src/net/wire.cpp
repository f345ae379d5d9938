#include "net/wire.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/hash.h"

namespace cs2p {
namespace {

constexpr bool is_wire_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

// Whitespace split without streams: requests ride the serve hot path, and an
// istringstream round-trip costs more than the rest of the parse combined.
// Views alias `payload`, which outlives every parse_* call that uses them.
std::vector<std::string_view> tokenize(std::string_view payload) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < payload.size()) {
    while (i < payload.size() && is_wire_space(payload[i])) ++i;
    const std::size_t start = i;
    while (i < payload.size() && !is_wire_space(payload[i])) ++i;
    if (i > start) tokens.push_back(payload.substr(start, i - start));
  }
  return tokens;
}

double parse_double(std::string_view token, const char* what) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || ptr != token.data() + token.size())
    throw ProtocolError(std::string("wire: bad number for ") + what);
  return value;
}

std::uint64_t parse_u64(std::string_view token, const char* what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || ptr != token.data() + token.size())
    throw ProtocolError(std::string("wire: bad integer for ") + what);
  return value;
}

void require_token(std::string_view value, const char* what) {
  if (value.empty() ||
      std::find_if(value.begin(), value.end(), is_wire_space) != value.end()) {
    throw ProtocolError(std::string("wire: feature value for ") + what +
                        " must be a non-empty whitespace-free token");
  }
}

/// Frame header: [version][len-hi][len-mid][len-lo].
std::array<std::byte, 4> encode_frame_header(std::uint32_t size) {
  return {
      static_cast<std::byte>(kProtocolVersion),
      static_cast<std::byte>((size >> 16) & 0xff),
      static_cast<std::byte>((size >> 8) & 0xff),
      static_cast<std::byte>(size & 0xff),
  };
}

std::uint32_t decode_frame_header(const std::array<std::byte, 4>& header) {
  const auto version = std::to_integer<std::uint8_t>(header[0]);
  if (version != kProtocolVersion)
    throw ProtocolError("wire: unsupported protocol version " +
                        std::to_string(version));
  const std::uint32_t size = (std::to_integer<std::uint32_t>(header[1]) << 16) |
                             (std::to_integer<std::uint32_t>(header[2]) << 8) |
                             std::to_integer<std::uint32_t>(header[3]);
  if (size > kMaxFrameBytes) throw ProtocolError("wire: oversized frame");
  return size;
}

// Shortest round-trip formatting (to_chars default): decodes to the exact
// same double, and at a fraction of an ostringstream's cost. 32 chars covers
// the longest shortest-form double ("-2.2250738585072014e-308" is 24).
void append_double(std::string& out, double v) {
  std::array<char, 32> buf;
  const auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  if (ec != std::errc{}) throw ProtocolError("wire: unformattable number");
  out.append(buf.data(), static_cast<std::size_t>(ptr - buf.data()));
}

void append_u64(std::string& out, std::uint64_t v) {
  std::array<char, 20> buf;
  const auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  if (ec != std::errc{}) throw ProtocolError("wire: unformattable number");
  out.append(buf.data(), static_cast<std::size_t>(ptr - buf.data()));
}

/// Fixed-width 16-hex checksum, matching the snapshot store's footer format.
void append_hex16(std::string& out, std::uint64_t v) {
  constexpr char digits[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4)
    out += digits[(v >> shift) & 0xf];
}

std::uint64_t parse_hex64(std::string_view token, const char* what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value, 16);
  if (ec != std::errc{} || ptr != token.data() + token.size())
    throw ProtocolError(std::string("wire: bad hex value for ") + what);
  return value;
}

}  // namespace

std::uint64_t sync_checksum(std::string_view data) noexcept {
  return fnv1a64(data);
}

std::string_view wire_error_code_name(WireErrorCode code) noexcept {
  switch (code) {
    case WireErrorCode::kBadRequest: return "BAD_REQUEST";
    case WireErrorCode::kUnknownSession: return "UNKNOWN_SESSION";
    case WireErrorCode::kInvalidSample: return "INVALID_SAMPLE";
    case WireErrorCode::kOverloaded: return "OVERLOADED";
    case WireErrorCode::kShuttingDown: return "SHUTTING_DOWN";
    case WireErrorCode::kUnsupported: return "UNSUPPORTED";
    case WireErrorCode::kInternal: return "INTERNAL";
    case WireErrorCode::kSyncRejected: return "SYNC_REJECTED";
  }
  return "INTERNAL";
}

std::optional<WireErrorCode> wire_error_code_from_name(
    std::string_view name) noexcept {
  for (const WireErrorCode code :
       {WireErrorCode::kBadRequest, WireErrorCode::kUnknownSession,
        WireErrorCode::kInvalidSample, WireErrorCode::kOverloaded,
        WireErrorCode::kShuttingDown, WireErrorCode::kUnsupported,
        WireErrorCode::kInternal, WireErrorCode::kSyncRejected}) {
    if (name == wire_error_code_name(code)) return code;
  }
  return std::nullopt;
}

std::string encode_frame(std::string_view payload) {
  if (payload.size() > kMaxFrameBytes)
    throw ProtocolError("wire: frame too large");
  const auto header =
      encode_frame_header(static_cast<std::uint32_t>(payload.size()));
  std::string frame;
  frame.reserve(header.size() + payload.size());
  frame.append(reinterpret_cast<const char*>(header.data()), header.size());
  frame.append(payload);
  return frame;
}

std::uint32_t parse_frame_header(std::string_view header) {
  if (header.size() < kFrameHeaderBytes)
    throw ProtocolError("wire: short frame header");
  std::array<std::byte, 4> bytes{};
  std::memcpy(bytes.data(), header.data(), bytes.size());
  return decode_frame_header(bytes);
}

// Both senders emit header + payload as ONE buffer/syscall: with TCP_NODELAY
// set, split sends can leave the 4-byte header in its own segment and cost
// the peer an extra wakeup per frame.
void send_frame(const FdHandle& socket, std::string_view payload) {
  const std::string frame = encode_frame(payload);
  send_all(socket, std::as_bytes(std::span(frame.data(), frame.size())));
}

void send_frame(Transport& transport, std::string_view payload) {
  const std::string frame = encode_frame(payload);
  transport.send(std::as_bytes(std::span(frame.data(), frame.size())));
}

std::optional<std::string> recv_frame(const FdHandle& socket) {
  std::array<std::byte, 4> header{};
  if (!recv_all(socket, header)) return std::nullopt;
  const std::uint32_t size = decode_frame_header(header);
  std::string payload(size, '\0');
  if (size > 0 &&
      !recv_all(socket, std::as_writable_bytes(std::span(payload.data(), size))))
    throw ProtocolError("wire: connection closed mid-frame");
  return payload;
}

std::optional<std::string> recv_frame(Transport& transport) {
  std::array<std::byte, 4> header{};
  if (!transport.recv(header)) return std::nullopt;
  const std::uint32_t size = decode_frame_header(header);
  std::string payload(size, '\0');
  if (size > 0 &&
      !transport.recv(std::as_writable_bytes(std::span(payload.data(), size))))
    throw ProtocolError("wire: connection closed mid-frame");
  return payload;
}

std::string serialize_request(const Request& request) {
  std::string out;
  out.reserve(96);
  if (const auto* hello = std::get_if<HelloRequest>(&request)) {
    const auto& f = hello->features;
    for (FeatureId id : all_features()) require_token(f.value(id), "HELLO");
    out += "HELLO ";
    out += f.isp;
    out += ' ';
    out += f.as_number;
    out += ' ';
    out += f.province;
    out += ' ';
    out += f.city;
    out += ' ';
    out += f.server;
    out += ' ';
    out += f.client_prefix;
    out += ' ';
    append_double(out, hello->start_hour);
  } else if (const auto* observe = std::get_if<ObserveRequest>(&request)) {
    out += "OBSERVE ";
    append_u64(out, observe->session_id);
    out += ' ';
    append_double(out, observe->throughput_mbps);
  } else if (const auto* predict = std::get_if<PredictRequest>(&request)) {
    out += "PREDICT ";
    append_u64(out, predict->session_id);
    out += ' ';
    append_u64(out, predict->steps_ahead);
  } else if (const auto* bye = std::get_if<ByeRequest>(&request)) {
    out += "BYE ";
    append_u64(out, bye->session_id);
  } else if (const auto* model = std::get_if<ModelRequest>(&request)) {
    const auto& f = model->features;
    for (FeatureId id : all_features()) require_token(f.value(id), "MODEL");
    out += "MODEL ";
    out += f.isp;
    out += ' ';
    out += f.as_number;
    out += ' ';
    out += f.province;
    out += ' ';
    out += f.city;
    out += ' ';
    out += f.server;
    out += ' ';
    out += f.client_prefix;
    out += ' ';
    append_double(out, model->start_hour);
  } else if (std::holds_alternative<StatsRequest>(request)) {
    out += "STATS";
  } else if (const auto* begin = std::get_if<SyncBeginRequest>(&request)) {
    out += "SYNCBEGIN ";
    append_u64(out, begin->total_bytes);
    out += ' ';
    append_hex16(out, begin->checksum);
  } else if (const auto* chunk = std::get_if<SyncChunkRequest>(&request)) {
    // Raw bytes after the header line, the body-after-header shape of MODEL.
    out += "SYNCDATA\n";
    out += chunk->data;
  } else if (std::holds_alternative<SyncCommitRequest>(request)) {
    out += "SYNCCOMMIT";
  } else if (const auto* fetch = std::get_if<SyncFetchRequest>(&request)) {
    out += "SYNCFETCH ";
    append_u64(out, fetch->offset);
  }
  return out;
}

Request parse_request(std::string_view payload) {
  // SYNCDATA carries raw snapshot bytes after its header line; handle it
  // before whitespace tokenization (snapshot bytes may contain anything).
  if (payload.starts_with("SYNCDATA\n")) {
    SyncChunkRequest chunk;
    chunk.data = std::string(payload.substr(9));
    return chunk;
  }
  const auto tokens = tokenize(payload);
  if (tokens.empty()) throw ProtocolError("wire: empty request");
  const std::string_view verb = tokens[0];
  if (verb == "HELLO") {
    if (tokens.size() != 8) throw ProtocolError("wire: HELLO wants 7 fields");
    HelloRequest hello;
    hello.features.isp = tokens[1];
    hello.features.as_number = tokens[2];
    hello.features.province = tokens[3];
    hello.features.city = tokens[4];
    hello.features.server = tokens[5];
    hello.features.client_prefix = tokens[6];
    hello.start_hour = parse_double(tokens[7], "start_hour");
    return hello;
  }
  if (verb == "OBSERVE") {
    if (tokens.size() != 3) throw ProtocolError("wire: OBSERVE wants 2 fields");
    return ObserveRequest{parse_u64(tokens[1], "session_id"),
                          parse_double(tokens[2], "throughput")};
  }
  if (verb == "PREDICT") {
    if (tokens.size() != 3) throw ProtocolError("wire: PREDICT wants 2 fields");
    const std::uint64_t steps = parse_u64(tokens[2], "steps_ahead");
    if (steps > std::numeric_limits<unsigned>::max())
      throw ProtocolError("wire: steps_ahead out of range");
    return PredictRequest{parse_u64(tokens[1], "session_id"),
                          static_cast<unsigned>(steps)};
  }
  if (verb == "BYE") {
    if (tokens.size() != 2) throw ProtocolError("wire: BYE wants 1 field");
    return ByeRequest{parse_u64(tokens[1], "session_id")};
  }
  if (verb == "STATS") {
    if (tokens.size() != 1) throw ProtocolError("wire: STATS wants no fields");
    return StatsRequest{};
  }
  if (verb == "SYNCBEGIN") {
    if (tokens.size() != 3)
      throw ProtocolError("wire: SYNCBEGIN wants 2 fields");
    return SyncBeginRequest{parse_u64(tokens[1], "total_bytes"),
                            parse_hex64(tokens[2], "checksum")};
  }
  if (verb == "SYNCCOMMIT") {
    if (tokens.size() != 1)
      throw ProtocolError("wire: SYNCCOMMIT wants no fields");
    return SyncCommitRequest{};
  }
  if (verb == "SYNCFETCH") {
    if (tokens.size() != 2) throw ProtocolError("wire: SYNCFETCH wants 1 field");
    return SyncFetchRequest{parse_u64(tokens[1], "offset")};
  }
  if (verb == "MODEL") {
    if (tokens.size() != 8) throw ProtocolError("wire: MODEL wants 7 fields");
    ModelRequest model;
    model.features.isp = tokens[1];
    model.features.as_number = tokens[2];
    model.features.province = tokens[3];
    model.features.city = tokens[4];
    model.features.server = tokens[5];
    model.features.client_prefix = tokens[6];
    model.start_hour = parse_double(tokens[7], "start_hour");
    return model;
  }
  throw ProtocolError("wire: unknown request verb " + std::string(verb));
}

std::string serialize_response(const Response& response) {
  std::string out;
  out.reserve(64);
  if (const auto* session = std::get_if<SessionResponse>(&response)) {
    out += "SESSION ";
    append_u64(out, session->session_id);
    out += ' ';
    append_double(out, session->initial_mbps);
    out += session->used_global_model ? " 1 " : " 0 ";
    out += session->cluster_label.empty() ? "-" : session->cluster_label;
  } else if (const auto* pred = std::get_if<PredictionResponse>(&response)) {
    out += "PRED ";
    append_double(out, pred->mbps);
    out += ' ';
    append_u64(out, pred->flags);
  } else if (std::holds_alternative<OkResponse>(response)) {
    out += "OK";
  } else if (const auto* err = std::get_if<ErrorResponse>(&response)) {
    // v5: the retry-after hint always travels (0 = none), so the field count
    // is fixed and the free-form message stays last.
    out += "ERR ";
    out += wire_error_code_name(err->code);
    out += ' ';
    append_u64(out, err->retry_after_ms);
    out += ' ';
    out += err->message;
  } else if (const auto* model = std::get_if<ModelResponse>(&response)) {
    // Header line, then the serialized model verbatim.
    out += "MODEL ";
    append_double(out, model->initial_mbps);
    out += model->used_global_model ? " 1\n" : " 0\n";
    out += model->serialized_hmm;
  } else if (const auto* stats = std::get_if<StatsResponse>(&response)) {
    // Header line, then the text exposition verbatim (same body-after-header
    // shape as MODEL).
    out += "STATS ";
    append_u64(out, static_cast<std::uint64_t>(stats->exposition_version));
    out += '\n';
    out += stats->exposition;
  } else if (const auto* snap = std::get_if<SnapshotChunkResponse>(&response)) {
    out += "SNAPSHOT ";
    append_u64(out, snap->total_bytes);
    out += ' ';
    append_hex16(out, snap->checksum);
    out += ' ';
    append_u64(out, snap->offset);
    out += '\n';
    out += snap->data;
  }
  return out;
}

Response parse_response(std::string_view payload) {
  // STATS responses carry the raw exposition after the header line; handle
  // them before whitespace tokenization.
  if (payload.starts_with("STATS ")) {
    const auto newline = payload.find('\n');
    if (newline == std::string_view::npos)
      throw ProtocolError("wire: STATS response missing body");
    const auto header = tokenize(payload.substr(0, newline));
    if (header.size() != 2)
      throw ProtocolError("wire: STATS header wants 1 field");
    StatsResponse stats;
    stats.exposition_version =
        static_cast<int>(parse_u64(header[1], "exposition_version"));
    stats.exposition = std::string(payload.substr(newline + 1));
    return stats;
  }
  // SNAPSHOT chunks carry raw snapshot bytes after the header line.
  if (payload.starts_with("SNAPSHOT ")) {
    const auto newline = payload.find('\n');
    if (newline == std::string_view::npos)
      throw ProtocolError("wire: SNAPSHOT response missing body");
    const auto header = tokenize(payload.substr(0, newline));
    if (header.size() != 4)
      throw ProtocolError("wire: SNAPSHOT header wants 3 fields");
    SnapshotChunkResponse snap;
    snap.total_bytes = parse_u64(header[1], "total_bytes");
    snap.checksum = parse_hex64(header[2], "checksum");
    snap.offset = parse_u64(header[3], "offset");
    snap.data = std::string(payload.substr(newline + 1));
    return snap;
  }
  // ERR <code> <retry-after-ms> <message>: split on single spaces, so the
  // message is the verbatim remainder — empty, digit-leading, or spaced.
  if (payload.starts_with("ERR ")) {
    std::string_view rest = payload.substr(4);
    const auto code_end = rest.find(' ');
    const auto code = wire_error_code_from_name(rest.substr(0, code_end));
    if (code_end == std::string_view::npos || !code)
      throw ProtocolError("wire: ERR wants <code> <retry-after-ms> <message>");
    rest.remove_prefix(code_end + 1);
    const auto hint_end = rest.find(' ');
    if (hint_end == std::string_view::npos)
      throw ProtocolError("wire: ERR wants <code> <retry-after-ms> <message>");
    const std::uint64_t hint = parse_u64(rest.substr(0, hint_end), "retry_after_ms");
    if (hint > 0xffffffffULL)
      throw ProtocolError("wire: retry_after_ms out of range");
    return ErrorResponse{*code, std::string(rest.substr(hint_end + 1)),
                         static_cast<std::uint32_t>(hint)};
  }
  // MODEL responses carry a raw body after the header line; handle them
  // before whitespace tokenization.
  if (payload.starts_with("MODEL ")) {
    const auto newline = payload.find('\n');
    if (newline == std::string_view::npos)
      throw ProtocolError("wire: MODEL response missing body");
    const auto header = tokenize(payload.substr(0, newline));
    if (header.size() != 3)
      throw ProtocolError("wire: MODEL header wants 2 fields");
    ModelResponse model;
    model.initial_mbps = parse_double(header[1], "initial_mbps");
    model.used_global_model = parse_u64(header[2], "global_flag") != 0;
    model.serialized_hmm = std::string(payload.substr(newline + 1));
    return model;
  }
  const auto tokens = tokenize(payload);
  if (tokens.empty()) throw ProtocolError("wire: empty response");
  const std::string_view verb = tokens[0];
  if (verb == "SESSION") {
    if (tokens.size() != 5) throw ProtocolError("wire: SESSION wants 4 fields");
    SessionResponse session;
    session.session_id = parse_u64(tokens[1], "session_id");
    session.initial_mbps = parse_double(tokens[2], "initial_mbps");
    session.used_global_model = parse_u64(tokens[3], "global_flag") != 0;
    session.cluster_label =
        tokens[4] == "-" ? std::string{} : std::string(tokens[4]);
    return session;
  }
  if (verb == "PRED") {
    if (tokens.size() != 3) throw ProtocolError("wire: PRED wants 2 fields");
    const std::uint64_t flags = parse_u64(tokens[2], "serve_flags");
    if (flags > 0xff) throw ProtocolError("wire: serve_flags out of range");
    return PredictionResponse{parse_double(tokens[1], "mbps"),
                              static_cast<std::uint8_t>(flags)};
  }
  if (verb == "OK") return OkResponse{};
  throw ProtocolError("wire: unknown response verb " + std::string(verb));
}

}  // namespace cs2p
