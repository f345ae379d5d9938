// Tests for the wire protocol (net/wire.h): parse/serialize round trips,
// malformed-input handling, and framing over a real loopback socket.

#include "net/wire.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace cs2p {
namespace {

SessionFeatures sample_features() {
  return {"ISP1", "AS10", "Province2", "City2-1", "Server3", "Pfx42"};
}

/// "a a a ...": `count` one-letter tokens, 60 KB at 30,000.
std::string one_letter_tokens(std::size_t count) {
  std::string payload = "a";
  for (std::size_t k = 1; k < count; ++k) payload += " a";
  return payload;
}

/// The ProtocolError message `decode(payload)` throws, or "no error".
template <typename Decode>
std::string error_of(Decode decode, std::string_view payload) {
  try {
    (void)decode(payload);
  } catch (const ProtocolError& e) {
    return e.what();
  }
  return "no error";
}

/// `record` cut to `size` bytes, or padded with 0xab bytes up to it.
std::string resized(std::string record, std::size_t size) {
  record.resize(size, '\xab');
  return record;
}

TEST(Wire, HelloRoundTrip) {
  const HelloRequest hello{sample_features(), 13.75};
  const Request parsed = parse_request(serialize_request(hello));
  const auto* out = std::get_if<HelloRequest>(&parsed);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->features, sample_features());
  EXPECT_DOUBLE_EQ(out->start_hour, 13.75);
}

TEST(Wire, ObservePredictByeRoundTrip) {
  {
    const Request parsed = parse_request(serialize_request(ObserveRequest{7, 2.5}));
    const auto* out = std::get_if<ObserveRequest>(&parsed);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->session_id, 7u);
    EXPECT_DOUBLE_EQ(out->throughput_mbps, 2.5);
  }
  {
    const Request parsed = parse_request(serialize_request(PredictRequest{9, 5}));
    const auto* out = std::get_if<PredictRequest>(&parsed);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->steps_ahead, 5u);
  }
  {
    const Request parsed =
        parse_request(serialize_request(PredictRequest{9, 4294967295u}));  // u32 max
    const auto* out = std::get_if<PredictRequest>(&parsed);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->steps_ahead, 4294967295u);
  }
  {
    const Request parsed = parse_request(serialize_request(ByeRequest{11}));
    ASSERT_NE(std::get_if<ByeRequest>(&parsed), nullptr);
  }
}

TEST(Wire, ResponseRoundTrips) {
  {
    const SessionResponse in{42, 3.25, true, "ISP+City@daypart"};
    const Response parsed = parse_response(serialize_response(in));
    const auto* out = std::get_if<SessionResponse>(&parsed);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->session_id, 42u);
    EXPECT_DOUBLE_EQ(out->initial_mbps, 3.25);
    EXPECT_TRUE(out->used_global_model);
    EXPECT_EQ(out->model_name, "ISP+City@daypart");
  }
  {
    const Response parsed = parse_response(serialize_response(PredictionResponse{1.5}));
    const auto* out = std::get_if<PredictionResponse>(&parsed);
    ASSERT_NE(out, nullptr);
    EXPECT_DOUBLE_EQ(out->mbps, 1.5);
    EXPECT_EQ(out->flags, 0u);
  }
  {
    const Response parsed = parse_response(serialize_response(OkResponse{}));
    EXPECT_NE(std::get_if<OkResponse>(&parsed), nullptr);
  }
  {
    const Response parsed = parse_response(serialize_response(
        ErrorResponse{WireErrorCode::kInternal, "something broke"}));
    const auto* out = std::get_if<ErrorResponse>(&parsed);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->code, WireErrorCode::kInternal);
    EXPECT_EQ(out->message, "something broke");
  }
}

TEST(Wire, ErrorCodeRoundTrips) {
  for (const WireErrorCode code :
       {WireErrorCode::kBadRequest, WireErrorCode::kUnknownSession,
        WireErrorCode::kInvalidSample, WireErrorCode::kOverloaded,
        WireErrorCode::kShuttingDown, WireErrorCode::kUnsupported,
        WireErrorCode::kInternal, WireErrorCode::kSyncRejected}) {
    const Response parsed =
        parse_response(serialize_response(ErrorResponse{code, "detail text"}));
    const auto* out = std::get_if<ErrorResponse>(&parsed);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->code, code);
    EXPECT_EQ(out->message, "detail text");
    EXPECT_EQ(wire_error_code_from_name(wire_error_code_name(code)), code);
  }
}

// -- SYNC verbs (protocol v4): snapshot shipping ----------------------------

TEST(Wire, SyncBeginRoundTrip) {
  const SyncBeginRequest in{123456789ull, 0xdeadbeefcafef00dull};
  const Request parsed = parse_request(serialize_request(in));
  const auto* out = std::get_if<SyncBeginRequest>(&parsed);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->total_bytes, 123456789ull);
  EXPECT_EQ(out->checksum, 0xdeadbeefcafef00dull);
}

TEST(Wire, SyncChunkCarriesArbitraryBytes) {
  // Snapshot bytes are raw: embedded newlines, NULs and frame-like headers
  // must survive verbatim — SYNCDATA is length-delimited, not line-parsed.
  std::string data = "line1\nline2\n";
  data += '\0';
  data += "SYNCCOMMIT\xff\x01 binary";
  for (int b = 0; b < 256; ++b) data += static_cast<char>(b);
  const Request parsed = parse_request(serialize_request(SyncChunkRequest{data}));
  const auto* out = std::get_if<SyncChunkRequest>(&parsed);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->data, data);
}

TEST(Wire, SyncCommitAndFetchRoundTrip) {
  {
    const Request parsed = parse_request(serialize_request(SyncCommitRequest{}));
    EXPECT_NE(std::get_if<SyncCommitRequest>(&parsed), nullptr);
  }
  {
    const Request parsed =
        parse_request(serialize_request(SyncFetchRequest{987654321ull}));
    const auto* out = std::get_if<SyncFetchRequest>(&parsed);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->offset, 987654321ull);
  }
}

TEST(Wire, SnapshotChunkResponseRoundTrip) {
  SnapshotChunkResponse in;
  in.total_bytes = 1'000'000;
  in.checksum = 0x0123456789abcdefull;
  in.offset = 48 * 1024;
  in.data = std::string("\x00\x01\xff raw\npayload", 16);
  const Response parsed = parse_response(serialize_response(in));
  const auto* out = std::get_if<SnapshotChunkResponse>(&parsed);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->total_bytes, in.total_bytes);
  EXPECT_EQ(out->checksum, in.checksum);
  EXPECT_EQ(out->offset, in.offset);
  EXPECT_EQ(out->data, in.data);
}

TEST(Wire, SyncChecksumMatchesModelStoreFnv) {
  // The wire checksum is FNV-1a 64 — the exact algorithm model_store uses
  // for its snapshot footer, so a trainer checksums once. Pin the constants.
  EXPECT_EQ(sync_checksum(""), 0xcbf29ce484222325ull);  // offset basis
  EXPECT_EQ(sync_checksum("a"),
            (0xcbf29ce484222325ull ^ 'a') * 0x100000001b3ull);
  // A single flipped bit changes the checksum.
  std::string bytes(1024, 'x');
  const std::uint64_t clean = sync_checksum(bytes);
  bytes[512] ^= 0x04;
  EXPECT_NE(sync_checksum(bytes), clean);
}

TEST(Wire, MalformedSyncPayloadsThrow) {
  EXPECT_THROW(parse_request("SYNCBEGIN"), ProtocolError);
  EXPECT_THROW(parse_request("SYNCBEGIN 100"), ProtocolError);
  EXPECT_THROW(parse_request("SYNCBEGIN 100 nothex!"), ProtocolError);
  EXPECT_THROW(parse_request("SYNCFETCH"), ProtocolError);
  EXPECT_THROW(parse_request("SYNCFETCH -1"), ProtocolError);
  EXPECT_THROW(parse_response("SNAPSHOT 10 abc"), ProtocolError);
  EXPECT_THROW(parse_response("SNAPSHOT 10 0123456789abcdef"), ProtocolError);
}

TEST(Wire, PredictionFlagsRoundTripAllValues) {
  // Protocol v2: PRED carries a serve-flags byte. Every value survives.
  for (unsigned flags = 0; flags <= 0xff; ++flags) {
    const PredictionResponse in{3.5, static_cast<std::uint8_t>(flags)};
    const Response parsed = parse_response(serialize_response(in));
    const auto* out = std::get_if<PredictionResponse>(&parsed);
    ASSERT_NE(out, nullptr);
    EXPECT_DOUBLE_EQ(out->mbps, 3.5);
    EXPECT_EQ(out->flags, flags);
  }
}

TEST(Wire, PredictionFlagsOutOfRangeThrows) {
  // The flags field is one byte: a PRED record whose flags run to a second
  // byte (as flags 256 would need) is the wrong size, and so is one without
  // them.
  const std::string pred = serialize_response(PredictionResponse{2.75, 1});
  EXPECT_THROW(parse_response(pred + '\0'), ProtocolError);
  EXPECT_THROW(parse_response(resized(pred, kPredRecordBytes - 1)), ProtocolError);
}

TEST(Wire, ErrorRetryAfterRoundTrips) {
  // Protocol v5: ERR carries a retry-after-ms backoff hint.
  const Response parsed = parse_response(serialize_response(
      ErrorResponse{WireErrorCode::kOverloaded, "connection limit reached", 250}));
  const auto* out = std::get_if<ErrorResponse>(&parsed);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->code, WireErrorCode::kOverloaded);
  EXPECT_EQ(out->retry_after_ms, 250u);
  EXPECT_EQ(out->message, "connection limit reached");

  // Zero (no hint) survives too.
  const Response zero = parse_response(serialize_response(
      ErrorResponse{WireErrorCode::kBadRequest, "bad verb", 0}));
  const auto* zout = std::get_if<ErrorResponse>(&zero);
  ASSERT_NE(zout, nullptr);
  EXPECT_EQ(zout->retry_after_ms, 0u);
  EXPECT_EQ(zout->message, "bad verb");
}

TEST(Wire, ErrorRetryAfterDisambiguatesNumericMessages) {
  // v5 grammar: the token right after the code is always the hint.
  const Response parsed = parse_response("ERR SHUTTING_DOWN 500 draining");
  const auto* out = std::get_if<ErrorResponse>(&parsed);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->code, WireErrorCode::kShuttingDown);
  EXPECT_EQ(out->retry_after_ms, 500u);
  EXPECT_EQ(out->message, "draining");
}

TEST(Wire, PreV5PayloadShapesAreRejected) {
  // The frame header admits only kProtocolVersion, so the decoder has no
  // fallbacks for older shapes: PRED without its flags, ERR without a code,
  // ERR without a retry-after, and a digit run too long to be a u32 hint. A
  // v5 text PRED is no reply at all, with or without its flags.
  EXPECT_THROW(parse_response(resized(serialize_response(PredictionResponse{2.75}),
                                      kPredRecordBytes - 1)),
               ProtocolError);
  EXPECT_THROW(parse_response("PRED 2.75"), ProtocolError);
  EXPECT_THROW(parse_response("PRED 2.75 0"), ProtocolError);
  EXPECT_THROW(parse_response("ERR something broke badly"), ProtocolError);
  EXPECT_THROW(parse_response("ERR OVERLOADED try again later"), ProtocolError);
  EXPECT_THROW(parse_response("ERR INTERNAL 12345678901 rows"), ProtocolError);
  EXPECT_THROW(parse_response("ERR OVERLOADED"), ProtocolError);
  EXPECT_THROW(parse_response("ERR OVERLOADED 250"), ProtocolError);
  EXPECT_THROW(parse_response("ERR"), ProtocolError);

  // A v5 message that starts with digits keeps them: the hint is always
  // the token after the code, never a guess.
  const Response parsed = parse_response(serialize_response(
      ErrorResponse{WireErrorCode::kInternal, "12345678901 rows", 0}));
  const auto* out = std::get_if<ErrorResponse>(&parsed);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->code, WireErrorCode::kInternal);
  EXPECT_EQ(out->retry_after_ms, 0u);
  EXPECT_EQ(out->message, "12345678901 rows");
}

TEST(Wire, EmptyClusterLabelUsesPlaceholder) {
  const SessionResponse in{1, 2.0, false, ""};
  const Response parsed = parse_response(serialize_response(in));
  const auto* out = std::get_if<SessionResponse>(&parsed);
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->model_name.empty());
}

TEST(Wire, ModelRequestRoundTrip) {
  const ModelRequest request{sample_features(), 7.25};
  const Request parsed = parse_request(serialize_request(request));
  const auto* out = std::get_if<ModelRequest>(&parsed);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->features, sample_features());
  EXPECT_DOUBLE_EQ(out->start_hour, 7.25);
}

TEST(Wire, ModelResponseRoundTrip) {
  ModelResponse in;
  in.initial_mbps = 2.75;
  in.used_global_model = true;
  in.serialized_hmm = "cs2p-hmm-v1 1\ninitial 1\nrow 1\nstate 2.5 0.3\n";
  const Response parsed = parse_response(serialize_response(in));
  const auto* out = std::get_if<ModelResponse>(&parsed);
  ASSERT_NE(out, nullptr);
  EXPECT_DOUBLE_EQ(out->initial_mbps, 2.75);
  EXPECT_TRUE(out->used_global_model);
  EXPECT_EQ(out->serialized_hmm, in.serialized_hmm);
}

TEST(Wire, ModelResponseWithoutBodyThrows) {
  EXPECT_THROW(parse_response("MODEL 1.0 0"), std::runtime_error);
  EXPECT_THROW(parse_response("MODEL 1.0\nbody"), std::runtime_error);
}

TEST(Wire, StatsRequestRoundTrip) {
  const Request parsed = parse_request(serialize_request(StatsRequest{}));
  EXPECT_NE(std::get_if<StatsRequest>(&parsed), nullptr);
  // STATS takes no arguments; trailing tokens are a malformed request.
  EXPECT_THROW(parse_request("STATS now"), ProtocolError);
}

TEST(Wire, StatsResponseRoundTrip) {
  StatsResponse in;
  in.exposition_version = 1;
  in.exposition =
      "# cs2p_metrics_version 1\n"
      "cs2p_server_requests_total 42\n"
      "cs2p_server_request_seconds_bucket{le=\"+Inf\"} 42\n";
  const Response parsed = parse_response(serialize_response(in));
  const auto* out = std::get_if<StatsResponse>(&parsed);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->exposition_version, 1);
  EXPECT_EQ(out->exposition, in.exposition);
}

TEST(Wire, StatsResponseEmptyBodyRoundTrips) {
  // An empty exposition (freshly built registry) is legal, unlike MODEL
  // whose body is mandatory.
  StatsResponse in;
  in.exposition_version = 1;
  const Response parsed = parse_response(serialize_response(in));
  const auto* out = std::get_if<StatsResponse>(&parsed);
  ASSERT_NE(out, nullptr);
  EXPECT_TRUE(out->exposition.empty());
}

TEST(Wire, StatsResponseWithoutVersionThrows) {
  EXPECT_THROW(parse_response("STATS\nbody"), std::runtime_error);
  EXPECT_THROW(parse_response("STATS x\nbody"), std::runtime_error);
}

TEST(Wire, MalformedRequestsThrow) {
  const std::string observe = serialize_request(ObserveRequest{1, 2.0});
  const std::string predict = serialize_request(PredictRequest{1, 2});
  EXPECT_THROW(parse_request(""), std::runtime_error);
  EXPECT_THROW(parse_request("NONSENSE 1 2"), std::runtime_error);
  EXPECT_THROW(parse_request("HELLO too few"), std::runtime_error);
  // Records cut short: an OBSERVE without its throughput, one cut inside
  // it, a PREDICT without its horizon.
  EXPECT_THROW(parse_request(resized(observe, 9)), ProtocolError);
  EXPECT_THROW(parse_request(resized(observe, 13)), ProtocolError);
  EXPECT_THROW(parse_request(resized(predict, 9)), ProtocolError);
  // The horizon is a u32 field: a record that carries a u64 horizon is the
  // wrong size, refused rather than read as its first four bytes.
  EXPECT_THROW(parse_request(predict + std::string(4, '\0')), ProtocolError);
  EXPECT_THROW(parse_request("BYE"), std::runtime_error);
  EXPECT_THROW(parse_request("MODEL just one"), std::runtime_error);
  // Over-long messages are rejected whole: no message has more than 8
  // tokens, and the tokenizer stops at that bound; a record with bytes
  // after its last field is the wrong size.
  EXPECT_THROW(parse_request("HELLO isp as province city server prefix 1 extra"),
               ProtocolError);
  EXPECT_THROW(parse_request(observe + "extra"), ProtocolError);
  EXPECT_THROW(parse_request(one_letter_tokens(30'000)), ProtocolError);
}

TEST(Wire, MalformedResponsesThrow) {
  const std::string pred = serialize_response(PredictionResponse{2.75, 0});
  EXPECT_THROW(parse_response(""), std::runtime_error);
  EXPECT_THROW(parse_response("WHAT 1"), std::runtime_error);
  EXPECT_THROW(parse_response(std::string(1, kPredTag)), ProtocolError);
  EXPECT_THROW(parse_response("SESSION 1 2.0 1"), std::runtime_error);
  EXPECT_THROW(parse_response(pred + one_letter_tokens(30'000)), ProtocolError);
}

TEST(Wire, HelloRejectsWhitespaceFeatureValues) {
  HelloRequest hello{sample_features(), 1.0};
  hello.features.city = "two words";
  EXPECT_THROW(serialize_request(hello), std::runtime_error);
  hello.features.city = "";
  EXPECT_THROW(serialize_request(hello), std::runtime_error);
  // Every byte the parser splits on is rejected, not just space and tab.
  hello.features.city = "vertical\vtab";
  EXPECT_THROW(serialize_request(hello), std::runtime_error);
}

/// Runs one decoder on `payload`: it must return or throw ProtocolError.
template <typename Decode>
void decodes_or_throws_protocol_error(Decode decode, std::string_view payload) {
  try {
    (void)decode(payload);
  } catch (const ProtocolError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-protocol exception " << e.what() << " for a "
                  << payload.size() << "-byte payload";
  }
}

// Both decoders on 100,000 payloads of all 256 byte values, weighted toward
// what the dispatch looks at: a record tag with each record's exact size
// +-1, leading wire whitespace, and the text verbs' prefixes. Any outcome
// but a value or a ProtocolError fails.
TEST(Wire, FuzzedPayloadsThrowButNeverCrash) {
  constexpr std::string_view kPrefixes[] = {
      "HELLO ", "OBSERVE ", "PREDICT ", "PRED ", "BYE ", "MODEL ", "STATS",
      "STATS ", "SYNCBEGIN ", "SYNCDATA\n", "SYNCCOMMIT", "SYNCFETCH ",
      "SESSION ", "SNAPSHOT ", "ERR ", "ERR INTERNAL ", "OK"};
  constexpr char kTags[] = {kObserveTag, kPredictTag, kPredTag};
  constexpr std::size_t kSizes[] = {kObserveRecordBytes, kPredictRecordBytes,
                                    kPredRecordBytes};
  constexpr std::string_view kWireSpace = " \t\n\v\f\r";
  Rng rng(99);
  std::string payload;
  for (int i = 0; i < 100'000; ++i) {
    payload.clear();
    std::size_t length = rng.uniform_index(40);
    switch (rng.uniform_index(4)) {
      case 0: {  // a record tag, at a record's exact size +-1
        payload += kTags[rng.uniform_index(3)];
        length = kSizes[rng.uniform_index(3)] + rng.uniform_index(3) - 1;
        break;
      }
      case 1:  // leading wire whitespace
        payload += kWireSpace[rng.uniform_index(kWireSpace.size())];
        break;
      case 2:  // a text verb's prefix
        payload += kPrefixes[rng.uniform_index(std::size(kPrefixes))];
        break;
      default:  // any first byte
        break;
    }
    while (payload.size() < length)
      payload += static_cast<char>(rng.uniform_index(256));
    decodes_or_throws_protocol_error(parse_request, payload);
    decodes_or_throws_protocol_error(parse_response, payload);
  }
}

// -- Records (protocol v6) ------------------------------------------------------

// One record of each kind against its literal bytes: the tag, the field
// order and big-endian byte order.
TEST(WireRecord, LayoutMatchesLiteralBytes) {
  using namespace std::string_literals;
  EXPECT_EQ(serialize_request(ObserveRequest{0x0102030405060708ull, 2.5}),
            "\x01\x01\x02\x03\x04\x05\x06\x07\x08"
            "\x40\x04\x00\x00\x00\x00\x00\x00"s);
  EXPECT_EQ(serialize_request(PredictRequest{0x1122334455667788ull, 0x0a0b0c0du}),
            "\x02\x11\x22\x33\x44\x55\x66\x77\x88\x0a\x0b\x0c\x0d"s);
  EXPECT_EQ(serialize_response(PredictionResponse{-0.75, 0x29}),
            "\x03\xbf\xe8\x00\x00\x00\x00\x00\x00\x29"s);
  // And the other way: literal bytes decode to the values they spell.
  const Request observe = parse_request(
      "\x01\x00\x00\x00\x01\x00\x00\x00\x02\x3f\xf8\x00\x00\x00\x00\x00\x00"s);
  EXPECT_EQ(std::get<ObserveRequest>(observe).session_id, 0x100000002ull);
  EXPECT_EQ(std::get<ObserveRequest>(observe).throughput_mbps, 1.5);
  const Response pred =
      parse_response("\x03\x40\x10\x00\x00\x00\x00\x00\x00\x08"s);
  EXPECT_EQ(std::get<PredictionResponse>(pred).mbps, 4.0);
  EXPECT_EQ(std::get<PredictionResponse>(pred).flags, 8u);
}

// Every value class a text codec could bend survives bit for bit: signed
// zeros, subnormals, infinities and NaNs with any payload; the id and
// horizon extremes; every flags byte.
TEST(WireRecord, RecordsRoundTripEveryValueClass) {
  constexpr std::uint64_t kNanBits[] = {
      0x7ff8000000000000ull,  // quiet NaN
      0xfff8000000000000ull,  // negative quiet NaN
      0x7ff0000000000001ull,  // signalling NaN, lowest payload
      0x7ff4000000000000ull,  // signalling NaN, top payload bit
      0x7fffffffffffffffull,  // every payload bit set
      0xfff0000000000badull,  // negative signalling NaN
      0x7ff8dead0000beefull};
  std::vector<double> values = {
      0.0, -0.0, 1.0, -2.5, 0.1,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3,  // a subnormal mid-range
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  for (const std::uint64_t bits : kNanBits) values.push_back(std::bit_cast<double>(bits));
  constexpr std::uint64_t kIds[] = {0, 1, 0x00000001'00000000ull, ~0ull};
  constexpr std::uint32_t kHorizons[] = {0, 1, 5, 0xffffffffu};

  for (const std::uint64_t id : kIds) {
    for (const double value : values) {
      const Request parsed = parse_request(serialize_request(ObserveRequest{id, value}));
      const auto& observe = std::get<ObserveRequest>(parsed);
      EXPECT_EQ(observe.session_id, id);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(observe.throughput_mbps),
                std::bit_cast<std::uint64_t>(value));
    }
    for (const std::uint32_t steps : kHorizons) {
      const Request parsed = parse_request(serialize_request(PredictRequest{id, steps}));
      EXPECT_EQ(std::get<PredictRequest>(parsed).session_id, id);
      EXPECT_EQ(std::get<PredictRequest>(parsed).steps_ahead, steps);
    }
  }
  for (const double value : values) {
    for (unsigned flags = 0; flags <= 0xff; ++flags) {
      const Response parsed = parse_response(serialize_response(
          PredictionResponse{value, static_cast<std::uint8_t>(flags)}));
      const auto& pred = std::get<PredictionResponse>(parsed);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(pred.mbps),
                std::bit_cast<std::uint64_t>(value));
      EXPECT_EQ(pred.flags, flags);
    }
  }
}

// A record one byte short or one byte long throws, naming the record; so
// does a record tag of the other direction and every other first byte
// below 0x20 that is not wire whitespace. Leading whitespace is still text.
TEST(WireRecord, WrongSizesAndUnknownTagsThrow) {
  const std::string observe = serialize_request(ObserveRequest{3, 1.25});
  const std::string predict = serialize_request(PredictRequest{3, 2});
  const std::string pred = serialize_response(PredictionResponse{1.25, 0});
  for (const int delta : {-1, 1}) {
    EXPECT_NE(error_of(parse_request, resized(observe, observe.size() + delta))
                  .find("OBSERVE record"),
              std::string::npos);
    EXPECT_NE(error_of(parse_request, resized(predict, predict.size() + delta))
                  .find("PREDICT record"),
              std::string::npos);
    EXPECT_NE(error_of(parse_response, resized(pred, pred.size() + delta))
                  .find("PRED record"),
              std::string::npos);
  }
  // Each direction refuses the other's records.
  EXPECT_THROW(parse_request(pred), ProtocolError);
  EXPECT_THROW(parse_response(observe), ProtocolError);
  EXPECT_THROW(parse_response(predict), ProtocolError);

  for (int byte = 0x00; byte < 0x20; ++byte) {
    if (byte >= 0x01 && byte <= 0x03) continue;  // the tags
    const std::string payload = std::string(1, static_cast<char>(byte)) + "HELLO";
    if (byte >= 0x09 && byte <= 0x0d) {
      // Wire whitespace leads a text line: the HELLO is short of fields.
      EXPECT_NE(error_of(parse_request, payload).find("HELLO wants"),
                std::string::npos)
          << byte;
      continue;
    }
    for (const std::size_t size : {std::size_t{1}, kPredRecordBytes,
                                   kPredictRecordBytes, kObserveRecordBytes}) {
      const std::string bytes = resized(payload, size);
      EXPECT_NE(error_of(parse_request, bytes).find("unknown request record tag"),
                std::string::npos)
          << byte;
      EXPECT_NE(error_of(parse_response, bytes).find("unknown response record tag"),
                std::string::npos)
          << byte;
    }
  }
  const Request spaced = parse_request(" \tSTATS");
  EXPECT_NE(std::get_if<StatsRequest>(&spaced), nullptr);
}

// The v5 text forms of the three per-epoch messages are gone: the server's
// decoder reads OBSERVE and PREDICT lines as unknown verbs, and the
// client's refuses a text PRED.
TEST(WireRecord, TextFormsOfRecordVerbsAreRefused) {
  for (const std::string_view text : {"OBSERVE 1 2.5", "PREDICT 1 2"})
    EXPECT_TRUE(error_of(parse_request, text).starts_with("wire: unknown request verb"))
        << text;
  EXPECT_THROW(parse_response("PRED 2.5 0"), ProtocolError);
}

// -- Serialize -> parse round-trip property -----------------------------------

/// Seeded random wire field values, biased toward the edges a text codec
/// gets wrong: signed zeros, infinities, subnormals, extreme magnitudes,
/// integer limits, and empty, digit-leading or space-leading strings.
class WireFuzz {
 public:
  explicit WireFuzz(std::uint64_t seed) : rng_(seed) {}

  double real() {
    constexpr double kEdges[] = {
        0.0, -0.0, 1.0, -1.0, 0.1, 1e-300, 1e300,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::epsilon()};
    if (rng_.bernoulli(0.4)) return kEdges[rng_.uniform_index(std::size(kEdges))];
    for (;;) {  // any bit pattern but NaN, which never equals itself
      const double v = std::bit_cast<double>(rng_());
      if (!std::isnan(v)) return v;
    }
  }

  std::uint64_t u64() {
    constexpr std::uint64_t kEdges[] = {0, 1, 9, 10, 0xffffffffULL,
                                        0x100000000ULL, ~0ULL};
    if (rng_.bernoulli(0.3)) return kEdges[rng_.uniform_index(std::size(kEdges))];
    return rng_() >> rng_.uniform_index(64);
  }

  bool coin() { return rng_.bernoulli(0.5); }

  /// Arbitrary bytes (newlines, NULs, high bytes), often empty.
  std::string bytes() {
    std::string out(rng_.uniform_index(48), '\0');
    for (char& c : out) c = static_cast<char>(rng_.uniform_index(256));
    return out;
  }

  /// A free-form ERR message: arbitrary bytes, sometimes led by a number or
  /// by spaces.
  std::string message() {
    switch (rng_.uniform_index(3)) {
      case 0: return std::to_string(u64()) + " " + bytes();
      case 1: return "  " + bytes();
      default: return bytes();
    }
  }

  /// A non-empty token free of wire whitespace (feature values, labels).
  std::string token() {
    constexpr std::string_view kWireSpace = " \t\n\v\f\r";
    std::string out(1 + rng_.uniform_index(16), '\0');
    for (char& c : out) {
      do {
        c = static_cast<char>(rng_.uniform_index(256));
      } while (kWireSpace.find(c) != std::string_view::npos);
    }
    return out;
  }

  SessionFeatures features() {
    return {token(), token(), token(), token(), token(), token()};
  }

 private:
  Rng rng_;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

template <typename T>
T request_round_trip(const T& in) {
  const Request parsed = parse_request(serialize_request(in));
  const T* out = std::get_if<T>(&parsed);
  if (out == nullptr) throw std::logic_error("request parsed as another verb");
  return *out;
}

template <typename T>
T response_round_trip(const T& in) {
  const Response parsed = parse_response(serialize_response(in));
  const T* out = std::get_if<T>(&parsed);
  if (out == nullptr) throw std::logic_error("response parsed as another verb");
  return *out;
}

// Every request and response verb, with seeded random field values: each
// value must come back unchanged (doubles bit for bit). 2048 iterations
// cycle every serve-flags byte and every WireErrorCode many times over.
TEST(WireProperty, EveryVerbRoundTripsUnchanged) {
  constexpr WireErrorCode kCodes[] = {
      WireErrorCode::kBadRequest,  WireErrorCode::kUnknownSession,
      WireErrorCode::kInvalidSample, WireErrorCode::kOverloaded,
      WireErrorCode::kShuttingDown, WireErrorCode::kUnsupported,
      WireErrorCode::kInternal,    WireErrorCode::kSyncRejected};
  WireFuzz fuzz(0x5eed);
  for (unsigned i = 0; i < 2048; ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));

    const HelloRequest hello{fuzz.features(), fuzz.real()};
    const HelloRequest hello_out = request_round_trip(hello);
    EXPECT_EQ(hello_out.features, hello.features);
    EXPECT_TRUE(same_bits(hello_out.start_hour, hello.start_hour));

    const ObserveRequest observe{fuzz.u64(), fuzz.real()};
    const ObserveRequest observe_out = request_round_trip(observe);
    EXPECT_EQ(observe_out.session_id, observe.session_id);
    EXPECT_TRUE(same_bits(observe_out.throughput_mbps, observe.throughput_mbps));

    const PredictRequest predict{fuzz.u64(),
                                 static_cast<unsigned>(fuzz.u64() & 0xffffffffULL)};
    const PredictRequest predict_out = request_round_trip(predict);
    EXPECT_EQ(predict_out.session_id, predict.session_id);
    EXPECT_EQ(predict_out.steps_ahead, predict.steps_ahead);

    const ByeRequest bye{fuzz.u64()};
    EXPECT_EQ(request_round_trip(bye).session_id, bye.session_id);

    const ModelRequest model{fuzz.features(), fuzz.real()};
    const ModelRequest model_out = request_round_trip(model);
    EXPECT_EQ(model_out.features, model.features);
    EXPECT_TRUE(same_bits(model_out.start_hour, model.start_hour));

    request_round_trip(StatsRequest{});
    request_round_trip(SyncCommitRequest{});

    const SyncBeginRequest begin{fuzz.u64(), fuzz.u64()};
    const SyncBeginRequest begin_out = request_round_trip(begin);
    EXPECT_EQ(begin_out.total_bytes, begin.total_bytes);
    EXPECT_EQ(begin_out.checksum, begin.checksum);

    const SyncChunkRequest chunk{fuzz.bytes()};
    EXPECT_EQ(request_round_trip(chunk).data, chunk.data);

    const SyncFetchRequest fetch{fuzz.u64()};
    EXPECT_EQ(request_round_trip(fetch).offset, fetch.offset);

    // "-" is the wire placeholder of the empty label, so it is not a label.
    SessionResponse session{fuzz.u64(), fuzz.real(), fuzz.coin(), ""};
    if (fuzz.coin()) {
      do session.model_name = fuzz.token(); while (session.model_name == "-");
    }
    const SessionResponse session_out = response_round_trip(session);
    EXPECT_EQ(session_out.session_id, session.session_id);
    EXPECT_TRUE(same_bits(session_out.initial_mbps, session.initial_mbps));
    EXPECT_EQ(session_out.used_global_model, session.used_global_model);
    EXPECT_EQ(session_out.model_name, session.model_name);

    const PredictionResponse pred{fuzz.real(), static_cast<std::uint8_t>(i & 0xff)};
    const PredictionResponse pred_out = response_round_trip(pred);
    EXPECT_TRUE(same_bits(pred_out.mbps, pred.mbps));
    EXPECT_EQ(pred_out.flags, pred.flags);

    response_round_trip(OkResponse{});

    const ErrorResponse error{kCodes[i % std::size(kCodes)], fuzz.message(),
                              static_cast<std::uint32_t>(fuzz.u64())};
    const ErrorResponse error_out = response_round_trip(error);
    EXPECT_EQ(error_out.code, error.code);
    EXPECT_EQ(error_out.message, error.message);
    EXPECT_EQ(error_out.retry_after_ms, error.retry_after_ms);

    const ModelResponse model_reply{fuzz.real(), fuzz.coin(), fuzz.bytes()};
    const ModelResponse model_reply_out = response_round_trip(model_reply);
    EXPECT_TRUE(same_bits(model_reply_out.initial_mbps, model_reply.initial_mbps));
    EXPECT_EQ(model_reply_out.used_global_model, model_reply.used_global_model);
    EXPECT_EQ(model_reply_out.serialized_hmm, model_reply.serialized_hmm);

    const StatsResponse stats{static_cast<int>(fuzz.u64() & 0x7fffffff),
                              fuzz.bytes()};
    const StatsResponse stats_out = response_round_trip(stats);
    EXPECT_EQ(stats_out.exposition_version, stats.exposition_version);
    EXPECT_EQ(stats_out.exposition, stats.exposition);

    const SnapshotChunkResponse snap{fuzz.u64(), fuzz.u64(), fuzz.u64(),
                                     fuzz.bytes()};
    const SnapshotChunkResponse snap_out = response_round_trip(snap);
    EXPECT_EQ(snap_out.total_bytes, snap.total_bytes);
    EXPECT_EQ(snap_out.checksum, snap.checksum);
    EXPECT_EQ(snap_out.offset, snap.offset);
    EXPECT_EQ(snap_out.data, snap.data);
  }
}

// The server frames replies in place, after whatever its write buffer
// holds: for every response verb the bytes must be those of
// encode_frame(serialize_response(...)).
TEST(WireProperty, InPlaceFrameMatchesEncodeFrame) {
  WireFuzz fuzz(0xf4a3);
  for (unsigned i = 0; i < 512; ++i) {
    const Response responses[] = {
        SessionResponse{fuzz.u64(), fuzz.real(), fuzz.coin(), fuzz.token()},
        PredictionResponse{fuzz.real(), static_cast<std::uint8_t>(i & 0xff)},
        OkResponse{},
        ErrorResponse{WireErrorCode::kOverloaded, fuzz.message(),
                      static_cast<std::uint32_t>(fuzz.u64())},
        ModelResponse{fuzz.real(), fuzz.coin(), fuzz.bytes()},
        StatsResponse{static_cast<int>(i), fuzz.bytes()},
        SnapshotChunkResponse{fuzz.u64(), fuzz.u64(), fuzz.u64(), fuzz.bytes()}};
    for (const Response& response : responses) {
      std::string queued = "queued";
      append_response_frame(queued, response);
      EXPECT_EQ(queued, "queued" + encode_frame(serialize_response(response)));
    }
  }
}

TEST(Wire, FrameRoundTripOverLoopback) {
  auto [listener, port] = listen_loopback(0);
  std::thread server([&listener] {
    FdHandle conn = accept_connection(listener);
    ASSERT_TRUE(conn.valid());
    const auto frame = recv_frame(conn);
    ASSERT_TRUE(frame.has_value());
    send_frame(conn, "echo:" + *frame);
    // Client closes; next recv sees clean EOF.
    EXPECT_FALSE(recv_frame(conn).has_value());
  });

  {
    FdHandle client = connect_loopback(port);
    send_frame(client, "hello world");
    const auto reply = recv_frame(client);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(*reply, "echo:hello world");
  }
  server.join();
}

TEST(Wire, EmptyFrameAllowed) {
  auto [listener, port] = listen_loopback(0);
  std::thread server([&listener] {
    FdHandle conn = accept_connection(listener);
    const auto frame = recv_frame(conn);
    ASSERT_TRUE(frame.has_value());
    EXPECT_TRUE(frame->empty());
    send_frame(conn, "");
  });
  FdHandle client = connect_loopback(port);
  send_frame(client, "");
  const auto reply = recv_frame(client);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->empty());
  server.join();
}

TEST(Wire, OversizedFrameRejected) {
  const std::string too_big(kMaxFrameBytes + 1, 'x');
  auto [listener, port] = listen_loopback(0);
  FdHandle client = connect_loopback(port);
  EXPECT_THROW(send_frame(client, too_big), ProtocolError);
  // A reply too large for a frame is refused whole: the buffer it was to
  // join is left as it was.
  std::string queued = "queued";
  EXPECT_THROW(append_response_frame(queued, ModelResponse{1.0, false, too_big}),
               ProtocolError);
  EXPECT_EQ(queued, "queued");
}

// -- Wire-protocol hardening: truncated and corrupted frames must produce
// typed errors, never crashes or hangs -------------------------------------

/// Connects a raw peer, sends `raw` bytes verbatim, closes. Returns the
/// accepted server-side connection for recv_frame to chew on.
FdHandle raw_peer_sends(const FdHandle& listener, std::uint16_t port,
                        std::span<const std::byte> raw) {
  FdHandle client = connect_loopback(port);
  FdHandle conn = accept_connection(listener);
  if (!raw.empty()) send_all(client, raw);
  // client handle destructs here -> EOF after the raw bytes
  return conn;
}

TEST(WireHardening, TruncatedHeaderThrows) {
  auto [listener, port] = listen_loopback(0);
  const std::byte partial[2] = {std::byte{kProtocolVersion}, std::byte{0}};
  FdHandle conn = raw_peer_sends(listener, port, partial);
  EXPECT_THROW(recv_frame(conn), std::runtime_error);  // EOF mid-header
}

TEST(WireHardening, BadVersionByteRejected) {
  auto [listener, port] = listen_loopback(0);
  const std::byte frame[9] = {std::byte{7},   std::byte{0},   std::byte{0},
                              std::byte{5},   std::byte{'h'}, std::byte{'e'},
                              std::byte{'l'}, std::byte{'l'}, std::byte{'o'}};
  FdHandle conn = raw_peer_sends(listener, port, frame);
  EXPECT_THROW(recv_frame(conn), ProtocolError);
}

TEST(WireHardening, OldProtocolVersionsRejectedAtFrameHeader) {
  // A v1–v5 peer (v5 sent OBSERVE/PREDICT/PRED as text) must be refused
  // before any verb parsing: the frame header's version byte is the
  // compatibility gate.
  for (const std::uint8_t old_version :
       {std::uint8_t{1}, std::uint8_t{2}, std::uint8_t{3}, std::uint8_t{4},
        std::uint8_t{5}}) {
    auto [listener, port] = listen_loopback(0);
    const std::byte frame[9] = {std::byte{old_version}, std::byte{0},
                                std::byte{0},   std::byte{5},   std::byte{'h'},
                                std::byte{'e'}, std::byte{'l'}, std::byte{'l'},
                                std::byte{'o'}};
    FdHandle conn = raw_peer_sends(listener, port, frame);
    EXPECT_THROW(recv_frame(conn), ProtocolError);
  }
}

TEST(WireHardening, OversizedLengthFieldRejected) {
  auto [listener, port] = listen_loopback(0);
  const std::byte header[4] = {std::byte{kProtocolVersion}, std::byte{0xff},
                               std::byte{0xff}, std::byte{0xff}};
  FdHandle conn = raw_peer_sends(listener, port, header);
  EXPECT_THROW(recv_frame(conn), ProtocolError);
}

TEST(WireHardening, TruncatedPayloadThrows) {
  auto [listener, port] = listen_loopback(0);
  // Header promises 10 bytes, only 3 arrive before EOF.
  const std::byte frame[7] = {std::byte{kProtocolVersion}, std::byte{0},
                              std::byte{0},   std::byte{10},
                              std::byte{'a'}, std::byte{'b'}, std::byte{'c'}};
  FdHandle conn = raw_peer_sends(listener, port, frame);
  EXPECT_THROW(recv_frame(conn), std::runtime_error);
}

TEST(WireHardening, CorruptedPayloadsParseOrThrowTyped) {
  // Take every valid message shape, flip bytes at random, and require the
  // decoder to either succeed or raise ProtocolError — nothing else.
  const std::vector<std::string> seeds = {
      serialize_request(HelloRequest{sample_features(), 12.5}),
      serialize_request(ObserveRequest{42, 3.5}),
      serialize_request(PredictRequest{42, 4}),
      serialize_request(ByeRequest{42}),
      serialize_request(ModelRequest{sample_features(), 3.0}),
      serialize_response(SessionResponse{7, 2.0, false, "label"}),
      serialize_response(PredictionResponse{1.25}),
      serialize_response(OkResponse{}),
      serialize_response(ErrorResponse{WireErrorCode::kOverloaded, "busy"}),
  };
  Rng rng(2024);
  for (int round = 0; round < 300; ++round) {
    for (const std::string& seed : seeds) {
      std::string mutated = seed;
      const std::size_t flips = 1 + rng.uniform_index(3);
      for (std::size_t f = 0; f < flips && !mutated.empty(); ++f) {
        const std::size_t at = rng.uniform_index(mutated.size());
        mutated[at] = static_cast<char>(rng.uniform_index(256));
      }
      try {
        (void)parse_request(mutated);
      } catch (const ProtocolError&) {
      }
      try {
        (void)parse_response(mutated);
      } catch (const ProtocolError&) {
      }
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace cs2p
