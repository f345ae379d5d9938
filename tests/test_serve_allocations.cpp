// The serve path allocates nothing per OBSERVE/PREDICT (DESIGN.md §16): a
// warm server answers a pipelined burst of OBSERVE/PREDICT frames without a
// single heap allocation per frame, with the guardrail off and on, and with
// a completion hook set (each session's history then grows to its cap and
// stops). Its own binary, because it replaces the global operator new/delete
// to count allocations, as test_baum_welch.cpp does.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"
#include "dataset/synthetic.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/transport.h"
#include "net/wire.h"

// Replacement global operator new/delete, counting allocations inside the
// window the test opens. Every form goes through malloc/free, so new/delete
// pairs stay matched under sanitizers too.
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_malloc(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

// Out of line so GCC does not inline free() into delete-expressions and
// flag it as mismatched with the new-expression's operator new.
[[gnu::noinline]] void free_block(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { free_block(p); }
void operator delete[](void* p) noexcept { free_block(p); }
void operator delete(void* p, std::size_t) noexcept { free_block(p); }
void operator delete[](void* p, std::size_t) noexcept { free_block(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { free_block(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { free_block(p); }

namespace cs2p {
namespace {

constexpr int kSessions = 8;

std::shared_ptr<Cs2pPredictorModel> small_model(bool guardrail) {
  SyntheticConfig world;
  world.num_isps = 2;
  world.num_provinces = 2;
  world.cities_per_province = 2;
  world.num_servers = 3;
  world.prefixes_per_isp_city = 1;
  world.num_sessions = 600;
  world.seed = 17;
  Cs2pConfig config;
  config.hmm.num_states = 2;
  config.hmm.max_iterations = 6;
  config.selector.min_cluster_size = 8;
  config.max_sequences_per_cluster = 10;
  config.max_global_sequences = 60;
  config.guardrail = guardrail;
  auto [train, test] = SyntheticWorld(world).generate().split_by_day(1);
  (void)test;
  return std::make_shared<Cs2pPredictorModel>(std::move(train), config);
}

/// Reads one reply frame into `buffer` without allocating; returns its
/// payload.
std::string_view recv_reply(const FdHandle& conn, std::span<char> buffer) {
  std::array<char, kFrameHeaderBytes> header{};
  if (!recv_all(conn, std::as_writable_bytes(std::span(header))))
    throw ConnectionError("server closed connection");
  const std::uint32_t size =
      parse_frame_header(std::string_view(header.data(), header.size()));
  const auto body = buffer.first(size);
  if (size > 0 && !recv_all(conn, std::as_writable_bytes(body)))
    throw ConnectionError("server closed connection");
  return std::string_view(body.data(), body.size());
}

/// Allocations a warm one-worker server makes answering the third of three
/// identical pipelined bursts of `burst_frames` OBSERVE/PREDICT frames. With
/// `completion_hook` the server runs a no-op on_session_complete, so every
/// OBSERVE also appends to its session's history.
std::size_t counted_burst_allocations(bool guardrail, int burst_frames,
                                      bool completion_hook = false) {
  const auto model = small_model(guardrail);
  ServerConfig config;
  config.io_threads = 1;
  if (completion_hook) config.on_session_complete = [](CompletedSession&&) {};
  PredictionServer server(model, config);
  const FdHandle conn = connect_loopback(server.port());
  std::vector<char> buffer(kMaxFrameBytes);

  std::vector<std::uint64_t> ids;
  const auto& sessions = model->engine().training().sessions();
  for (int s = 0; s < kSessions; ++s) {
    const Session& session = sessions[static_cast<std::size_t>(s) * 7];
    send_frame(conn, serialize_request(
                         HelloRequest{session.features, session.start_hour}));
    const Response reply = parse_response(recv_reply(conn, buffer));
    ids.push_back(std::get<SessionResponse>(reply).session_id);
  }

  // OBSERVEs and PREDICTs at horizons 1-5, round-robin over the sessions.
  std::string burst;
  for (int k = 0; k < burst_frames; ++k) {
    const std::uint64_t id = ids[static_cast<std::size_t>(k % kSessions)];
    if (k % 2 == 0)
      burst += encode_frame(serialize_request(ObserveRequest{id, 1.0 + k % 7}));
    else
      burst += encode_frame(serialize_request(
          PredictRequest{id, static_cast<unsigned>(1 + (k / 2) % 5)}));
  }

  // Two bursts warm every buffer and scratch vector; the third is counted.
  std::size_t allocations = 0;
  std::size_t predictions = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const bool counted = pass == 2;
    g_allocations.store(0);
    g_count_allocations.store(counted);
    send_all(conn, std::as_bytes(std::span(burst.data(), burst.size())));
    predictions = 0;
    for (int k = 0; k < burst_frames; ++k)
      predictions += recv_reply(conn, buffer).starts_with(kPredTag);
    g_count_allocations.store(false);
    if (counted) allocations = g_allocations.load();
  }
  EXPECT_EQ(predictions, static_cast<std::size_t>(burst_frames));
  return allocations;
}

TEST(ServeAllocations, PipelinedObservePredictAllocatesNothingPerFrame) {
  constexpr int kBurstFrames = 512;
  const std::size_t allocations = counted_burst_allocations(false, kBurstFrames);
  // A per-frame allocation anywhere on the path would count in the
  // hundreds; the bound leaves room for a buffer that grows once more.
  EXPECT_LT(allocations, 8u) << allocations << " allocations over "
                             << kBurstFrames << " frames";
}

// The guarded path: sanitizer, surprise monitor and fallback chain. The
// burst is long enough (256 OBSERVEs per session) that even one allocation
// per 64 OBSERVEs per session, which a node-based window makes, breaks the
// bound.
TEST(ServeAllocations, GuardedObservePredictAllocatesNothingPerFrame) {
  constexpr int kBurstFrames = 4096;
  const std::size_t allocations = counted_burst_allocations(true, kBurstFrames);
  EXPECT_LT(allocations, 8u) << allocations << " allocations over "
                             << kBurstFrames << " frames";
}

// The completion hook's history: each session's observations grow by
// doubling up to the server's cap of 512, at most 10 allocations per session
// and none per frame after that. The two warm bursts carry every history to
// the cap (256 OBSERVEs per session each), so the counted burst appends
// nothing.
TEST(ServeAllocations, CompletionHookHistoryAllocatesPerSessionNotPerFrame) {
  constexpr int kBurstFrames = 4096;
  const std::size_t allocations =
      counted_burst_allocations(false, kBurstFrames, /*completion_hook=*/true);
  EXPECT_LT(allocations, 8u) << allocations << " allocations over "
                             << kBurstFrames << " frames";
}

}  // namespace
}  // namespace cs2p
