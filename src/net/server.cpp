#include "net/server.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <tuple>

namespace cs2p {
namespace {

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from).count());
}

/// Fills in the runtime defaults so config() reports what is actually in
/// effect: io_threads = hardware concurrency, session_shards = 16 (the
/// table rounds to a power of two itself).
ServerConfig resolve_config(ServerConfig config) {
  if (config.io_threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    config.io_threads = hw == 0 ? 1 : hw;
  }
  if (config.session_shards == 0) config.session_shards = 16;
  if (config.evict_scan_budget == 0) config.evict_scan_budget = 64;
  if (config.write_budget_bytes == 0) config.write_budget_bytes = 256 * 1024;
  if (config.retry_after_ms <= 0) config.retry_after_ms = 250;
  return config;
}

/// Smoothing factor of the per-worker utilization EWMA. One loop iteration
/// is at most ~kMaxPollWaitMs, so the window is a few hundred ms — fast
/// enough to track an overload ramp, slow enough not to jump on one
/// expensive request.
constexpr double kUtilizationAlpha = 0.2;

/// Eviction cadence: often enough that TTLs in the tens of milliseconds
/// (tests) are honored promptly, rare enough to stay amortized. One tick
/// visits every shard, so worker 0 alone runs it.
constexpr auto kEvictTickInterval = std::chrono::milliseconds(20);

/// Upper bound on a worker's poll wait; keeps eviction ticking and the stop
/// flag checked even when the wake pipe is never signaled.
constexpr int kMaxPollWaitMs = 50;

constexpr std::size_t kReadChunkBytes = 16 * 1024;

/// Cap on the per-session observation history kept for
/// on_session_complete; samples past it are dropped (the filter state is
/// unaffected).
constexpr std::size_t kSessionHistoryCap = 512;

}  // namespace

FrameServer::MetricHandles FrameServer::MetricHandles::create(
    obs::MetricsRegistry& registry) {
  MetricHandles m;
  m.requests = &registry.counter("cs2p_server_requests_total");
  m.replies = &registry.counter("cs2p_server_replies_total");
  m.error_replies = &registry.counter("cs2p_server_error_replies_total");
  m.degraded_replies = &registry.counter("cs2p_server_degraded_replies_total");
  const auto verb = [&registry](const char* name) {
    return &registry.counter("cs2p_server_verb_requests_total",
                             {{"verb", name}});
  };
  m.verb_hello = verb("hello");
  m.verb_observe = verb("observe");
  m.verb_predict = verb("predict");
  m.verb_bye = verb("bye");
  m.verb_model = verb("model");
  m.verb_stats = verb("stats");
  m.verb_sync = verb("sync");
  m.verb_invalid = verb("invalid");
  m.connections = &registry.counter("cs2p_server_connections_total");
  m.idle_timeouts = &registry.counter("cs2p_server_idle_timeouts_total");
  m.rejected = &registry.counter("cs2p_server_connections_rejected_total");
  m.evicted = &registry.counter("cs2p_server_sessions_evicted_total");
  m.swaps = &registry.counter("cs2p_server_model_swaps_total");
  m.syncs_applied = &registry.counter("cs2p_server_syncs_applied_total");
  m.syncs_rejected = &registry.counter("cs2p_server_syncs_rejected_total");
  m.loop_iterations = &registry.counter("cs2p_server_loop_iterations_total");
  m.send_calls = &registry.counter("cs2p_server_send_calls_total");
  m.recv_calls = &registry.counter("cs2p_server_recv_calls_total");
  m.slow_reader_kicks =
      &registry.counter("cs2p_server_slow_reader_kicks_total");
  m.drain_rejections = &registry.counter("cs2p_server_drain_rejections_total");
  m.completion_hook_errors =
      &registry.counter("cs2p_server_completion_hook_errors_total");
  m.active_connections = &registry.gauge("cs2p_server_active_connections");
  m.live_sessions = &registry.gauge("cs2p_server_live_sessions");
  m.draining = &registry.gauge("cs2p_server_draining");
  m.last_drain_seconds = &registry.gauge("cs2p_server_last_drain_seconds");
  m.max_write_queue = &registry.gauge("cs2p_server_max_write_queue_bytes");
  m.request_seconds =
      &registry.histogram("cs2p_server_request_seconds",
                          obs::default_latency_buckets_seconds());
  m.connection_seconds =
      &registry.histogram("cs2p_server_connection_seconds",
                          obs::default_duration_buckets_seconds());
  m.session_seconds =
      &registry.histogram("cs2p_server_session_seconds",
                          obs::default_duration_buckets_seconds());
  return m;
}

obs::Counter* FrameServer::verb_counter(
    const Request& request) const noexcept {
  if (std::holds_alternative<HelloRequest>(request)) return m_.verb_hello;
  if (std::holds_alternative<ObserveRequest>(request)) return m_.verb_observe;
  if (std::holds_alternative<PredictRequest>(request)) return m_.verb_predict;
  if (std::holds_alternative<ByeRequest>(request)) return m_.verb_bye;
  if (std::holds_alternative<ModelRequest>(request)) return m_.verb_model;
  if (std::holds_alternative<StatsRequest>(request)) return m_.verb_stats;
  if (std::holds_alternative<SyncBeginRequest>(request) ||
      std::holds_alternative<SyncChunkRequest>(request) ||
      std::holds_alternative<SyncCommitRequest>(request) ||
      std::holds_alternative<SyncFetchRequest>(request))
    return m_.verb_sync;
  return m_.verb_invalid;
}

PredictionServer::PredictionServer(std::shared_ptr<const PredictorModel> model,
                                   std::uint16_t port)
    : PredictionServer(std::move(model), ServerConfig{}, port) {}

FrameServer::FrameServer(std::shared_ptr<const PredictorModel> model,
                         ServerConfig config)
    : config_(resolve_config(std::move(config))),
      metrics_(config_.metrics ? config_.metrics
                               : std::make_shared<obs::MetricsRegistry>()),
      m_(MetricHandles::create(*metrics_)),
      trace_(config_.trace),
      model_(std::move(model)),
      sessions_(SessionTableConfig{config_.session_shards,
                                   config_.session_ttl_ms,
                                   config_.evict_scan_budget},
                metrics_.get()) {
  if (!model_) throw std::invalid_argument("PredictionServer: null model");
}

PredictionServer::PredictionServer(std::shared_ptr<const PredictorModel> model,
                                   ServerConfig config, std::uint16_t port)
    : FrameServer(std::move(model), std::move(config)) {
  if (config_.max_connections == 0)
    throw std::invalid_argument("PredictionServer: max_connections must be > 0");
  auto [listener, bound_port] = listen_loopback(port);
  listener_ = std::move(listener);
  port_ = bound_port;
  // Non-blocking + poll: closing a listening fd does not wake a blocked
  // accept(2), so the accept loop polls the listener together with a wake
  // pipe that stop() signals.
  set_nonblocking(listener_);
  std::tie(accept_wake_read_, accept_wake_write_) = make_wake_pipe();
  workers_.reserve(config_.io_threads);
  for (std::size_t i = 0; i < config_.io_threads; ++i) {
    auto worker = std::make_unique<Worker>();
    auto [wake_read, wake_write] = make_wake_pipe();
    worker->wake_read = std::move(wake_read);
    worker->wake_write = std::move(wake_write);
    worker->utilization = &metrics_->gauge(
        "cs2p_server_worker_utilization", {{"worker", std::to_string(i)}});
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_)
    worker->thread = std::thread([this, w = worker.get()] { worker_loop(*w); });
  accept_thread_ = std::thread([this] { accept_loop(); });
}

PredictionServer::~PredictionServer() { stop(); }

void PredictionServer::stop() {
  FrameServer::stop();
  // Serialize the teardown: std::thread::join from two threads racing each
  // other is undefined behaviour, so the whole shutdown runs under a lock
  // and every step is idempotent.
  std::scoped_lock stop_lock(stop_mutex_);
  wake_pipe_signal(accept_wake_write_);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.reset();
  // Workers notice stopping_ on their next wakeup and close every
  // connection they own (including undrained inbox handoffs) through the
  // one close path before exiting.
  for (auto& worker : workers_) wake_pipe_signal(worker->wake_write);
  for (auto& worker : workers_)
    if (worker->thread.joinable()) worker->thread.join();
}

void FrameServer::swap_model(std::shared_ptr<const PredictorModel> model) {
  if (!model) throw std::invalid_argument("PredictionServer: null model in swap");
  {
    std::scoped_lock lock(model_mutex_);
    model_ = std::move(model);
  }
  m_.swaps->inc();
  // The old model is NOT torn down here: any session entry created from it
  // still holds a reference, and releases it on BYE or TTL eviction.
}

std::shared_ptr<const PredictorModel> FrameServer::current_model() const {
  std::scoped_lock lock(model_mutex_);
  return model_;
}

void FrameServer::publish_snapshot(std::string snapshot_bytes) {
  std::shared_ptr<const std::string> published;
  std::uint64_t checksum = 0;
  if (!snapshot_bytes.empty()) {
    published = std::make_shared<const std::string>(std::move(snapshot_bytes));
    checksum = sync_checksum(*published);  // hashed once, served many times
  }
  std::scoped_lock lock(snapshot_mutex_);
  snapshot_ = std::move(published);
  snapshot_checksum_ = checksum;
}

void FrameServer::begin_drain() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  const auto now_us = std::chrono::duration_cast<std::chrono::microseconds>(
                          Clock::now().time_since_epoch())
                          .count();
  drain_started_us_.store(now_us, std::memory_order_release);
  m_.draining->set(1.0);
  if (config_.drain_session_ttl_ms > 0)
    sessions_.set_ttl_ms(
        std::min(config_.session_ttl_ms, config_.drain_session_ttl_ms));
}

void FrameServer::note_drain_progress(Clock::time_point now) {
  if (!draining() || sessions_.size() != 0) return;
  if (drain_recorded_.exchange(true, std::memory_order_acq_rel)) return;
  const auto now_us = std::chrono::duration_cast<std::chrono::microseconds>(
                          now.time_since_epoch())
                          .count();
  const auto started = drain_started_us_.load(std::memory_order_acquire);
  m_.last_drain_seconds->set(static_cast<double>(now_us - started) / 1e6);
}

void FrameServer::complete_session(std::uint64_t id,
                                   SessionTable::Entry& entry,
                                   std::string_view reason,
                                   Clock::time_point now) {
  if (entry.created_at != Clock::time_point{}) {
    m_.session_seconds->observe(
        std::chrono::duration<double>(now - entry.created_at).count());
  }
  if (entry.history == nullptr) return;  // HELLO made one only for the hook
  CompletedSession completed;
  completed.session_id = id;
  completed.features = std::move(entry.history->features);
  completed.start_hour = entry.history->start_hour;
  completed.observations = std::move(entry.history->observations);
  completed.reason = reason;
  try {
    config_.on_session_complete(std::move(completed));
  } catch (const std::exception&) {
    // The trainer's problem stays the trainer's problem: the session is
    // already gone, the serve path moves on.
    m_.completion_hook_errors->inc();
  }
}

bool PredictionServer::wait_drained(int timeout_ms) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(std::max(0, timeout_ms));
  while (!drained()) {
    if (Clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  note_drain_progress(Clock::now());
  return drained();
}

void PredictionServer::record_write_queue_depth(std::size_t bytes) noexcept {
  std::size_t seen = max_write_queue_.load(std::memory_order_relaxed);
  while (bytes > seen && !max_write_queue_.compare_exchange_weak(
                             seen, bytes, std::memory_order_relaxed)) {
  }
  if (bytes > seen) m_.max_write_queue->set(static_cast<double>(bytes));
}

void PredictionServer::reject_connection(const FdHandle& connection,
                                         WireErrorCode code,
                                         const std::string& message) {
  m_.rejected->inc();
  try {
    send_frame(connection,
               serialize_response(ErrorResponse{
                   code, message,
                   static_cast<std::uint32_t>(config_.retry_after_ms)}));
    // The client's request is sitting unread in our receive buffer, and
    // close(2) with unread data sends RST — which can destroy the rejection
    // frame before the peer reads it. Half-close our side, then drain the
    // socket for a bounded moment so the close is a clean FIN.
    ::shutdown(connection.get(), SHUT_WR);
    std::byte sink[256];
    for (int i = 0; i < 10 && wait_readable(connection, 10); ++i) {
      if (::recv(connection.get(), sink, sizeof(sink), 0) <= 0) break;
    }
  } catch (const std::exception&) {
    // Best-effort courtesy frame; the close below is the real rejection.
  }
}

void PredictionServer::accept_loop() {
  // No timeout: a pending connection or stop()'s wake byte ends the wait.
  std::array<pollfd, 2> fds{pollfd{listener_.get(), POLLIN, 0},
                            pollfd{accept_wake_read_.get(), POLLIN, 0}};
  while (!stopping_.load()) {
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents == 0) continue;  // the wake byte: re-check the flag
    FdHandle connection = try_accept(listener_);
    if (!connection.valid()) continue;  // spurious wakeup or shutdown
    if (draining()) {
      // A draining replica takes no new connections at all: the rejection
      // frame carries the retry-after hint so the client tier lands the
      // session elsewhere immediately.
      m_.drain_rejections->inc();
      reject_connection(connection, WireErrorCode::kShuttingDown,
                        "server is draining, connect to another replica");
      continue;
    }
    if (m_.active_connections->value() >=
        static_cast<double>(config_.max_connections)) {
      reject_connection(connection, WireErrorCode::kOverloaded,
                        "connection limit reached, try again later");
      continue;  // FdHandle destructor closes it
    }
    dispatch_connection(std::move(connection));
  }
}

void PredictionServer::dispatch_connection(FdHandle connection) {
  m_.connections->inc();
  m_.active_connections->add(1.0);
  try {
    set_nonblocking(connection);
  } catch (const std::exception&) {
    // Raced a peer reset between accept and fcntl: undo the accounting and
    // drop it — never hand a dead fd to a worker.
    m_.active_connections->add(-1.0);
    return;
  }
  if (config_.so_sndbuf > 0) {
    // Best-effort: a small kernel send buffer makes the user-space write
    // queue (and so the backpressure machinery) observable at test scales.
    const int size = config_.so_sndbuf;
    ::setsockopt(connection.get(), SOL_SOCKET, SO_SNDBUF, &size, sizeof(size));
  }
  Connection conn;
  conn.fd = std::move(connection);
  conn.opened_at = Clock::now();
  conn.last_activity = conn.opened_at;
  conn.last_write_progress = conn.opened_at;
  Worker& worker =
      *workers_[next_worker_.fetch_add(1, std::memory_order_relaxed) %
                workers_.size()];
  {
    std::scoped_lock lock(worker.inbox_mutex);
    worker.inbox.push_back(std::move(conn));
  }
  wake_pipe_signal(worker.wake_write);
}

void PredictionServer::adopt_inbox(Worker& worker) {
  std::vector<Connection> adopted;
  {
    std::scoped_lock lock(worker.inbox_mutex);
    adopted.swap(worker.inbox);
  }
  for (auto& conn : adopted) {
    const int fd = conn.fd.get();
    worker.connections.emplace(fd, std::move(conn));
  }
}

void PredictionServer::close_connection(Connection& conn, bool idle_timed_out) {
  if (idle_timed_out) m_.idle_timeouts->inc();
  m_.connection_seconds->observe(
      std::chrono::duration<double>(Clock::now() - conn.opened_at).count());
  m_.active_connections->add(-1.0);
  conn.fd.reset();
}

void PredictionServer::worker_loop(Worker& worker) {
  std::vector<pollfd> pollfds;
  std::vector<std::pair<int, short>> ready;  // fd + revents this iteration
  std::vector<int> expired;   // fds past their idle or stall deadline
  auto next_evict = Clock::now();
  auto iter_start = Clock::now();
  while (true) {
    adopt_inbox(worker);
    const bool stopping = stopping_.load();
    if (stopping) {
      for (auto& [fd, conn] : worker.connections)
        close_connection(conn, /*idle_timed_out=*/false);
      worker.connections.clear();
      // One last inbox sweep: a connection dispatched after our previous
      // adopt still gets the close-path accounting.
      adopt_inbox(worker);
      if (worker.connections.empty()) break;
      continue;
    }

    pollfds.clear();
    pollfds.push_back({worker.wake_read.get(), POLLIN, 0});
    for (const auto& [fd, conn] : worker.connections) {
      // Backpressure lives here: a connection with queued reply bytes wants
      // POLLOUT; one whose queue is over budget stops being read until the
      // flush brings it back under (the slow reader throttles itself).
      short events = 0;
      if (conn.queued() > 0) events |= POLLOUT;
      if (conn.queued() <= config_.write_budget_bytes) events |= POLLIN;
      pollfds.push_back({fd, events, 0});
    }

    const auto poll_start = Clock::now();
    int wait_ms = kMaxPollWaitMs;
    if (config_.idle_timeout_ms > 0 && !worker.connections.empty()) {
      auto nearest = Clock::time_point::max();
      for (const auto& [fd, conn] : worker.connections)
        nearest = std::min(nearest, conn.last_activity);
      const auto deadline =
          nearest + std::chrono::milliseconds(config_.idle_timeout_ms);
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - poll_start);
      wait_ms = std::clamp(static_cast<int>(remaining.count()), 0,
                           kMaxPollWaitMs);
    }
    const int rc = ::poll(pollfds.data(), pollfds.size(), wait_ms);
    const auto poll_end = Clock::now();
    m_.loop_iterations->inc();
    if (rc < 0 && errno != EINTR && errno != EAGAIN) break;  // should not happen

    // Utilization EWMA: the busy fraction of this loop iteration (everything
    // that was not waiting inside poll).
    {
      const auto total = poll_end - iter_start;
      const auto waited = poll_end - poll_start;
      double busy = 0.0;
      if (total.count() > 0) {
        busy = 1.0 - std::chrono::duration<double>(waited).count() /
                         std::chrono::duration<double>(total).count();
        busy = std::clamp(busy, 0.0, 1.0);
      }
      const double prev = worker.utilization->value();
      worker.utilization->set(prev + kUtilizationAlpha * (busy - prev));
      iter_start = poll_end;
    }

    if (pollfds[0].revents != 0) wake_pipe_drain(worker.wake_read);
    ready.clear();
    for (std::size_t i = 1; i < pollfds.size(); ++i)
      if (pollfds[i].revents != 0)
        ready.emplace_back(pollfds[i].fd, pollfds[i].revents);
    for (const auto& [fd, revents] : ready) {
      const auto it = worker.connections.find(fd);
      if (it == worker.connections.end()) continue;
      bool keep = false;
      try {
        keep = handle_io(it->second, revents);
      } catch (const std::exception&) {
        // Connection-level failure (reset, desynced framing): drop the
        // connection, keep serving others.
        keep = false;
      }
      if (!keep) {
        close_connection(it->second, /*idle_timed_out=*/false);
        worker.connections.erase(it);
      }
    }

    // Everything readable this wakeup has been pulled into read buffers;
    // serve the complete frames (DESIGN.md §16). The wakeup time stamps
    // every frame the pass extracts.
    serve_pass(worker, poll_end);

    // One clock read for the idle, stall and evict sweeps.
    const auto now = Clock::now();
    if (config_.idle_timeout_ms > 0) {
      const auto deadline =
          now - std::chrono::milliseconds(config_.idle_timeout_ms);
      expired.clear();
      for (const auto& [fd, conn] : worker.connections)
        if (conn.last_activity < deadline) expired.push_back(fd);
      for (const int fd : expired) {
        const auto it = worker.connections.find(fd);
        close_connection(it->second, /*idle_timed_out=*/true);
        worker.connections.erase(it);
      }
    }

    if (config_.write_stall_timeout_ms > 0) {
      // Slow-reader kick: queued replies whose flush made zero progress past
      // the stall deadline mean the peer stopped reading — reclaim the
      // buffer and the slot instead of carrying the connection forever.
      const auto stall_deadline =
          now - std::chrono::milliseconds(config_.write_stall_timeout_ms);
      expired.clear();
      for (const auto& [fd, conn] : worker.connections)
        if (conn.queued() > 0 && conn.last_write_progress < stall_deadline)
          expired.push_back(fd);
      for (const int fd : expired) {
        const auto it = worker.connections.find(fd);
        m_.slow_reader_kicks->inc();
        close_connection(it->second, /*idle_timed_out=*/false);
        worker.connections.erase(it);
      }
    }

    if (&worker == workers_.front().get() && now >= next_evict) {
      next_evict = now + kEvictTickInterval;
      evict_tick(now);
    }
  }
}

void FrameServer::evict_tick(Clock::time_point now) {
  const auto stats = sessions_.evict_tick(
      now, [this, now](std::uint64_t id, SessionTable::Entry& entry) {
        if (trace_ && entry.traced)
          trace_->emit("evict", id,
                       {{"ttl_ms", static_cast<std::int64_t>(
                                       sessions_.ttl_ms())}});
        m_.evicted->inc();
        complete_session(id, entry, "evict", now);
      });
  if (stats.evicted > 0)
    m_.live_sessions->set(static_cast<double>(sessions_.size()));
  if (draining()) note_drain_progress(now);
}

bool PredictionServer::handle_io(Connection& conn, short revents) {
  if ((revents & POLLOUT) != 0) {
    flush_write(conn);  // throws when the peer is gone mid-reply
    // The flush may have pulled the queue back under budget; frames read
    // before backpressure engaged are still sitting in read_buffer and get
    // no further POLLIN (the kernel side is already drained). The pass
    // after the ready sweep re-scans every connection, so they resume
    // automatically — a slow-then-recovering reader cannot wedge.
  }
  if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
    // Respect backpressure even when poll raced a flush: no reads while the
    // queue is over budget.
    if (conn.queued() > config_.write_budget_bytes) return true;
    std::byte chunk[kReadChunkBytes];
    m_.recv_calls->inc();
    const auto n = recv_some(conn.fd, chunk);
    if (!n.has_value()) return false;  // clean EOF
    if (*n == 0) return true;          // spurious wakeup
    // Compact once per pass: a frame's view into the consumed prefix lives
    // only while serve_pass serves it, and the pass serves after its reads.
    conn.read_buffer.erase(0, conn.read_pos);
    conn.read_pos = 0;
    conn.read_buffer.append(reinterpret_cast<const char*>(chunk), *n);
    // Frames are served by serve_pass after the ready sweep, in the same
    // loop iteration — reading and serving are decoupled so the replies to
    // everything one poll wakeup read leave in one flush per connection.
  }
  return true;
}

bool PredictionServer::extract_frame(Connection& conn, std::string_view& payload,
                                     Clock::time_point now) {
  const std::string_view input =
      std::string_view(conn.read_buffer).substr(conn.read_pos);
  if (input.size() < kFrameHeaderBytes) return false;
  // A malformed header (wrong version, absurd length) desyncs the stream:
  // drop the connection, exactly like the blocking server did.
  const std::uint32_t body_size = parse_frame_header(input);
  if (input.size() - kFrameHeaderBytes < body_size) return false;
  payload = input.substr(kFrameHeaderBytes, body_size);
  conn.read_pos += kFrameHeaderBytes + body_size;
  // A complete frame is the activity signal for the idle sweep — a peer
  // trickling header bytes never refreshes its deadline (slow-header
  // folding, DESIGN.md §14).
  conn.last_activity = now;
  return true;
}

void PredictionServer::serve_pass(Worker& worker, Clock::time_point now) {
  // Reused scratch: one worker per thread, so thread_local is exactly
  // per-worker state.
  thread_local std::vector<int> dead;
  const auto close_dead = [&] {
    for (const int fd : dead) {
      const auto it = worker.connections.find(fd);
      close_connection(it->second, /*idle_timed_out=*/false);
      worker.connections.erase(it);
    }
    dead.clear();
  };
  bool resume = true;
  while (resume) {
    // Sweeps of one frame per connection, each frame served before the next
    // is extracted, until no connection under its write budget has one.
    for (bool served = true; served;) {
      served = false;
      for (auto& [fd, conn] : worker.connections) {
        if (!conn.has_input()) continue;
        // Pipelined serving with backpressure: a connection is not served
        // once its write queue crosses the budget, so the queue can exceed
        // it by at most the one reply that crossed — the bound
        // max_write_queue_bytes() certifies.
        if (conn.queued() > config_.write_budget_bytes) continue;
        std::string_view payload;
        try {
          if (!extract_frame(conn, payload, now)) continue;
        } catch (const std::exception&) {
          // Desynced framing: drop the connection, after handing the kernel
          // the replies this pass queued for its earlier frames. A failed
          // flush only means the peer is gone too.
          try {
            flush_write(conn);
          } catch (const std::exception&) {
          }
          dead.push_back(fd);
          continue;
        }
        serve_frame(conn, payload, now);
        served = true;
      }
      close_dead();
    }
    // The pass's replies leave now: one send per connection, however many
    // of its frames the pass served (DESIGN.md §16).
    resume = false;
    for (auto& [fd, conn] : worker.connections) {
      if (!conn.replied) continue;
      conn.replied = false;
      const bool throttled = conn.queued() > config_.write_budget_bytes;
      try {
        flush_write(conn);
      } catch (const std::exception&) {
        dead.push_back(fd);  // peer gone mid-reply
        continue;
      }
      // Frames a throttled connection still buffers were read off the
      // kernel already and get no further POLLIN; serve them in this pass.
      if (throttled && conn.queued() <= config_.write_budget_bytes &&
          conn.has_input())
        resume = true;
    }
    close_dead();
  }
}

Response FrameServer::serve(std::string_view payload, SyncStaging& staging,
                            Clock::time_point now, RequestInfo& info) {
  // Count before replying: once the client sees the response, the request
  // must already be visible in requests_handled() — and a reply can never
  // outrun its request (the scrape invariant of §11).
  m_.requests->inc();
  // Stage clocks feed only the trace records' parse_us/handle_us, so they
  // are read only while a trace log is configured; otherwise every stamp is
  // the epoch and every stage reads 0.
  const auto stamp = [traced = trace_ != nullptr] {
    return traced ? Clock::now() : Clock::time_point{};
  };
  Response response;
  const auto t_parse = stamp();
  auto t_handle = t_parse;
  try {
    const Request request = parse_request(payload);
    verb_counter(request)->inc();
    t_handle = stamp();
    if (stopping_.load()) {
      response =
          ErrorResponse{WireErrorCode::kShuttingDown, "server is stopping"};
    } else if (std::holds_alternative<ObserveRequest>(request) ||
               std::holds_alternative<PredictRequest>(request)) {
      response = serve_prediction(request, now, info);
    } else {
      response = handle(request, staging, now, info);
    }
  } catch (const ProtocolError& e) {
    m_.verb_invalid->inc();
    response = ErrorResponse{WireErrorCode::kBadRequest, e.what()};
  } catch (const std::exception& e) {
    // A predictor that throws (e.g. a history baseline asked to predict
    // before its first observation) fails its own frame, not the worker.
    response = ErrorResponse{WireErrorCode::kInternal, e.what()};
  }
  info.parse_us = elapsed_us(t_parse, t_handle);
  info.handle_us = elapsed_us(t_handle, stamp());
  return response;
}

void PredictionServer::serve_frame(Connection& conn, std::string_view payload,
                                   Clock::time_point now) {
  PendingReply reply;
  reply.t_recv = now;
  Response response = serve(payload, conn.sync, now, reply.info);

  // Queue the reply: framing, error accounting and the queue-depth
  // high-water mark. serve_pass flushes the queue once the pass has no
  // frame left to serve.
  try {
    append_response_frame(conn.write_buffer, response);
  } catch (const ProtocolError& e) {
    // Only a reply past kMaxFrameBytes fails to frame.
    response = ErrorResponse{WireErrorCode::kInternal, e.what()};
    append_response_frame(conn.write_buffer, response);
  }
  const auto* err = std::get_if<ErrorResponse>(&response);
  reply.is_error = err != nullptr;
  reply.error_code =
      err != nullptr ? wire_error_code_name(err->code) : std::string_view{};
  if (reply.is_error) m_.error_replies->inc();
  // A reply queued on an empty queue starts the stall clock.
  if (conn.unflushed() == 0) conn.last_write_progress = now;
  reply.end_offset = conn.write_buffer.size();
  conn.pending.push_back(std::move(reply));
  record_write_queue_depth(conn.queued());
  conn.replied = true;
}

Response FrameServer::serve_prediction(const Request& request,
                                       Clock::time_point now,
                                       RequestInfo& info) {
  const auto* observe = std::get_if<ObserveRequest>(&request);
  const auto* predict = std::get_if<PredictRequest>(&request);
  const std::uint64_t id =
      observe != nullptr ? observe->session_id : predict->session_id;
  const double w = observe != nullptr ? observe->throughput_mbps : 0.0;
  const unsigned steps = predict != nullptr ? predict->steps_ahead : 1;
  info.event = observe != nullptr ? "observe" : "predict";
  info.session_id = id;
  const std::uint8_t drain_flag = draining() ? serve_flags::kDraining : 0;
  Response response;
  const auto serve = [&](std::span<SessionTable::Entry* const> entries) {
    SessionTable::Entry* entry = entries[0];
    if (entry != nullptr) info.traced = entry->traced;
    // Validate before touching the predictor, in a fixed order: an invalid
    // sample, then an unknown session, then a zero horizon. One NaN in the
    // forward filter poisons every belief state after it; zero is allowed
    // (a fully stalled epoch is a real measurement).
    if (!(std::isfinite(w) && w >= 0.0 && w <= config_.max_sample_mbps)) {
      response = ErrorResponse{
          WireErrorCode::kInvalidSample,
          "throughput sample must be finite, non-negative and <= " +
              std::to_string(config_.max_sample_mbps)};
      return;
    }
    if (entry == nullptr) {
      response = ErrorResponse{WireErrorCode::kUnknownSession, "unknown session"};
      return;
    }
    if (steps == 0) {
      response =
          ErrorResponse{WireErrorCode::kBadRequest, "steps_ahead must be >= 1"};
      return;
    }
    entry->last_used = now;  // the TTL touch
    SessionPredictor& predictor = *entry->predictor;
    if (observe != nullptr) {
      if (entry->history != nullptr &&
          entry->history->observations.size() < kSessionHistoryCap)
        entry->history->observations.push_back(w);
      predictor.observe(w);
    }
    const double mbps = predictor.predict(steps);
    // serve_flags() after the observe: why this reply is served the way it
    // is. kDraining alone is planned-migration housekeeping, not a degraded
    // answer — the health signal counts everything else.
    const PredictionResponse served{
        mbps, static_cast<std::uint8_t>(predictor.serve_flags() | drain_flag)};
    if ((served.flags & ~serve_flags::kDraining) != serve_flags::kPrimary)
      m_.degraded_replies->inc();
    info.flags = served.flags;
    info.mbps = served.mbps;
    info.log_likelihood = predictor.last_log_likelihood();
    response = served;
  };
  sessions_.with_sessions(std::span(&id, 1), serve);
  return response;
}

void PredictionServer::flush_write(Connection& conn) {
  const std::size_t start = conn.write_pos;
  while (conn.queued() > 0) {
    const auto remaining = std::span(conn.write_buffer).subspan(conn.write_pos);
    m_.send_calls->inc();
    const std::size_t n = send_some(conn.fd, std::as_bytes(remaining));
    if (n == 0) break;  // kernel buffer full; wait for POLLOUT
    conn.write_pos += n;
  }
  if (conn.write_pos == start) return;  // no progress, no reply completed
  const auto now = Clock::now();
  conn.last_write_progress = now;
  complete_flushed_replies(conn, now);
  if (conn.queued() == 0) {
    // Fully flushed: reclaim the buffer instead of letting offsets grow
    // without bound over the connection's lifetime.
    conn.write_buffer.clear();
    conn.write_pos = 0;
    conn.pending.clear();
    conn.pending_head = 0;
  } else if (conn.write_pos > conn.write_buffer.size() / 2) {
    // A reader that keeps the queue from ever emptying: drop the sent
    // prefix so the buffer and the reply list stay bounded by the budget.
    conn.write_buffer.erase(0, conn.write_pos);
    conn.pending.erase(conn.pending.begin(),
                       conn.pending.begin() +
                           static_cast<std::ptrdiff_t>(conn.pending_head));
    for (PendingReply& reply : conn.pending) reply.end_offset -= conn.write_pos;
    conn.write_pos = 0;
    conn.pending_head = 0;
  }
}

void PredictionServer::complete_flushed_replies(Connection& conn,
                                                Clock::time_point now) {
  const std::size_t first = conn.pending_head;
  while (conn.pending_head < conn.pending.size() &&
         conn.pending[conn.pending_head].end_offset <= conn.write_pos) {
    const PendingReply& reply = conn.pending[conn.pending_head++];
    m_.request_seconds->observe(
        std::chrono::duration<double>(now - reply.t_recv).count());
    const RequestInfo& info = reply.info;
    if (trace_ && info.traced) {
      const std::uint64_t total_us = elapsed_us(reply.t_recv, now);
      const std::uint64_t staged_us = info.parse_us + info.handle_us;
      const std::uint64_t send_us = total_us > staged_us ? total_us - staged_us : 0;
      if (reply.is_error) {
        trace_->emit("reply-error", info.session_id,
                     {{"verb", info.event},
                      {"code", reply.error_code},
                      {"parse_us", info.parse_us},
                      {"handle_us", info.handle_us},
                      {"send_us", send_us}});
      } else if (info.event == "hello") {
        trace_->emit("hello", info.session_id,
                     {{"model", std::string_view(info.model_name)},
                      {"initial_mbps", info.mbps},
                      {"parse_us", info.parse_us},
                      {"handle_us", info.handle_us},
                      {"send_us", send_us}});
      } else {
        // observe / predict / bye: flags + prediction + the filter's
        // predictive log-likelihood (NaN serializes as null when absent).
        trace_->emit(
            info.event, info.session_id,
            {{"flags", info.flags},
             {"mbps", info.mbps},
             {"ll", info.log_likelihood.value_or(
                        std::numeric_limits<double>::quiet_NaN())},
             {"parse_us", info.parse_us},
             {"handle_us", info.handle_us},
             {"send_us", send_us}});
      }
    }
  }
  const std::size_t done = conn.pending_head - first;
  if (done == 0) return;
  m_.replies->inc(done);
  conn.last_activity = now;
}

Response FrameServer::handle(const Request& request, SyncStaging& staging,
                             Clock::time_point now, RequestInfo& info) {
  if (std::holds_alternative<SyncBeginRequest>(request) ||
      std::holds_alternative<SyncChunkRequest>(request) ||
      std::holds_alternative<SyncCommitRequest>(request) ||
      std::holds_alternative<SyncFetchRequest>(request)) {
    info.event = "sync";
    return handle_sync(request, staging);
  }

  if (const auto* hello = std::get_if<HelloRequest>(&request)) {
    info.event = "hello";
    // Drain gates session creation, not the verbs of sessions already
    // admitted: a draining server keeps serving what it owns and turns away
    // only new work, with a retry-after hint so the client tier backs off
    // instead of hot-spinning replays.
    if (draining()) {
      m_.drain_rejections->inc();
      return ErrorResponse{WireErrorCode::kShuttingDown,
                           "server is draining, connect to another replica",
                           static_cast<std::uint32_t>(config_.retry_after_ms)};
    }
    if (!std::isfinite(hello->start_hour))
      return ErrorResponse{WireErrorCode::kBadRequest,
                           "start_hour must be finite"};
    SessionContext context;
    context.features = hello->features;
    context.start_hour = hello->start_hour;
    // Snapshot the published model once: the session is created from it and
    // pins it, so a concurrent swap_model() cannot pull the engine out from
    // under the predictor's internal references.
    auto model = current_model();
    auto predictor = model->make_session(context);

    SessionResponse response;
    response.initial_mbps = predictor->predict_initial().value_or(0.0);
    // The global bit is the one every PRED of this session carries.
    response.used_global_model =
        (predictor->serve_flags() & serve_flags::kGlobalModel) != 0;
    response.model_name = model->name();
    // The identity + history the completion hook will need, built before
    // the slot's lock hold; with no hook the entry holds none of it.
    std::unique_ptr<SessionTable::History> history;
    if (config_.on_session_complete)
      history = std::make_unique<SessionTable::History>(SessionTable::History{
          std::move(context.features), context.start_hour, {}});

    response.session_id = sessions_.emplace([&](std::uint64_t id) {
      info.session_id = id;
      info.traced = trace_ && trace_->should_sample(id);
      SessionTable::Entry entry;
      entry.predictor = std::move(predictor);
      entry.owner = std::move(model);
      entry.last_used = now;
      entry.traced = info.traced;
      entry.created_at = now;
      entry.history = std::move(history);
      return entry;
    });
    info.mbps = response.initial_mbps;
    info.model_name = response.model_name;
    m_.live_sessions->set(static_cast<double>(sessions_.size()));
    return response;
  }

  if (const auto* bye = std::get_if<ByeRequest>(&request)) {
    info.event = "bye";
    info.session_id = bye->session_id;
    bool traced = false;
    // Same teardown tail as eviction (complete_session): BYE is just the
    // polite way into the unified completion path.
    if (sessions_.erase(
            bye->session_id,
            [this, now](std::uint64_t id, SessionTable::Entry& entry) {
              complete_session(id, entry, "bye", now);
            },
            &traced))
      info.traced = traced;
    m_.live_sessions->set(static_cast<double>(sessions_.size()));
    // The last BYE is usually what completes a drain — record it now rather
    // than waiting for the next evict tick.
    if (draining()) note_drain_progress(now);
    return OkResponse{};
  }

  if (std::holds_alternative<StatsRequest>(request)) {
    info.event = "stats";
    // Refresh the point-in-time gauge before scraping so a scrape during a
    // quiet period still reports the live table, not the last mutation.
    m_.live_sessions->set(static_cast<double>(sessions_.size()));
    StatsResponse response;
    response.exposition_version = obs::kMetricsExpositionVersion;
    response.exposition = metrics_->scrape();
    // The exposition must fit one frame. Cut at a line boundary and mark the
    // cut, so a truncated scrape still parses and is visibly partial.
    constexpr std::string_view kTruncated = "# cs2p_scrape_truncated 1\n";
    const std::size_t budget = kMaxFrameBytes - 64;  // frame + STATS header
    if (response.exposition.size() > budget) {
      const std::size_t cut =
          response.exposition.rfind('\n', budget - kTruncated.size());
      response.exposition.resize(cut == std::string::npos ? 0 : cut + 1);
      response.exposition += kTruncated;
    }
    return response;
  }

  if (const auto* model = std::get_if<ModelRequest>(&request)) {
    info.event = "model";
    if (!std::isfinite(model->start_hour))
      return ErrorResponse{WireErrorCode::kBadRequest,
                           "start_hour must be finite"};
    SessionContext context;
    context.features = model->features;
    context.start_hour = model->start_hour;
    const auto served = current_model();
    const auto downloadable = served->downloadable_model(context);
    if (!downloadable)
      return ErrorResponse{WireErrorCode::kUnsupported,
                           "model download unsupported by " + served->name()};
    ModelResponse response;
    response.initial_mbps = downloadable->initial_mbps;
    response.used_global_model = downloadable->used_global_model;
    response.serialized_hmm = serialize_hmm(downloadable->hmm);
    return response;
  }
  return ErrorResponse{WireErrorCode::kBadRequest, "unhandled request"};
}

Response FrameServer::handle_sync(const Request& request,
                                  SyncStaging& staging) {
  const auto reject = [&](const std::string& why) -> Response {
    staging = SyncStaging{};
    m_.syncs_rejected->inc();
    return ErrorResponse{WireErrorCode::kSyncRejected, why};
  };

  if (const auto* begin = std::get_if<SyncBeginRequest>(&request)) {
    if (!config_.sync_apply)
      return reject("this replica does not accept SYNC");
    // A draining replica is on its way out: starting a shipment it may die
    // in the middle of helps nobody, so new pushes are cleanly refused. A
    // shipment staged BEFORE the drain began may still commit — the commit
    // path below is atomic (verify, decode, swap) so the accepted model is
    // never torn, drained or not.
    if (draining()) {
      m_.drain_rejections->inc();
      return reject("replica is draining, push to another replica");
    }
    if (begin->total_bytes == 0)
      return reject("snapshot must not be empty");
    if (begin->total_bytes > config_.max_sync_bytes)
      return reject("snapshot exceeds max_sync_bytes (" +
                    std::to_string(config_.max_sync_bytes) + ")");
    // A BEGIN while a shipment is staged restarts it — this is how a trainer
    // recovers from its own mid-push reconnect without a new connection.
    staging = SyncStaging{};
    staging.active = true;
    staging.expected_bytes = begin->total_bytes;
    staging.expected_checksum = begin->checksum;
    staging.buffer.reserve(begin->total_bytes);
    return OkResponse{};
  }

  if (const auto* chunk = std::get_if<SyncChunkRequest>(&request)) {
    if (!staging.active) return reject("no SYNC in progress");
    if (staging.buffer.size() + chunk->data.size() > staging.expected_bytes)
      return reject("more bytes than SYNCBEGIN declared");
    staging.buffer += chunk->data;
    return OkResponse{};
  }

  if (std::holds_alternative<SyncCommitRequest>(request)) {
    if (!staging.active) return reject("no SYNC in progress");
    if (staging.buffer.size() != staging.expected_bytes)
      return reject("staged " + std::to_string(staging.buffer.size()) +
                    " bytes, SYNCBEGIN declared " +
                    std::to_string(staging.expected_bytes));
    // Byte-for-byte verification against the declared checksum before the
    // decode ever runs: a corrupt snapshot never reaches the swap.
    if (sync_checksum(staging.buffer) != staging.expected_checksum)
      return reject("snapshot checksum mismatch");
    std::shared_ptr<const PredictorModel> model;
    try {
      model = config_.sync_apply(staging.buffer);
    } catch (const std::exception& e) {
      return reject(std::string("snapshot rejected: ") + e.what());
    }
    if (!model) return reject("snapshot rejected by this replica");
    swap_model(std::move(model));
    publish_snapshot(staging.buffer);  // re-serve what we accepted
    staging = SyncStaging{};
    m_.syncs_applied->inc();
    return OkResponse{};
  }

  if (const auto* fetch = std::get_if<SyncFetchRequest>(&request)) {
    std::shared_ptr<const std::string> snapshot;
    std::uint64_t checksum = 0;
    {
      std::scoped_lock lock(snapshot_mutex_);
      snapshot = snapshot_;
      checksum = snapshot_checksum_;
    }
    if (!snapshot)
      return ErrorResponse{WireErrorCode::kUnsupported,
                           "no snapshot published on this replica"};
    if (fetch->offset >= snapshot->size())
      return ErrorResponse{WireErrorCode::kBadRequest,
                           "offset past end of snapshot"};
    SnapshotChunkResponse response;
    response.total_bytes = snapshot->size();
    response.checksum = checksum;
    response.offset = fetch->offset;
    response.data = snapshot->substr(fetch->offset, kSyncChunkBytes);
    return response;
  }
  return ErrorResponse{WireErrorCode::kBadRequest, "unhandled SYNC request"};
}

}  // namespace cs2p
