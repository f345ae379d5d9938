#include "net/server.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

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
/// enough to track an overload ramp, slow enough not to shed on one
/// expensive request.
constexpr double kUtilizationAlpha = 0.2;

/// Eviction cadence per worker: often enough that TTLs in the tens of
/// milliseconds (tests) are honored promptly, rare enough to stay amortized.
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

/// One frame moving through a batch round (DESIGN.md §16). Extracted off its
/// connection's read buffer, parsed, answered either by handle() or as a
/// lane of the OBSERVE/PREDICT executor, and finally queued back onto the
/// connection. Nothing closes a connection inside a round, so the pointer
/// holds until the round ends.
struct PredictionServer::RoundFrame {
  Connection* conn = nullptr;
  std::string payload;
  PendingReply reply;     ///< t_recv stamped at extraction
  Request request;
  Response response;
  bool handled = false;   ///< `response` is final
  bool lane = false;      ///< OBSERVE/PREDICT, served by the lane executor
  std::uint64_t session = 0;  ///< the lane's session id
};

PredictionServer::MetricHandles PredictionServer::MetricHandles::create(
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
  m.hellos_shed = &registry.counter("cs2p_server_hellos_shed_total");
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
  m.batch_size = &registry.histogram(
      "cs2p_server_batch_size",
      {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0});
  return m;
}

obs::Counter* PredictionServer::verb_counter(
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

PredictionServer::PredictionServer(std::shared_ptr<const PredictorModel> model,
                                   ServerConfig config, std::uint16_t port)
    : model_(std::move(model)),
      config_(resolve_config(std::move(config))),
      metrics_(config_.metrics ? config_.metrics
                               : std::make_shared<obs::MetricsRegistry>()),
      m_(MetricHandles::create(*metrics_)),
      trace_(config_.trace),
      sessions_(SessionTableConfig{config_.session_shards,
                                   config_.session_ttl_ms,
                                   config_.evict_scan_budget},
                metrics_.get()) {
  if (!model_) throw std::invalid_argument("PredictionServer: null model");
  if (config_.max_connections == 0)
    throw std::invalid_argument("PredictionServer: max_connections must be > 0");
  auto [listener, bound_port] = listen_loopback(port);
  listener_ = std::move(listener);
  port_ = bound_port;
  // Non-blocking + poll: closing a listening fd does not wake a blocked
  // accept(2), so the accept loop must poll and re-check the stop flag.
  set_nonblocking(listener_);
  workers_.reserve(config_.io_threads);
  for (std::size_t i = 0; i < config_.io_threads; ++i) {
    auto worker = std::make_unique<Worker>();
    auto [wake_read, wake_write] = make_wake_pipe();
    worker->wake_read = std::move(wake_read);
    worker->wake_write = std::move(wake_write);
    worker->utilization_gauge = &metrics_->gauge(
        "cs2p_server_worker_utilization", {{"worker", std::to_string(i)}});
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_)
    worker->thread = std::thread([this, w = worker.get()] { worker_loop(*w); });
  accept_thread_ = std::thread([this] { accept_loop(); });
}

PredictionServer::~PredictionServer() { stop(); }

void PredictionServer::stop() {
  stopping_.store(true);
  // Serialize the teardown: std::thread::join from two threads racing each
  // other is undefined behaviour, so the whole shutdown runs under a lock
  // and every step is idempotent.
  std::scoped_lock stop_lock(stop_mutex_);
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.reset();
  // Workers notice stopping_ on their next wakeup and close every
  // connection they own (including undrained inbox handoffs) through the
  // one close path before exiting.
  for (auto& worker : workers_) wake_pipe_signal(worker->wake_write);
  for (auto& worker : workers_)
    if (worker->thread.joinable()) worker->thread.join();
}

void PredictionServer::swap_model(std::shared_ptr<const PredictorModel> model) {
  if (!model) throw std::invalid_argument("PredictionServer: null model in swap");
  {
    std::scoped_lock lock(model_mutex_);
    model_ = std::move(model);
  }
  m_.swaps->inc();
  // The old model is NOT torn down here: any session entry created from it
  // still holds a reference, and releases it on BYE or TTL eviction.
}

std::shared_ptr<const PredictorModel> PredictionServer::current_model() const {
  std::scoped_lock lock(model_mutex_);
  return model_;
}

void PredictionServer::publish_snapshot(std::string snapshot_bytes) {
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

std::shared_ptr<const std::string> PredictionServer::published_snapshot() const {
  std::scoped_lock lock(snapshot_mutex_);
  return snapshot_;
}

bool PredictionServer::should_shed(const Worker& worker) const noexcept {
  if (shed_override_.load(std::memory_order_relaxed)) return true;
  if (config_.shed_pending_replies > 0 &&
      worker.queued_replies.load(std::memory_order_relaxed) >=
          config_.shed_pending_replies)
    return true;
  if (config_.shed_utilization > 0.0 &&
      worker.utilization.load(std::memory_order_relaxed) >=
          config_.shed_utilization)
    return true;
  return false;
}

void PredictionServer::begin_drain() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  const auto now_us = std::chrono::duration_cast<std::chrono::microseconds>(
                          Clock::now().time_since_epoch())
                          .count();
  drain_started_us_.store(now_us, std::memory_order_release);
  m_.draining->set(1.0);
  if (config_.drain_session_ttl_ms > 0)
    sessions_.set_ttl_ms(
        std::min(config_.session_ttl_ms, config_.drain_session_ttl_ms));
  // Wake every worker: the drain TTL and the kDraining reply stamping take
  // effect on their next iteration, not at their next natural wakeup.
  for (auto& worker : workers_) wake_pipe_signal(worker->wake_write);
}

void PredictionServer::note_drain_progress() {
  if (!draining() || sessions_.size() != 0) return;
  if (drain_recorded_.exchange(true, std::memory_order_acq_rel)) return;
  const auto now_us = std::chrono::duration_cast<std::chrono::microseconds>(
                          Clock::now().time_since_epoch())
                          .count();
  const auto started = drain_started_us_.load(std::memory_order_acquire);
  m_.last_drain_seconds->set(static_cast<double>(now_us - started) / 1e6);
}

void PredictionServer::complete_session(std::uint64_t id,
                                        SessionTable::Entry& entry,
                                        std::string_view reason) {
  if (entry.created_at != Clock::time_point{}) {
    m_.session_seconds->observe(
        std::chrono::duration<double>(Clock::now() - entry.created_at)
            .count());
  }
  if (!config_.on_session_complete) return;
  CompletedSession completed;
  completed.session_id = id;
  completed.features = std::move(entry.features);
  completed.start_hour = entry.start_hour;
  completed.observations = std::move(entry.observations);
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
  note_drain_progress();
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
  while (!stopping_.load()) {
    try {
      if (!wait_readable(listener_, /*timeout_ms=*/100)) continue;
    } catch (const std::exception&) {
      break;  // listener torn down
    }
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
    if (active_connections_.load() >= config_.max_connections) {
      reject_connection(connection, WireErrorCode::kOverloaded,
                        "connection limit reached, try again later");
      continue;  // FdHandle destructor closes it
    }
    dispatch_connection(std::move(connection));
  }
}

void PredictionServer::dispatch_connection(FdHandle connection) {
  m_.connections->inc();
  m_.active_connections->set(
      static_cast<double>(active_connections_.fetch_add(1) + 1));
  try {
    set_nonblocking(connection);
  } catch (const std::exception&) {
    // Raced a peer reset between accept and fcntl: undo the accounting and
    // drop it — never hand a dead fd to a worker.
    m_.active_connections->set(
        static_cast<double>(active_connections_.fetch_sub(1) - 1));
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

void PredictionServer::close_connection(Worker& worker, Connection& conn,
                                        bool idle_timed_out) {
  if (idle_timed_out) m_.idle_timeouts->inc();
  // Replies queued on a dying connection will never flush; release their
  // contribution to the worker's pending-work depth.
  if (!conn.pending.empty())
    worker.queued_replies.fetch_sub(conn.pending.size(),
                                    std::memory_order_relaxed);
  conn.pending.clear();
  m_.connection_seconds->observe(
      std::chrono::duration<double>(Clock::now() - conn.opened_at).count());
  m_.active_connections->set(
      static_cast<double>(active_connections_.fetch_sub(1) - 1));
  conn.fd.reset();
}

void PredictionServer::worker_loop(Worker& worker) {
  std::vector<pollfd> pollfds;
  std::vector<std::pair<int, short>> ready;  // fd + revents this iteration
  std::vector<int> expired;   // fds past their idle or stall deadline
  auto next_evict = Clock::now();
  auto iter_start = Clock::now();
  const bool leads_ticks = !workers_.empty() && workers_[0].get() == &worker;
  while (true) {
    adopt_inbox(worker);
    const bool stopping = stopping_.load();
    if (stopping) {
      for (auto& [fd, conn] : worker.connections)
        close_connection(worker, conn, /*idle_timed_out=*/false);
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

    int wait_ms = kMaxPollWaitMs;
    if (config_.idle_timeout_ms > 0 && !worker.connections.empty()) {
      auto nearest = Clock::time_point::max();
      for (const auto& [fd, conn] : worker.connections)
        nearest = std::min(nearest, conn.last_activity);
      const auto deadline =
          nearest + std::chrono::milliseconds(config_.idle_timeout_ms);
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      wait_ms = std::clamp(static_cast<int>(remaining.count()), 0,
                           kMaxPollWaitMs);
    }
    const auto poll_start = Clock::now();
    const int rc = ::poll(pollfds.data(), pollfds.size(), wait_ms);
    const auto poll_end = Clock::now();
    m_.loop_iterations->inc();
    if (rc < 0 && errno != EINTR && errno != EAGAIN) break;  // should not happen

    // Utilization EWMA: the busy fraction of this loop iteration (everything
    // that was not waiting inside poll). Admission control reads it.
    {
      const auto total = poll_end - iter_start;
      const auto waited = poll_end - poll_start;
      double busy = 0.0;
      if (total.count() > 0) {
        busy = 1.0 - std::chrono::duration<double>(waited).count() /
                         std::chrono::duration<double>(total).count();
        busy = std::clamp(busy, 0.0, 1.0);
      }
      const double prev = worker.utilization.load(std::memory_order_relaxed);
      worker.utilization.store(
          prev + kUtilizationAlpha * (busy - prev), std::memory_order_relaxed);
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
        keep = handle_io(worker, it->second, revents);
      } catch (const std::exception&) {
        // Connection-level failure (reset, desynced framing): drop the
        // connection, keep serving others.
        keep = false;
      }
      if (!keep) {
        close_connection(worker, it->second, /*idle_timed_out=*/false);
        worker.connections.erase(it);
      }
    }

    // Everything readable this wakeup has been pulled into read buffers;
    // drain the complete frames in batched rounds (DESIGN.md §16).
    run_batch_rounds(worker);

    if (config_.idle_timeout_ms > 0) {
      const auto now = Clock::now();
      const auto deadline =
          now - std::chrono::milliseconds(config_.idle_timeout_ms);
      expired.clear();
      for (const auto& [fd, conn] : worker.connections)
        if (conn.last_activity < deadline) expired.push_back(fd);
      for (const int fd : expired) {
        const auto it = worker.connections.find(fd);
        close_connection(worker, it->second, /*idle_timed_out=*/true);
        worker.connections.erase(it);
      }
    }

    if (config_.write_stall_timeout_ms > 0) {
      // Slow-reader kick: queued replies whose flush made zero progress past
      // the stall deadline mean the peer stopped reading — reclaim the
      // buffer and the slot instead of carrying the connection forever.
      const auto now = Clock::now();
      const auto stall_deadline =
          now - std::chrono::milliseconds(config_.write_stall_timeout_ms);
      expired.clear();
      for (const auto& [fd, conn] : worker.connections)
        if (conn.queued() > 0 && conn.last_write_progress < stall_deadline)
          expired.push_back(fd);
      for (const int fd : expired) {
        const auto it = worker.connections.find(fd);
        m_.slow_reader_kicks->inc();
        close_connection(worker, it->second, /*idle_timed_out=*/false);
        worker.connections.erase(it);
      }
    }

    const auto now = Clock::now();
    if (now >= next_evict) {
      next_evict = now + kEvictTickInterval;
      const auto stats = sessions_.evict_tick(
          now, [this](std::uint64_t id, SessionTable::Entry& entry) {
            if (trace_ && entry.traced)
              trace_->emit("evict", id,
                           {{"ttl_ms", static_cast<std::int64_t>(
                                           sessions_.ttl_ms())}});
            m_.evicted->inc();
            complete_session(id, entry, "evict");
          });
      if (stats.evicted > 0)
        m_.live_sessions->set(static_cast<double>(sessions_.size()));
      if (leads_ticks) {
        // One worker publishes every worker's utilization gauge.
        for (auto& w : workers_)
          if (w->utilization_gauge != nullptr)
            w->utilization_gauge->set(
                w->utilization.load(std::memory_order_relaxed));
      }
      if (draining()) note_drain_progress();
    }
  }
}

bool PredictionServer::handle_io(Worker& worker, Connection& conn,
                                 short revents) {
  if ((revents & POLLOUT) != 0) {
    flush_write(worker, conn);  // throws when the peer is gone mid-reply
    // The flush may have pulled the queue back under budget; frames read
    // before backpressure engaged are still sitting in read_buffer and get
    // no further POLLIN (the kernel side is already drained). The batch
    // rounds after the ready sweep re-scan every connection, so they resume
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
    conn.read_buffer.append(reinterpret_cast<const char*>(chunk), *n);
    // Frames are consumed by run_batch_rounds after the ready sweep, in the
    // same loop iteration — reading and handling are decoupled so frames
    // arriving on many connections in one poll wakeup batch together.
  }
  return true;
}

bool PredictionServer::extract_frame(Connection& conn, std::string& payload) {
  if (conn.state == ConnState::kReadingHeader) {
    if (conn.read_buffer.size() < kFrameHeaderBytes) return false;
    // A malformed header (wrong version, absurd length) desyncs the
    // stream: drop the connection, exactly like the blocking server did.
    conn.body_size = parse_frame_header(conn.read_buffer);
    conn.read_buffer.erase(0, kFrameHeaderBytes);
    conn.state = ConnState::kReadingBody;
  }
  if (conn.read_buffer.size() < conn.body_size) return false;
  payload = conn.read_buffer.substr(0, conn.body_size);
  conn.read_buffer.erase(0, conn.body_size);
  conn.state = ConnState::kReadingHeader;
  // A complete frame is the activity signal for the idle sweep — a peer
  // trickling header bytes never refreshes its deadline (slow-header
  // folding, DESIGN.md §14).
  conn.last_activity = Clock::now();
  // Count before replying: once the client sees the response, the request
  // must already be visible in requests_handled() — and a reply can never
  // outrun its request (the scrape invariant of §11).
  m_.requests->inc();
  return true;
}

void PredictionServer::run_batch_rounds(Worker& worker) {
  // Reused round scratch: one worker per thread, so thread_local is exactly
  // per-worker state, and the steady-state serve path allocates nothing.
  thread_local std::vector<RoundFrame> round;
  thread_local std::vector<int> dead;
  const auto close_dead = [&] {
    for (const int fd : dead) {
      const auto it = worker.connections.find(fd);
      close_connection(worker, it->second, /*idle_timed_out=*/false);
      worker.connections.erase(it);
    }
    dead.clear();
  };
  bool resume = true;
  while (resume) {
    while (true) {
      round.clear();
      for (auto& [fd, conn] : worker.connections) {
        if (!conn.has_input()) continue;
        // Pipelined serving with backpressure: a connection stops
        // contributing frames once its write queue crosses the budget, so
        // the queue can exceed it by at most the one reply that crossed —
        // the bound max_write_queue_bytes() certifies, unchanged by batching.
        if (conn.queued() > config_.write_budget_bytes) continue;
        RoundFrame frame;
        frame.conn = &conn;
        try {
          if (!extract_frame(conn, frame.payload)) continue;
        } catch (const std::exception&) {
          // Desynced framing: drop the connection, after handing the kernel
          // the replies this pass queued for its earlier frames. A failed
          // flush only means the peer is gone too.
          try {
            flush_write(worker, conn);
          } catch (const std::exception&) {
          }
          dead.push_back(fd);
          continue;
        }
        frame.reply.t_recv = Clock::now();
        round.push_back(std::move(frame));
      }
      close_dead();
      if (round.empty()) break;
      handle_round(worker, round);
    }
    // The pass's replies leave now: one send per connection, however many
    // rounds it took part in (DESIGN.md §16).
    resume = false;
    for (auto& [fd, conn] : worker.connections) {
      if (!conn.replied) continue;
      conn.replied = false;
      const bool throttled = conn.queued() > config_.write_budget_bytes;
      try {
        flush_write(worker, conn);
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

void PredictionServer::handle_round(Worker& worker,
                                    std::vector<RoundFrame>& round) {
  // Phase 1: parse every frame. Errors short-circuit to a reply here, and so
  // does every verb once the server is stopping; OBSERVE/PREDICT frames
  // become lanes of the executor.
  thread_local std::vector<RoundFrame*> lanes;
  lanes.clear();
  const bool stopping = stopping_.load();
  for (RoundFrame& frame : round) {
    try {
      frame.request = parse_request(frame.payload);
      frame.reply.parse_us = elapsed_us(frame.reply.t_recv, Clock::now());
      verb_counter(frame.request)->inc();
    } catch (const ProtocolError& e) {
      m_.verb_invalid->inc();
      frame.response = ErrorResponse{WireErrorCode::kBadRequest, e.what()};
      frame.handled = true;
      continue;
    } catch (const std::exception& e) {
      frame.response = ErrorResponse{WireErrorCode::kInternal, e.what()};
      frame.handled = true;
      continue;
    }
    if (stopping) {
      frame.response =
          ErrorResponse{WireErrorCode::kShuttingDown, "server is stopping"};
      frame.handled = true;
    } else if (const auto* observe = std::get_if<ObserveRequest>(&frame.request)) {
      frame.lane = true;
      frame.session = observe->session_id;
      lanes.push_back(&frame);
    } else if (const auto* predict = std::get_if<PredictRequest>(&frame.request)) {
      frame.lane = true;
      frame.session = predict->session_id;
      lanes.push_back(&frame);
    }
  }

  // Phase 2: the session-lifecycle and control verbs through handle()
  // (HELLO, BYE, SYNC, STATS, MODEL), in round order.
  for (RoundFrame& frame : round) {
    if (frame.handled || frame.lane) continue;
    const auto t_handle = Clock::now();
    try {
      frame.response = handle(frame.request, worker, *frame.conn, frame.reply.info);
    } catch (const ProtocolError& e) {
      m_.verb_invalid->inc();
      frame.response = ErrorResponse{WireErrorCode::kBadRequest, e.what()};
    } catch (const std::exception& e) {
      frame.response = ErrorResponse{WireErrorCode::kInternal, e.what()};
    }
    frame.reply.handle_us = elapsed_us(t_handle, Clock::now());
    frame.handled = true;
  }

  // Phase 3: the lane executor (DESIGN.md §16).
  if (!lanes.empty()) serve_lanes(lanes);

  // Phase 4: queue, in round order: reply framing, error accounting and
  // the queue-depth high-water mark. run_batch_rounds flushes the queues
  // once the pass's rounds run dry.
  for (RoundFrame& frame : round) {
    Connection& conn = *frame.conn;
    const auto* err = std::get_if<ErrorResponse>(&frame.response);
    frame.reply.is_error = err != nullptr;
    frame.reply.error_code = err != nullptr ? wire_error_code_name(err->code)
                                            : std::string_view{};
    if (frame.reply.is_error) m_.error_replies->inc();
    if (conn.pending.empty()) conn.last_write_progress = Clock::now();
    conn.write_buffer += encode_frame(serialize_response(frame.response));
    frame.reply.end_offset = conn.write_buffer.size();
    conn.pending.push_back(std::move(frame.reply));
    worker.queued_replies.fetch_add(1, std::memory_order_relaxed);
    record_write_queue_depth(conn.queued());
    conn.replied = true;
  }
}

void PredictionServer::serve_lanes(std::span<RoundFrame* const> lanes) {
  thread_local std::vector<std::uint64_t> ids;
  ids.clear();
  for (const RoundFrame* frame : lanes) ids.push_back(frame->session);
  const std::uint8_t drain_flag = draining() ? serve_flags::kDraining : 0;
  std::size_t width = 0;
  const auto t_lanes = Clock::now();
  // One hold over every lane's shard. A session addressed twice in the round
  // resolves to the same entry, and lanes run in round order, so its frames
  // apply in that order.
  sessions_.with_sessions(ids, [&](std::span<SessionTable::Entry* const>
                                        entries) {
    const auto now = Clock::now();
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      RoundFrame& frame = *lanes[i];
      SessionTable::Entry* entry = entries[i];
      RequestInfo& info = frame.reply.info;
      info.session_id = ids[i];
      if (entry != nullptr) info.traced = entry->traced;
      const auto* observe = std::get_if<ObserveRequest>(&frame.request);
      const auto* predict = std::get_if<PredictRequest>(&frame.request);
      const double w = observe != nullptr ? observe->throughput_mbps : 0.0;
      const unsigned steps = predict != nullptr ? predict->steps_ahead : 1;
      info.event = observe != nullptr ? "observe" : "predict";
      // Validate before touching the predictor, in a fixed order: an invalid
      // sample, then an unknown session, then a zero horizon. One NaN in the
      // forward filter poisons every belief state after it; zero is allowed
      // (a fully stalled epoch is a real measurement).
      if (!(std::isfinite(w) && w >= 0.0 && w <= config_.max_sample_mbps)) {
        frame.response = ErrorResponse{
            WireErrorCode::kInvalidSample,
            "throughput sample must be finite, non-negative and <= " +
                std::to_string(config_.max_sample_mbps)};
        continue;
      }
      if (entry == nullptr) {
        frame.response =
            ErrorResponse{WireErrorCode::kUnknownSession, "unknown session"};
        continue;
      }
      if (steps == 0) {
        frame.response =
            ErrorResponse{WireErrorCode::kBadRequest, "steps_ahead must be >= 1"};
        continue;
      }
      entry->last_used = now;
      ++width;
      SessionPredictor& predictor = *entry->predictor;
      try {
        if (observe != nullptr) {
          if (config_.on_session_complete &&
              entry->observations.size() < kSessionHistoryCap)
            entry->observations.push_back(w);
          predictor.observe(w);
        }
        const double mbps = predictor.predict(steps);
        // serve_flags() after the observe: why this reply is served the way
        // it is. kDraining alone is planned-migration housekeeping, not a
        // degraded answer — the health signal counts everything else.
        const PredictionResponse response{
            mbps,
            static_cast<std::uint8_t>(predictor.serve_flags() | drain_flag)};
        if ((response.flags & ~serve_flags::kDraining) != serve_flags::kPrimary)
          m_.degraded_replies->inc();
        info.flags = response.flags;
        info.mbps = response.mbps;
        info.log_likelihood = predictor.last_log_likelihood();
        frame.response = response;
      } catch (const std::exception& e) {
        // A predictor that throws (e.g. a history baseline asked to predict
        // before its first observation) fails its own lane, not the worker.
        frame.response = ErrorResponse{WireErrorCode::kInternal, e.what()};
      }
    }
  });
  if (width > 0) m_.batch_size->observe(static_cast<double>(width));
  // Attribute the pass's wall time evenly: per-reply handle_us stays
  // meaningful in traces without per-lane clock reads inside the lock.
  const std::uint64_t per_lane =
      elapsed_us(t_lanes, Clock::now()) / lanes.size();
  for (RoundFrame* frame : lanes) frame->reply.handle_us = per_lane;
}

void PredictionServer::flush_write(Worker& worker, Connection& conn) {
  while (conn.queued() > 0) {
    const auto remaining = std::span(conn.write_buffer).subspan(conn.write_pos);
    m_.send_calls->inc();
    const std::size_t n = send_some(conn.fd, std::as_bytes(remaining));
    if (n == 0) break;  // kernel buffer full; wait for POLLOUT
    conn.write_pos += n;
    conn.last_write_progress = Clock::now();
  }
  complete_flushed_replies(worker, conn);
  if (conn.queued() == 0) {
    // Fully flushed: reclaim the buffer instead of letting offsets grow
    // without bound over the connection's lifetime.
    conn.write_buffer.clear();
    conn.write_pos = 0;
  }
}

void PredictionServer::complete_flushed_replies(Worker& worker,
                                                Connection& conn) {
  while (!conn.pending.empty() &&
         conn.pending.front().end_offset <= conn.write_pos) {
    const PendingReply reply = std::move(conn.pending.front());
    conn.pending.pop_front();
    worker.queued_replies.fetch_sub(1, std::memory_order_relaxed);
    m_.replies->inc();
    const auto t_done = Clock::now();
    conn.last_activity = t_done;
    m_.request_seconds->observe(
        std::chrono::duration<double>(t_done - reply.t_recv).count());
    const RequestInfo& info = reply.info;
    if (trace_ && info.traced) {
      const std::uint64_t send_us = elapsed_us(reply.t_recv, t_done) -
                                    reply.parse_us - reply.handle_us;
      if (reply.is_error) {
        trace_->emit("reply-error", info.session_id,
                     {{"verb", info.event},
                      {"code", reply.error_code},
                      {"parse_us", reply.parse_us},
                      {"handle_us", reply.handle_us},
                      {"send_us", send_us}});
      } else if (info.event == "hello") {
        trace_->emit("hello", info.session_id,
                     {{"cluster", std::string_view(info.cluster_label)},
                      {"initial_mbps", info.mbps},
                      {"parse_us", reply.parse_us},
                      {"handle_us", reply.handle_us},
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
             {"parse_us", reply.parse_us},
             {"handle_us", reply.handle_us},
             {"send_us", send_us}});
      }
    }
  }
}

Response PredictionServer::handle(const Request& request, Worker& worker,
                                  Connection& conn, RequestInfo& info) {
  if (std::holds_alternative<SyncBeginRequest>(request) ||
      std::holds_alternative<SyncChunkRequest>(request) ||
      std::holds_alternative<SyncCommitRequest>(request) ||
      std::holds_alternative<SyncFetchRequest>(request)) {
    info.event = "sync";
    return handle_sync(request, conn.sync);
  }

  if (const auto* hello = std::get_if<HelloRequest>(&request)) {
    info.event = "hello";
    // Admission control gates session creation, not the verbs of sessions
    // already admitted: a draining or shedding server keeps serving what it
    // owns and turns away only new work, with a retry-after hint so the
    // client tier backs off instead of hot-spinning replays.
    if (draining()) {
      m_.drain_rejections->inc();
      return ErrorResponse{WireErrorCode::kShuttingDown,
                           "server is draining, connect to another replica",
                           static_cast<std::uint32_t>(config_.retry_after_ms)};
    }
    if (should_shed(worker)) {
      m_.hellos_shed->inc();
      return ErrorResponse{WireErrorCode::kOverloaded,
                           "server is shedding new sessions, retry later",
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
    // Cluster metadata is predictor-specific; expose what we can.
    response.cluster_label = model->name();

    const auto now = Clock::now();
    response.session_id = sessions_.emplace([&](std::uint64_t id) {
      info.session_id = id;
      info.traced = trace_ && trace_->should_sample(id);
      SessionTable::Entry entry;
      entry.predictor = std::move(predictor);
      entry.owner = std::move(model);
      entry.last_used = now;
      entry.traced = info.traced;
      entry.created_at = now;
      if (config_.on_session_complete) {
        // Keep the identity + history the completion hook will need; when
        // no hook is installed the entry stays as lean as before.
        entry.features = context.features;
        entry.start_hour = context.start_hour;
      }
      return entry;
    });
    info.mbps = response.initial_mbps;
    info.cluster_label = response.cluster_label;
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
            [this](std::uint64_t id, SessionTable::Entry& entry) {
              complete_session(id, entry, "bye");
            },
            &traced))
      info.traced = traced;
    m_.live_sessions->set(static_cast<double>(sessions_.size()));
    // The last BYE is usually what completes a drain — record it now rather
    // than waiting for the next evict tick.
    if (draining()) note_drain_progress();
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

Response PredictionServer::handle_sync(const Request& request,
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
