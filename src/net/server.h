// The deployed Prediction Engine (paper §6): a trained PredictorModel
// (normally Cs2pPredictorModel) served over the wire protocol of net/wire.h
// on loopback TCP, in two layers (DESIGN.md §12): FrameServer decides what
// each frame means, and PredictionServer is the I/O shell around it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/session_table.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "predictors/predictor.h"

namespace cs2p {

/// Everything a finished session leaves behind, whichever way it ended.
/// Handed to ServerConfig::on_session_complete so the continuous-training
/// pipeline (DESIGN.md §15) sees the full observation stream — a session
/// that times out carries exactly as much training signal as one that says
/// BYE politely.
struct CompletedSession {
  std::uint64_t session_id = 0;
  SessionFeatures features;
  double start_hour = 0.0;
  std::vector<double> observations;  ///< validated OBSERVE samples, in order
  std::string_view reason;           ///< "bye" or "evict"
};

/// Robustness and scaling knobs of the service; the defaults suit tests and
/// the pilot bench, cs2p_serve exposes them as flags.
struct ServerConfig {
  std::size_t max_connections = 64;  ///< concurrent connections before OVERLOADED
  int idle_timeout_ms = 30'000;      ///< close a connection idle this long
  int session_ttl_ms = 120'000;      ///< evict sessions untouched this long
  double max_sample_mbps = 10'000.0; ///< OBSERVE samples above this are absurd
  /// Event-loop worker count. 0 = hardware concurrency. The server's total
  /// thread count is io_threads + 1 (accept), independent of connections.
  std::size_t io_threads = 0;
  /// Session-table shards (rounded up to a power of two). 0 = 16.
  std::size_t session_shards = 0;
  /// Max session entries examined per shard per TTL eviction tick.
  std::size_t evict_scan_budget = 64;
  /// Telemetry sink (DESIGN.md §11). Null: the server creates a private
  /// registry (hermetic per-server counters, like the engine); cs2p_serve
  /// injects the same registry it hands the engine so one STATS scrape
  /// covers the whole process.
  std::shared_ptr<obs::MetricsRegistry> metrics;
  /// Per-session prediction trace (DESIGN.md §11). Null: tracing off.
  std::shared_ptr<obs::TraceLog> trace;
  /// Decodes a SYNC-shipped snapshot into a servable model (DESIGN.md §13).
  /// The server core is model-format-agnostic: cs2p_serve wires this to
  /// core/model_store's restore path. Returning null or throwing answers
  /// SYNC_REJECTED and keeps the current model. Null function: this replica
  /// refuses SYNCBEGIN outright (serving-only, no trainer trust).
  std::function<std::shared_ptr<const PredictorModel>(const std::string&)>
      sync_apply;
  /// Largest snapshot a SYNCBEGIN may declare; guards the staging buffer.
  std::size_t max_sync_bytes = 256 * 1024 * 1024;
  /// Unified session-teardown hook (DESIGN.md §15): called exactly once per
  /// session, outside every shard lock, whether the session ended by BYE or
  /// by TTL/drain eviction. When set, each HELLO allocates a history that
  /// records the session's features and validated OBSERVE samples, so the
  /// hook receives the full training signal; when null, no history is kept
  /// (zero steady-state cost, and the session slot holds only a null
  /// pointer). Exceptions are swallowed and counted — a broken trainer must
  /// not take the serve path down.
  std::function<void(CompletedSession&&)> on_session_complete;

  // -- Overload control & drain (DESIGN.md §14) ------------------------------

  /// Queued reply bytes a connection may hold before the worker stops
  /// reading more requests from it (read-throttle). The queue itself never
  /// exceeds this by more than one encoded frame — the bound the slow-reader
  /// test asserts. 0 restores the default (256 KB).
  std::size_t write_budget_bytes = 256 * 1024;
  /// A connection with queued replies whose flush made zero progress for
  /// this long is a slow reader and is closed. <= 0 disables the kick.
  int write_stall_timeout_ms = 10'000;
  /// Backoff hint stamped on OVERLOADED/SHUTTING_DOWN replies (protocol
  /// v5); what ReplicaSet sleeps when every replica refuses it.
  int retry_after_ms = 250;
  /// Session TTL while draining: begin_drain() re-arms the table to
  /// min(session_ttl_ms, this) so abandoned sessions cannot hold the drain
  /// open for the steady-state TTL. <= 0 keeps the serving TTL.
  int drain_session_ttl_ms = 1'000;
  /// SO_SNDBUF for accepted connections (0 = kernel default). Shrinking it
  /// makes write backpressure observable at small scales — tests and the
  /// overload bench use it; production normally leaves the default.
  int so_sndbuf = 0;
};

/// Answers frames, and owns everything an answer depends on: the served
/// model, the sharded session table and its TTL eviction, the published
/// snapshot, drain state and the session-completion hook. It owns no
/// socket, thread or poll loop, and without a trace log it reads no clock:
/// every time it stamps (TTL touch, session creation and lifetime, drain
/// completion) is the `now` its caller hands it, so a test can drive it
/// frame by frame with an injected clock.
///
/// One serving path (DESIGN.md §16): serve() parses a payload; handle()
/// answers the lifecycle and control verbs (HELLO, BYE, SYNC, STATS, MODEL),
/// and an OBSERVE/PREDICT runs through its session's own observe() and
/// predict() under that session's shard lock (SessionTable::with_sessions),
/// so a session addressed from several connections resolves to one entry
/// and its frames apply in the order they are served. A frame that fails to
/// parse answers BAD_REQUEST, one whose predictor throws INTERNAL, and every
/// frame after stop() SHUTTING_DOWN. An OBSERVE/PREDICT on a live session
/// allocates nothing.
///
/// Request validation (ROADMAP north star: degrade, don't die): NaN,
/// negative and absurd throughput samples answer INVALID_SAMPLE instead of
/// poisoning the HMM filter, and sessions abandoned without BYE are evicted
/// after the TTL, so a crashed client leaks nothing permanently.
///
/// Model lifecycle (DESIGN.md §9): the served model sits behind an RCU-style
/// shared_ptr. swap_model() atomically publishes a retrained model; sessions
/// opened before the swap pin their creating model (each session entry holds
/// a reference) and keep predicting on it until BYE/eviction, while new
/// HELLOs land on the fresh model. No session is ever dropped by a swap.
///
/// Drain (DESIGN.md §14): begin_drain() answers new HELLOs with
/// SHUTTING_DOWN + retry-after, stamps kDraining on every PRED so
/// ReplicaSet migrates sessions proactively, and shrinks the session TTL so
/// abandoned entries cannot hold the drain open — a SIGTERM becomes a
/// zero-drop rolling restart. Drain is the only thing that refuses a HELLO.
class FrameServer {
 public:
  using Clock = std::chrono::steady_clock;

  /// In-progress SYNC shipment on one connection. Staging is per-connection
  /// by design: a dropped trainer connection discards its partial snapshot
  /// with the fd, and concurrent trainers cannot interleave chunks.
  struct SyncStaging {
    bool active = false;
    std::uint64_t expected_bytes = 0;
    std::uint64_t expected_checksum = 0;
    std::string buffer;
  };

  /// What serving a frame learned about its request, for the trace record
  /// the shell emits after the reply is on the wire.
  struct RequestInfo {
    std::string_view event = "invalid";  ///< lifecycle stage / verb name
    std::uint64_t session_id = 0;
    bool traced = false;
    std::uint64_t flags = 0;         ///< serve_flags of a PRED reply
    double mbps = 0.0;               ///< predicted (or initial) throughput
    std::optional<double> log_likelihood;
    std::string model_name;          ///< HELLO only
    std::uint64_t parse_us = 0;      ///< stage clocks, traced servers only
    std::uint64_t handle_us = 0;
  };

  /// The server shares ownership of the model (and of every model later
  /// published via swap_model) for as long as any session uses it.
  FrameServer(std::shared_ptr<const PredictorModel> model, ServerConfig config);

  /// Resolved configuration: io_threads and session_shards report the
  /// values actually in effect (defaults substituted, shards rounded).
  const ServerConfig& config() const noexcept { return config_; }

  /// Answers one frame's payload: counts the request, parses it, and serves
  /// it with `staging` as its connection's SYNC shipment and `now` as the
  /// time every stamp it makes reads. Fills `info` for the trace record and
  /// returns the reply.
  Response serve(std::string_view payload, SyncStaging& staging,
                 Clock::time_point now, RequestInfo& info);

  /// One amortized TTL sweep step at `now` (SessionTable::evict_tick):
  /// evicted sessions go through the completion hook, and a drain whose
  /// table has emptied records its duration.
  void evict_tick(Clock::time_point now);

  /// Served-request counter (for the throughput microbench). Since the
  /// telemetry layer, these accessors read the metrics registry — the
  /// registry is the single source of truth, the methods are the
  /// test-friendly view.
  std::uint64_t requests_handled() const noexcept { return m_.requests->value(); }

  /// Live entries in the session table (for leak checks in tests).
  std::size_t session_count() const { return sessions_.size(); }

  /// Sessions reaped by the TTL sweeper because no BYE ever arrived.
  std::uint64_t sessions_evicted() const noexcept { return m_.evicted->value(); }

  /// PRED replies whose serve_flags were non-primary (guardrail fallback,
  /// drifted cluster, global model) — the service-level health signal the
  /// guardrail layer surfaces.
  std::uint64_t degraded_replies() const noexcept {
    return m_.degraded_replies->value();
  }

  /// The registry this server reports into (config().metrics, or the
  /// server's private one). What the STATS verb scrapes.
  obs::MetricsRegistry& metrics() const noexcept { return *metrics_; }

  /// The session table backing the serve path (shard/contention/eviction
  /// introspection for tests and benches).
  const SessionTable& session_table() const noexcept { return sessions_; }

  /// Atomically publishes a new model (hot-swap retraining). In-flight
  /// sessions keep the model that created them; sessions opened after the
  /// swap use `model`. Throws std::invalid_argument on null. Safe to call
  /// from any thread while serving.
  void swap_model(std::shared_ptr<const PredictorModel> model);

  /// The currently published model (what the next HELLO will use).
  std::shared_ptr<const PredictorModel> current_model() const;

  /// Number of successful swap_model() calls.
  std::uint64_t models_swapped() const noexcept { return m_.swaps->value(); }

  /// Publishes snapshot bytes for SYNCFETCH pulls (a fresh replica
  /// bootstrapping from this node). Also called internally after a SYNC
  /// commit so a replica chain re-serves what it accepted. Empty clears.
  void publish_snapshot(std::string snapshot_bytes);

  /// SYNC commits that passed verification and hot-swapped the model.
  std::uint64_t syncs_applied() const noexcept { return m_.syncs_applied->value(); }

  /// SYNC attempts refused (checksum/byte-count mismatch, decode failure,
  /// out-of-order verbs, or SYNC disabled). The served model is unchanged.
  std::uint64_t syncs_rejected() const noexcept {
    return m_.syncs_rejected->value();
  }

  /// Starts a graceful drain: stop accepting (PredictionServer), answer new
  /// HELLOs with SHUTTING_DOWN + retry-after, stamp kDraining on in-flight
  /// sessions' replies so the client tier migrates them, shrink the session
  /// TTL (worker 0 applies it at its next evict tick). In-flight sessions
  /// keep being served until they BYE, migrate, or expire. Idempotent;
  /// irreversible for this server instance.
  void begin_drain();

  bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }

  /// Drain complete: draining and the session table is empty. The caller
  /// (cs2p_serve's SIGTERM path, ChaosReplica::drain_and_restart) may then
  /// stop() with zero session loss.
  bool drained() const { return draining() && sessions_.size() == 0; }

  /// Every frame served after this answers SHUTTING_DOWN.
  void stop() noexcept { stopping_.store(true); }

 protected:
  /// Registry handles cached at construction: the serving path increments
  /// through these pointers lock-free (obs/metrics.h rule 1).
  struct MetricHandles {
    obs::Counter* requests = nullptr;
    obs::Counter* replies = nullptr;
    obs::Counter* error_replies = nullptr;
    obs::Counter* degraded_replies = nullptr;
    obs::Counter* verb_hello = nullptr;
    obs::Counter* verb_observe = nullptr;
    obs::Counter* verb_predict = nullptr;
    obs::Counter* verb_bye = nullptr;
    obs::Counter* verb_model = nullptr;
    obs::Counter* verb_stats = nullptr;
    obs::Counter* verb_sync = nullptr;
    obs::Counter* verb_invalid = nullptr;
    obs::Counter* connections = nullptr;
    obs::Counter* idle_timeouts = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* evicted = nullptr;
    obs::Counter* swaps = nullptr;
    obs::Counter* syncs_applied = nullptr;
    obs::Counter* syncs_rejected = nullptr;
    obs::Counter* loop_iterations = nullptr;
    /// Every send(2)/recv(2) a worker issues on a connection, EAGAIN
    /// included: with replies_total, the syscalls per reply.
    obs::Counter* send_calls = nullptr;
    obs::Counter* recv_calls = nullptr;
    obs::Counter* slow_reader_kicks = nullptr;
    obs::Counter* drain_rejections = nullptr;
    obs::Counter* completion_hook_errors = nullptr;
    obs::Gauge* active_connections = nullptr;  ///< what the cap reads
    obs::Gauge* live_sessions = nullptr;
    obs::Gauge* draining = nullptr;
    obs::Gauge* last_drain_seconds = nullptr;
    obs::Gauge* max_write_queue = nullptr;
    obs::Histogram* request_seconds = nullptr;
    obs::Histogram* connection_seconds = nullptr;
    /// Session lifetime from HELLO to teardown, observed on BOTH completion
    /// paths (BYE and eviction) — eviction used to bypass all duration
    /// accounting.
    obs::Histogram* session_seconds = nullptr;

    static MetricHandles create(obs::MetricsRegistry& registry);
  };

  /// Publishes the drain-duration gauge, as of `now`, once the table first
  /// reaches empty.
  void note_drain_progress(Clock::time_point now);

  ServerConfig config_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  MetricHandles m_;
  std::shared_ptr<obs::TraceLog> trace_;
  std::atomic<bool> stopping_{false};

 private:
  /// Serves one OBSERVE/PREDICT under its session's shard lock: validation,
  /// the TTL touch (`now`), observe(), predict(), and reply composition.
  Response serve_prediction(const Request& request, Clock::time_point now,
                            RequestInfo& info);
  /// Answers the lifecycle and control verbs (HELLO, BYE, SYNC, STATS,
  /// MODEL); OBSERVE/PREDICT never come here — serve_prediction answers
  /// them.
  Response handle(const Request& request, SyncStaging& staging,
                  Clock::time_point now, RequestInfo& info);
  Response handle_sync(const Request& request, SyncStaging& staging);
  obs::Counter* verb_counter(const Request& request) const noexcept;
  /// The single teardown tail shared by BYE and eviction: session-duration
  /// histogram up to `now`, then the on_session_complete hook. Runs outside
  /// shard locks (the entry has already been moved out of the table).
  void complete_session(std::uint64_t id, SessionTable::Entry& entry,
                        std::string_view reason, Clock::time_point now);

  mutable std::mutex model_mutex_;  ///< guards model_ (reads copy the ptr)
  std::shared_ptr<const PredictorModel> model_;
  mutable std::mutex snapshot_mutex_;  ///< guards snapshot_ (reads copy)
  std::shared_ptr<const std::string> snapshot_;  ///< served to SYNCFETCH
  std::uint64_t snapshot_checksum_ = 0;  ///< cached sync_checksum(*snapshot_)

  SessionTable sessions_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> drain_recorded_{false};
  /// begin_drain() timestamp (us since epoch of Clock); stored before the
  /// draining_ release-store so note_drain_progress always sees it.
  std::atomic<std::int64_t> drain_started_us_{0};
};

/// The I/O shell (DESIGN.md §12). The accept thread hands each connection to
/// one of `io_threads` workers; every worker runs a poll(2) loop over its
/// connections with non-blocking sockets, buffering partial frames in a
/// per-connection read buffer that complete frames are parsed in place from
/// (replies pipeline through a bounded per-connection write queue). The
/// server's thread count is io_threads + 1 (accept) regardless of connection
/// count — no thread-per-connection, no thread churn.
///
/// Passes (DESIGN.md §16): after each poll wakeup the worker serves its
/// connections' buffered frames in sweeps of one complete frame per
/// connection, so per-connection reply order is untouched. Each frame goes
/// to FrameServer::serve() with its connection's SYNC staging and the
/// pass's wakeup time (the one clock read of the pass), and its reply is
/// queued before the next frame is extracted.
/// Once no frame is left, each connection that got replies is flushed once,
/// so a pipelined burst leaves in one send(2) and a reply waits for the
/// rest of its pass.
///
/// Fault discipline and overload control (DESIGN.md §8, §14):
///   - connection cap with a typed OVERLOADED rejection frame carrying the
///     retry-after hint (the only source of OVERLOADED),
///   - per-connection idle deadline enforced by the worker loop (a hung or
///     silent peer cannot pin a worker — workers are never blocked on any
///     single connection),
///   - write backpressure: replies queue in a bounded per-connection write
///     buffer; a connection whose queue exceeds write_budget_bytes stops
///     being served and read (so a slow reader throttles itself, not the
///     worker), and one whose queue makes no progress past
///     write_stall_timeout_ms is closed — the unbounded-buffer OOM hole is
///     shut by construction,
///   - draining stops accepting connections; TTL eviction is amortized into
///     worker 0's loop (bounded scans, never a full-table sweep under one
///     lock).
class PredictionServer : public FrameServer {
 public:
  /// Starts serving immediately on 127.0.0.1:`port` (0 = ephemeral).
  PredictionServer(std::shared_ptr<const PredictorModel> model,
                   std::uint16_t port = 0);
  PredictionServer(std::shared_ptr<const PredictorModel> model,
                   ServerConfig config, std::uint16_t port = 0);

  /// Stops accepting, closes connections, joins all threads.
  ~PredictionServer();

  std::uint16_t port() const noexcept { return port_; }

  /// Fully written replies; trails requests_handled() by the in-flight count
  /// (the wire-visible requests >= replies invariant).
  std::uint64_t replies_sent() const noexcept { return m_.replies->value(); }

  /// Connections refused at the cap with an OVERLOADED frame.
  std::uint64_t connections_rejected() const noexcept {
    return m_.rejected->value();
  }

  // -- Overload control & drain (DESIGN.md §14) ------------------------------

  /// Connections closed because their queued replies made no flush progress
  /// past write_stall_timeout_ms.
  std::uint64_t slow_reader_kicks() const noexcept {
    return m_.slow_reader_kicks->value();
  }

  /// High-water mark of any connection's queued reply bytes — the
  /// observable guarantee that write backpressure bounds the queue (stays
  /// within write_budget_bytes + one frame no matter how slow a reader is).
  std::size_t max_write_queue_bytes() const noexcept {
    return max_write_queue_.load(std::memory_order_relaxed);
  }

  /// Blocks until drained() or `timeout_ms` elapses; returns drained().
  bool wait_drained(int timeout_ms);

  /// Safe to call repeatedly and from multiple threads concurrently.
  void stop();

 private:
  /// One queued reply's telemetry context, finished (counted, timed,
  /// traced) when write_pos passes end_offset — i.e. when the reply's last
  /// byte has been handed to the kernel.
  struct PendingReply {
    std::size_t end_offset = 0;  ///< write_buffer offset one past the reply
    Clock::time_point t_recv{};  ///< wakeup of the pass that extracted it
    RequestInfo info;
    bool is_error = false;
    std::string_view error_code;  ///< wire_error_code_name of an ERR reply
  };

  /// Requests pipeline: replies append to the bounded write queue and input
  /// keeps being consumed until the queue passes write_budget_bytes, at
  /// which point the pass stops serving the connection and the worker stops
  /// polling it for reads (backpressure) until the queue flushes back under
  /// budget.
  struct Connection {
    FdHandle fd;
    /// Inbound bytes. Frames are parsed where they lie: read_pos moves past
    /// each extracted frame, and the consumed prefix is dropped before the
    /// next read appends (no frame view outlives the pass that serves it).
    std::string read_buffer;
    std::size_t read_pos = 0;
    /// The bounded write queue: replies are framed straight into it,
    /// flush_write drains from write_pos, and the buffer is compacted once
    /// fully flushed. pending tracks each reply's end offset + telemetry;
    /// pending_head is the first reply not yet on the wire, and it resets
    /// with the buffer.
    std::string write_buffer;
    std::size_t write_pos = 0;
    std::vector<PendingReply> pending;
    std::size_t pending_head = 0;
    /// Got replies in the current pass; serve_pass flushes it once the pass
    /// has no frame left to serve.
    bool replied = false;
    Clock::time_point opened_at{};
    /// Progress clock for the idle sweep: refreshed only when a *complete*
    /// frame is consumed or a reply flushes — a peer trickling header bytes
    /// is as idle as a silent one (slow-header folding, DESIGN.md §14).
    Clock::time_point last_activity{};
    /// Last time flush_write moved write_pos forward; a connection with
    /// queued replies and no progress past write_stall_timeout_ms is a slow
    /// reader and is kicked.
    Clock::time_point last_write_progress{};
    SyncStaging sync;             ///< SYNC shipment staged on this connection

    /// Reply bytes not yet handed to the kernel.
    std::size_t queued() const noexcept { return write_buffer.size() - write_pos; }
    /// Replies queued and not yet fully handed to the kernel.
    std::size_t unflushed() const noexcept { return pending.size() - pending_head; }
    /// Holds unconsumed inbound bytes: a complete frame or the start of one.
    bool has_input() const noexcept { return read_pos < read_buffer.size(); }
  };

  /// One event-loop worker: a poll(2) loop over the connections it owns
  /// plus a wake pipe the accept thread (and stop()) signals. `connections`
  /// is touched only by the worker's own thread; the inbox is the
  /// cross-thread handoff point.
  struct Worker {
    std::thread thread;
    FdHandle wake_read;
    FdHandle wake_write;
    std::mutex inbox_mutex;
    std::vector<Connection> inbox;
    std::unordered_map<int, Connection> connections;
    /// Busy-fraction EWMA of the event loop (1 - poll_wait/iteration): the
    /// worker's own cs2p_server_worker_utilization gauge, written by the
    /// owning worker.
    obs::Gauge* utilization = nullptr;
  };

  void accept_loop();
  void dispatch_connection(FdHandle connection);
  void worker_loop(Worker& worker);
  void adopt_inbox(Worker& worker);
  /// Returns false when the connection must be closed.
  bool handle_io(Connection& conn, short revents);
  /// Points `payload` at the next complete frame in the connection's read
  /// buffer and moves read_pos past it, stamping the idle clock with the
  /// pass's wakeup time `now`. Returns false when no complete frame is
  /// buffered; throws ProtocolError on a malformed header (stream desync —
  /// the caller closes the connection).
  bool extract_frame(Connection& conn, std::string_view& payload,
                     Clock::time_point now);
  /// One event-loop pass over the buffered input: sweeps of one frame per
  /// connection (preserving per-connection order and the backpressure
  /// budget), each frame served as it is extracted, until no frames remain;
  /// then one flush_write per connection that got replies. A flush that
  /// brings a throttled connection holding buffered frames back under
  /// budget runs the sweeps again: those frames get no further POLLIN.
  /// `now` is the wakeup time every extracted frame is stamped with.
  void serve_pass(Worker& worker, Clock::time_point now);
  /// Answers one extracted frame through FrameServer::serve() and queues
  /// the reply on the connection's write buffer.
  void serve_frame(Connection& conn, std::string_view payload,
                   Clock::time_point now);
  /// Hands queued reply bytes to the kernel until it is done or full;
  /// throws std::system_error when the peer is gone. A flush that moves
  /// bytes reads the clock once.
  void flush_write(Connection& conn);
  /// Counts/times/traces every pending reply whose bytes are fully on the
  /// wire (end_offset <= write_pos), as handed off at `now`.
  void complete_flushed_replies(Connection& conn, Clock::time_point now);
  /// The single close path: churn histogram, active-connection gauge, idle
  /// accounting, fd teardown — a connection that dies mid-reply goes
  /// through here exactly like any other.
  void close_connection(Connection& conn, bool idle_timed_out);
  void reject_connection(const FdHandle& connection, WireErrorCode code,
                         const std::string& message);
  void record_write_queue_depth(std::size_t bytes) noexcept;

  FdHandle listener_;
  std::uint16_t port_ = 0;
  /// Wakes the accept loop's poll (stop() signals it).
  FdHandle accept_wake_read_;
  FdHandle accept_wake_write_;

  std::atomic<std::size_t> next_worker_{0};  ///< round-robin dispatch
  std::mutex stop_mutex_;  ///< serializes concurrent stop() callers
  std::atomic<std::size_t> max_write_queue_{0};

  std::thread accept_thread_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace cs2p
