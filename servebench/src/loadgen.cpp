// stream-steady and session-churn: one generator thread driving wire frames
// over non-blocking loopback connections.
//
// Requests are built and replies decoded with the library's own wire
// functions (net/wire.h), so the generator is a complete protocol client.
// Replies are matched to requests by per-connection FIFO order, which the
// server preserves, and every session is pinned to one connection so its
// requests reach the server in order. Open-loop requests carry the time they
// were due; latency runs from that time, so a stall also delays every
// request queued behind it (no coordinated omission).
#include <poll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <queue>
#include <stdexcept>
#include <thread>
#include <variant>

#include "net/socket.h"
#include "net/wire.h"
#include "sim/player.h"
#include "util/rng.h"
#include "workload.h"

namespace servebench {

using namespace cs2p;

namespace {

constexpr std::size_t kConnections = 4;
constexpr double kStreamRate = 50'000.0;          ///< requests/s, open loop
constexpr std::size_t kStreamSessions = 16'384;   ///< live set of stream-steady
constexpr double kChurnSessionRate = 5'000.0;     ///< session arrivals/s
/// Gap between consecutive requests of one churn session: a 6-s epoch
/// compressed 3000x.
constexpr std::int64_t kChurnStepNs = 2'000'000;
constexpr double kUnseenShare = 0.04;             ///< churn sessions on the global model
constexpr unsigned kChurnHorizon = 5;
constexpr std::uint32_t kPilotHorizon = 5;  ///< MpcController's default lookahead
constexpr std::size_t kSaturationDepth = 32;      ///< requests in flight per connection
constexpr double kOpenShare = 0.5;                ///< of --seconds; the rest saturates
constexpr std::uint64_t kTraceEvery = 16;         ///< traced runs span 1 request in 16
constexpr std::size_t kKeepSpans = 200'000;
constexpr std::size_t kReadChunk = 64 * 1024;
/// Waits shorter than this spin on poll(0); longer ones sleep in ppoll.
constexpr std::int64_t kSpinNs = 20'000;
constexpr unsigned kOracleThreads = 3;

using Verb = Capture::Verb;

struct Op {
  std::uint32_t instance = 0;
  std::uint32_t arg = 0;  ///< OBSERVE: sample index in the session; PREDICT: horizon
  Verb verb = Verb::kHello;
  std::uint8_t phase = 0;
  std::int64_t due_ns = 0;
  std::uint64_t request = 0;  ///< request id (span key)
};

/// One server-side session: a test-day trace (or a suffix of it) replayed in
/// order, and every forecast the server returned for it.
struct Instance {
  const Session* trace = nullptr;
  std::uint32_t offset = 0;  ///< first sample this session observes
  std::uint32_t length = 0;  ///< OBSERVEs it sends
  std::uint32_t issued = 0;  ///< OBSERVEs issued so far
  std::uint32_t horizon = 0; ///< PREDICT horizon after the last OBSERVE (0: none)
  std::uint8_t conn = 0;
  bool ready = false;        ///< the SESSION reply arrived
  bool global = false;       ///< served by the global model
  std::uint64_t server_id = 0;
  double initial = 0.0;
  double horizon_pred = std::nan("");
  std::vector<double> preds;  ///< OBSERVE replies, in order
  std::vector<Op> deferred;   ///< waiting for the SESSION reply
};

struct Connection {
  FdHandle fd;
  std::string out;
  std::size_t out_pos = 0;
  std::string in;
  std::deque<Op> inflight;
  std::size_t outstanding = 0;  ///< in flight + deferred
};

struct PhaseState {
  Phase phase;
  bool open_loop = false;
  std::int64_t window_start = 0;
  std::int64_t window_end = std::numeric_limits<std::int64_t>::max();
  /// Open loop: succeeded replies to requests due inside the window.
  std::uint64_t in_window = 0;
  Samples observe_us, hello_us, predict_us, late_us;
  std::vector<std::string> errors;

  double goodput() const {
    const double seconds = static_cast<double>(window_end - window_start) / 1e9;
    return seconds > 0 ? static_cast<double>(in_window) / seconds : 0.0;
  }
};

class Generator {
 public:
  /// Connection i goes to ports[i % ports.size()].
  Generator(const std::vector<std::uint16_t>& ports, Tracer& tracer, Capture& capture)
      : tracer_(tracer), capture_(capture) {
    // ppoll deadlines are due times: do not let the kernel defer them.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (std::size_t i = 0; i < kConnections; ++i) {
      Connection c;
      c.fd = connect_loopback(ports[i % ports.size()]);
      set_nonblocking(c.fd);
      conns_.push_back(std::move(c));
    }
  }

  std::uint32_t open_session(const Session& trace, std::uint32_t offset,
                             std::uint32_t length, std::uint32_t horizon,
                             std::size_t conn) {
    Instance inst;
    inst.trace = &trace;
    inst.offset = offset;
    inst.length = length;
    inst.horizon = horizon;
    inst.conn = static_cast<std::uint8_t>(conn);
    instances_.push_back(std::move(inst));
    capture_.sessions.push_back(&trace);
    return static_cast<std::uint32_t>(instances_.size() - 1);
  }

  /// `expected` requests: sample vectors are reserved for them.
  std::size_t begin_phase(const std::string& name, bool open_loop, std::size_t expected = 0) {
    PhaseState state;
    state.phase.name = name;
    state.open_loop = open_loop;
    state.observe_us.reserve(expected);
    state.hello_us.reserve(expected / 8);
    state.predict_us.reserve(expected / 8);
    state.late_us.reserve(expected);
    phases_.push_back(std::move(state));
    return phases_.size() - 1;
  }

  void set_window(std::size_t phase, std::int64_t start, std::int64_t end) {
    PhaseState& ph = phases_[phase];
    ph.window_start = start;
    ph.window_end = end;
    ph.phase.seconds = static_cast<double>(end - start) / 1e9;
  }

  void set_capture(bool on) noexcept { capturing_ = on; }

  const Instance& instance(std::uint32_t id) const { return instances_[id]; }
  const std::deque<Instance>& instances() const noexcept { return instances_; }
  const std::vector<PhaseState>& phases() const noexcept { return phases_; }
  std::size_t outstanding(std::size_t conn) const { return conns_[conn].outstanding; }

  bool has_next_observe(std::uint32_t id) const {
    return instances_[id].issued < instances_[id].length;
  }

  /// Issues `verb` for the session in the current phase, due at `due_ns`
  /// (a PREDICT at `horizon`, or the session's own). Requests that need the
  /// server's session id wait until HELLO returns.
  void submit(std::uint32_t id, Verb verb, std::int64_t due_ns, std::uint32_t horizon = 0) {
    Instance& inst = instances_[id];
    Op op;
    op.instance = id;
    op.verb = verb;
    op.phase = static_cast<std::uint8_t>(phases_.size() - 1);
    op.due_ns = due_ns;
    if (verb == Verb::kObserve) op.arg = inst.issued++;
    if (verb == Verb::kPredict) op.arg = horizon > 0 ? horizon : inst.horizon;
    ++conns_[inst.conn].outstanding;
    if (capturing_) capture_.op(verb, id);
    if (verb != Verb::kHello && !inst.ready) {
      inst.deferred.push_back(op);
      return;
    }
    enqueue(op, /*on_time=*/true);
  }

  /// Sends what is queued, waits for replies until `wake_ns` at the latest
  /// (sleeping rather than spinning when that is far enough away, so the
  /// generator leaves the host's CPUs to the servers), then decodes every
  /// reply that has arrived, calling on_reply(op, now_ns) after each.
  template <typename OnReply>
  void pump(OnReply&& on_reply, std::int64_t wake_ns = 0) {
    pollfd fds[kConnections];
    for (std::size_t i = 0; i < kConnections; ++i) {
      Connection& c = conns_[i];
      flush(c);
      const short out = c.out_pos < c.out.size() ? POLLOUT : 0;
      fds[i] = pollfd{c.fd.get(), static_cast<short>(POLLIN | out), 0};
    }
    const std::int64_t wait = wake_ns - now_ns();
    int ready = 0;
    if (wait > kSpinNs) {
      const timespec timeout{static_cast<time_t>(wait / 1'000'000'000),
                             static_cast<long>(wait % 1'000'000'000)};
      ready = ::ppoll(fds, kConnections, &timeout, nullptr);
    } else {
      ready = ::poll(fds, kConnections, 0);
    }
    if (ready <= 0) return;
    for (std::size_t i = 0; i < kConnections; ++i) {
      if ((fds[i].revents & ~POLLOUT) == 0) continue;
      Connection& c = conns_[i];
      const std::size_t old = c.in.size();
      c.in.resize(old + kReadChunk);
      const auto got = recv_some(
          c.fd, std::span<std::byte>(reinterpret_cast<std::byte*>(c.in.data() + old),
                                     kReadChunk));
      if (!got) throw std::runtime_error("server closed a load connection");
      c.in.resize(old + *got);
      std::size_t pos = 0;
      while (c.in.size() - pos >= kFrameHeaderBytes) {
        const std::uint32_t size =
            parse_frame_header(std::string_view(c.in.data() + pos, kFrameHeaderBytes));
        if (c.in.size() - pos < kFrameHeaderBytes + size) break;
        const std::string_view payload(c.in.data() + pos + kFrameHeaderBytes, size);
        pos += kFrameHeaderBytes + size;
        if (c.inflight.empty()) throw std::runtime_error("reply without a request");
        const Op op = c.inflight.front();
        c.inflight.pop_front();
        --c.outstanding;
        const std::int64_t now = now_ns();
        handle(op, payload, now);
        on_reply(op, now);
      }
      c.in.erase(0, pos);
    }
  }

  void pump(std::int64_t wake_ns = 0) {
    pump([](const Op&, std::int64_t) {}, wake_ns);
  }

  /// Pumps until every issued request has its reply; on_reply may issue
  /// follow-ups, which are waited for too.
  template <typename OnReply>
  void drain(OnReply&& on_reply) {
    const auto busy = [&] {
      for (const Connection& c : conns_)
        if (c.outstanding > 0) return true;
      return false;
    };
    const std::int64_t give_up = now_ns() + 30'000'000'000;
    while (busy()) {
      if (now_ns() > give_up) throw std::runtime_error("replies missing after 30 s");
      pump(on_reply, now_ns() + 1'000'000);
    }
  }

  void drain() {
    drain([](const Op&, std::int64_t) {});
  }

 private:
  Tracer* sampled(std::uint64_t request) {
    return tracer_.enabled() && request % kTraceEvery == 0 ? &tracer_ : nullptr;
  }

  void enqueue(Op op, bool on_time) {
    const Instance& inst = instances_[op.instance];
    Connection& conn = conns_[inst.conn];
    op.request = next_request_++;
    Request request;
    switch (op.verb) {
      case Verb::kHello:
        request = HelloRequest{inst.trace->features, inst.trace->start_hour};
        break;
      case Verb::kObserve:
        request = ObserveRequest{inst.server_id,
                                 inst.trace->throughput_mbps[inst.offset + op.arg]};
        break;
      case Verb::kPredict:
        request = PredictRequest{inst.server_id, op.arg};
        break;
      case Verb::kBye:
        request = ByeRequest{inst.server_id};
        break;
    }
    Tracer* tracer = sampled(op.request);
    std::string payload;
    {
      SpanScope span(tracer, "net.wire.serialize_request", op.request);
      payload = serialize_request(request);
    }
    {
      SpanScope span(tracer, "net.wire.encode_frame", op.request);
      conn.out += encode_frame(payload);
    }
    if (capturing_) capture_.request(payload);
    PhaseState& ph = phases_[op.phase];
    ++ph.phase.sent;
    if (ph.open_loop && on_time)
      ph.late_us.add(static_cast<double>(now_ns() - op.due_ns) / 1e3);
    conn.inflight.push_back(op);
  }

  void flush(Connection& c) {
    if (c.out_pos == c.out.size()) return;
    c.out_pos += send_some(
        c.fd, std::span<const std::byte>(
                  reinterpret_cast<const std::byte*>(c.out.data() + c.out_pos),
                  c.out.size() - c.out_pos));
    if (c.out_pos == c.out.size()) {
      c.out.clear();
      c.out_pos = 0;
    }
  }

  void handle(const Op& op, std::string_view payload, std::int64_t now) {
    Response response;
    try {
      SpanScope span(sampled(op.request), "net.wire.parse_response", op.request);
      response = parse_response(payload);
    } catch (const ProtocolError& e) {
      response = ErrorResponse{WireErrorCode::kInternal, e.what()};
    }
    if (capturing_) capture_.reply(payload);
    PhaseState& ph = phases_[op.phase];
    Instance& inst = instances_[op.instance];
    std::string error;
    if (const auto* err = std::get_if<ErrorResponse>(&response)) {
      error = "ERR " + std::string(wire_error_code_name(err->code)) + " " + err->message;
    }
    switch (op.verb) {
      case Verb::kHello:
        if (const auto* s = std::get_if<SessionResponse>(&response)) {
          inst.ready = true;
          inst.server_id = s->session_id;
          inst.initial = s->initial_mbps;
          inst.global = s->used_global_model;
          for (const Op& waiting : std::exchange(inst.deferred, {}))
            enqueue(waiting, /*on_time=*/false);
        } else {
          if (error.empty()) error = "HELLO answered with another reply type";
          for (const Op& waiting : std::exchange(inst.deferred, {})) {
            ++phases_[waiting.phase].phase.failed;
            --conns_[inst.conn].outstanding;
          }
        }
        break;
      case Verb::kObserve:
      case Verb::kPredict:
        if (const auto* p = std::get_if<PredictionResponse>(&response)) {
          const std::uint8_t allowed =
              inst.global ? (serve_flags::kGlobalModel | serve_flags::kDegraded) : 0;
          if ((p->flags & ~allowed) != 0)
            error = "served off the primary path, flags " + std::to_string(p->flags);
          if (op.verb == Verb::kPredict) {
            inst.horizon_pred = p->mbps;
          } else if (inst.preds.size() != op.arg) {
            error = "OBSERVE replies out of order";
          } else {
            inst.preds.push_back(p->mbps);
          }
        } else if (error.empty()) {
          error = "prediction request answered with another reply type";
        }
        if (op.verb == Verb::kObserve && inst.preds.size() == op.arg)
          inst.preds.push_back(std::nan(""));  // keep later replies aligned
        break;
      case Verb::kBye:
        if (!std::holds_alternative<OkResponse>(response) && error.empty())
          error = "BYE answered with another reply type";
        break;
    }
    if (!error.empty()) {
      ++ph.phase.failed;
      if (ph.errors.size() < 5) ph.errors.push_back(error);
      return;
    }
    ++ph.phase.ok;
    if (!ph.open_loop) return;  // closed loops report throughput (SliceMeter)
    if (op.due_ns >= ph.window_start && op.due_ns < ph.window_end) ++ph.in_window;
    const double latency_us = static_cast<double>(now - op.due_ns) / 1e3;
    if (op.verb == Verb::kObserve) ph.observe_us.add(latency_us);
    if (op.verb == Verb::kHello) ph.hello_us.add(latency_us);
    if (op.verb == Verb::kPredict) ph.predict_us.add(latency_us);
  }

  Tracer& tracer_;
  Capture& capture_;
  bool capturing_ = false;
  std::vector<Connection> conns_;
  std::deque<Instance> instances_;  ///< a deque: growing it never moves sessions
  std::vector<PhaseState> phases_;
  std::uint64_t next_request_ = 1;
};

bool same_forecast(double served, double expected) {
  return std::abs(served - expected) <= 1e-9 * std::max(1.0, std::abs(expected));
}

/// The output oracle: replays every session sequentially in-process through
/// Cs2pPredictorModel::make_session and compares each served forecast (and
/// the HELLO's initial prediction) within 1e-9. Also collects the forecast
/// error against the session's next sample. Runs on a few threads after the
/// timed phases.
void verify(const World& world, const std::deque<Instance>& instances,
            WorkloadRun& run) {
  struct Part {
    Samples err;
    std::vector<std::string> notes;
    std::uint64_t mismatches = 0;
  };
  std::vector<Part> parts(kOracleThreads);
  const auto check = [&](const Instance& inst, Part& part) {
    if (!inst.ready) return;  // the failed HELLO is already counted
    const auto fail = [&](const std::string& what) {
      ++part.mismatches;
      if (part.notes.size() < 5) part.notes.push_back(what);
    };
    const Session& trace = *inst.trace;
    auto predictor = world.model->make_session(
        SessionContext{trace.features, trace.day, trace.start_hour, nullptr});
    const double initial = predictor->predict_initial().value_or(std::nan(""));
    if (!same_forecast(inst.initial, initial))
      fail("HELLO initial " + std::to_string(inst.initial) + " vs " +
           std::to_string(initial));
    const std::vector<double>& samples = trace.throughput_mbps;
    for (std::size_t k = 0; k < inst.preds.size(); ++k) {
      predictor->observe(samples[inst.offset + k]);
      const double expected = predictor->predict(1);
      if (std::isnan(inst.preds[k])) continue;  // failed reply, counted already
      if (!same_forecast(inst.preds[k], expected))
        fail("OBSERVE forecast " + std::to_string(inst.preds[k]) + " vs " +
             std::to_string(expected));
      const std::size_t next = inst.offset + k + 1;
      if (next < samples.size() && samples[next] > 0.0)
        part.err.add(std::abs(inst.preds[k] - samples[next]) / samples[next]);
    }
    if (inst.horizon > 0 && !std::isnan(inst.horizon_pred)) {
      const double expected = predictor->predict(inst.horizon);
      if (!same_forecast(inst.horizon_pred, expected))
        fail("PREDICT forecast " + std::to_string(inst.horizon_pred) + " vs " +
             std::to_string(expected));
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kOracleThreads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < instances.size(); i += kOracleThreads)
        check(instances[i], parts[t]);
    });
  }
  for (std::thread& th : pool) th.join();
  for (Part& part : parts) {
    run.pred_err.append(part.err);
    run.mismatches += part.mismatches;
    for (std::string& note : part.notes)
      if (run.mismatch_notes.size() < 5) run.mismatch_notes.push_back(std::move(note));
  }
}

/// Runs a closed loop until `end`, closing a meter slice every kSliceNs, then
/// lets what is in flight finish. `step` is called after every reply and must
/// start no new session once `now >= end`.
template <typename Step>
void closed_loop(Generator& gen, SliceMeter& meter, std::int64_t start, std::int64_t end,
                 Step&& step) {
  for (std::int64_t slice = start + kSliceNs; now_ns() < end;) {
    gen.pump(step, std::min(slice, end));
    if (now_ns() >= slice) {
      meter.sample();
      slice += kSliceNs;
    }
  }
  gen.drain(step);
}

/// Copies phase counts and the timed phases' samples into the run.
void collect(const Generator& gen, std::size_t open, WorkloadRun& run) {
  for (const PhaseState& ph : gen.phases()) {
    run.phases.push_back(ph.phase);
    for (const std::string& e : ph.errors) run.mismatch_notes.push_back(ph.phase.name + ": " + e);
  }
  const PhaseState& o = gen.phases()[open];
  run.observe_us = o.observe_us;
  run.hello_us = o.hello_us;
  run.predict_us = o.predict_us;
  run.late_us = o.late_us;
  run.goodput_rps = o.goodput();
}

std::vector<const Session*> sessions_with(const Dataset& data, std::size_t min_len) {
  std::vector<const Session*> out;
  for (const Session& s : data.sessions())
    if (s.throughput_mbps.size() >= min_len) out.push_back(&s);
  if (out.empty()) throw std::runtime_error("no test-day session is long enough");
  return out;
}

}  // namespace

WorkloadRun run_stream(const World& world, const ServerGroup& group,
                       const RunOptions& options, Capture& capture) {
  WorkloadRun run;
  run.tracer = Tracer(options.trace, 0, kKeepSpans);
  Generator gen(group.ports(), run.tracer, capture);
  Rng rng(options.seed ^ 0x73747265616dULL);
  const std::vector<const Session*> traces = sessions_with(world.test, 2);

  // Slot s holds one live session on connection s % 4; when its trace runs
  // out the session says BYE and a fresh HELLO takes the slot. The live set
  // starts mid-trace so replacements are spread over the run.
  std::vector<std::uint32_t> slot(kStreamSessions);
  const auto fresh = [&](std::size_t s, bool mid_trace) {
    const Session& trace = *traces[rng.uniform_index(traces.size())];
    const auto n = static_cast<std::uint32_t>(trace.throughput_mbps.size());
    const auto offset = mid_trace ? static_cast<std::uint32_t>(rng.uniform_index(n)) : 0u;
    return gen.open_session(trace, offset, n - offset, 0, s % kConnections);
  };
  const auto arrival = [&](std::size_t s, std::int64_t due) {
    if (gen.has_next_observe(slot[s])) {
      gen.submit(slot[s], Verb::kObserve, due);
      return;
    }
    gen.submit(slot[s], Verb::kBye, due);
    slot[s] = fresh(s, false);
    gen.submit(slot[s], Verb::kHello, due);
  };

  gen.begin_phase("ramp", false);
  for (std::size_t s = 0; s < kStreamSessions; ++s) {
    slot[s] = fresh(s, true);
    gen.submit(slot[s], Verb::kHello, now_ns());
  }
  gen.drain();

  const double open_s = options.seconds * kOpenShare;
  const double closed_s = options.seconds - open_s;
  run.before = take_snapshot(group, world);

  // Open loop: Poisson arrivals at a fixed rate, each advancing one
  // uniformly chosen live session.
  const std::size_t open = gen.begin_phase(
      "open", true, static_cast<std::size_t>(1.2 * kStreamRate * open_s));
  gen.set_capture(true);
  std::int64_t start = now_ns();
  std::int64_t end = start + static_cast<std::int64_t>(open_s * 1e9);
  gen.set_window(open, start, end);
  double next = static_cast<double>(start);
  SliceMeter fixed_load(group);
  std::int64_t slice = start + kSliceNs;
  for (std::int64_t now = start; now < end; now = now_ns()) {
    while (next <= static_cast<double>(now)) {
      arrival(rng.uniform_index(kStreamSessions), static_cast<std::int64_t>(next));
      next += rng.exponential(kStreamRate) * 1e9;
    }
    gen.pump(std::min(static_cast<std::int64_t>(next), slice));
    if (now_ns() >= slice) {
      fixed_load.sample();
      slice += kSliceNs;
    }
  }
  run.cpu_us_per_reply = fixed_load.cpu_us_per_reply();
  run.utilization = take_snapshot(group, world).utilization;
  gen.drain();
  gen.set_capture(false);
  run.rss_mb = peak_rss_mb();

  // Closed loop on the same mix: every reply frees a slot in its
  // connection's window of kSaturationDepth requests.
  const std::size_t closed = gen.begin_phase("saturate", false);
  SliceMeter meter(group);
  start = now_ns();
  end = start + static_cast<std::int64_t>(closed_s * 1e9);
  gen.set_window(closed, start, end);
  const auto top_up = [&](std::size_t conn) {
    while (gen.outstanding(conn) < kSaturationDepth) {
      const std::size_t s =
          conn + kConnections * rng.uniform_index(kStreamSessions / kConnections);
      arrival(s, now_ns());
    }
  };
  for (std::size_t c = 0; c < kConnections; ++c) top_up(c);
  closed_loop(gen, meter, start, end, [&](const Op& op, std::int64_t now) {
    if (now < end) top_up(gen.instance(op.instance).conn);
  });
  run.capacity_rps = meter.cpu_capacity();
  run.capacity_wall_rps = meter.wall_rate();
  run.after = take_snapshot(group, world);

  gen.begin_phase("close", false);
  for (std::size_t s = 0; s < kStreamSessions; ++s)
    gen.submit(slot[s], Verb::kBye, now_ns());
  gen.drain();

  collect(gen, open, run);
  verify(world, gen.instances(), run);
  return run;
}

WorkloadRun run_churn(const World& world, const ServerGroup& group,
                      const RunOptions& options, Capture& capture) {
  WorkloadRun run;
  run.tracer = Tracer(options.trace, 0, kKeepSpans);
  Generator gen(group.ports(), run.tracer, capture);
  Rng rng(options.seed ^ 0x636875726e00ULL);
  const std::vector<const Session*> traces = sessions_with(world.test, 8);

  const auto new_session = [&](std::size_t conn) {
    const bool unseen = !world.unseen.empty() && rng.bernoulli(kUnseenShare);
    const Session& trace = unseen ? world.unseen[rng.uniform_index(world.unseen.size())]
                                  : *traces[rng.uniform_index(traces.size())];
    const auto n = static_cast<std::uint32_t>(std::min<std::size_t>(
        4 + rng.uniform_index(5), trace.throughput_mbps.size()));
    return gen.open_session(trace, 0, n, kChurnHorizon, conn);
  };

  run.before = take_snapshot(group, world);

  // Open loop: Poisson session arrivals; each session's requests are due
  // kChurnStepNs apart (HELLO, OBSERVEs, PREDICT, BYE).
  const double open_s = options.seconds * kOpenShare;
  const std::size_t open = gen.begin_phase(
      "open", true, static_cast<std::size_t>(1.2 * 10 * kChurnSessionRate * open_s));
  gen.set_capture(true);
  std::int64_t start = now_ns();
  std::int64_t end = start + static_cast<std::int64_t>(open_s * 1e9);
  gen.set_window(open, start, end);
  struct Due {
    std::int64_t at;
    std::uint32_t instance;
    Verb verb;
    bool operator>(const Due& other) const { return at > other.at; }
  };
  std::priority_queue<Due, std::vector<Due>, std::greater<>> schedule;
  double next = static_cast<double>(start);
  SliceMeter fixed_load(group);
  std::int64_t slice = start + kSliceNs;
  for (std::int64_t now = start; now < end || !schedule.empty(); now = now_ns()) {
    while (next <= static_cast<double>(now) && next < static_cast<double>(end)) {
      const auto t = static_cast<std::int64_t>(next);
      const std::uint32_t id = new_session(rng.uniform_index(kConnections));
      const std::uint32_t n = gen.instance(id).length;
      schedule.push({t, id, Verb::kHello});
      for (std::uint32_t k = 1; k <= n; ++k)
        schedule.push({t + k * kChurnStepNs, id, Verb::kObserve});
      schedule.push({t + (n + 1) * kChurnStepNs, id, Verb::kPredict});
      schedule.push({t + (n + 2) * kChurnStepNs, id, Verb::kBye});
      next += rng.exponential(kChurnSessionRate) * 1e9;
    }
    while (!schedule.empty() && schedule.top().at <= now) {
      gen.submit(schedule.top().instance, schedule.top().verb, schedule.top().at);
      schedule.pop();
    }
    std::int64_t wake = next < static_cast<double>(end) ? static_cast<std::int64_t>(next)
                                                         : now + 1'000'000;
    if (!schedule.empty()) wake = std::min(wake, schedule.top().at);
    if (slice <= end) wake = std::min(wake, slice);
    gen.pump(wake);
    if (slice <= end && now_ns() >= slice) {
      fixed_load.sample();
      slice += kSliceNs;
    }
  }
  run.cpu_us_per_reply = fixed_load.cpu_us_per_reply();
  run.utilization = take_snapshot(group, world).utilization;
  gen.drain();
  gen.set_capture(false);
  run.rss_mb = peak_rss_mb();

  // Closed loop: kSaturationDepth sessions per connection, each sending its
  // next request when the previous reply arrives; a finished session is
  // replaced while the window is open.
  const std::size_t closed = gen.begin_phase("saturate", false);
  SliceMeter meter(group);
  start = now_ns();
  end = start + static_cast<std::int64_t>((options.seconds - open_s) * 1e9);
  gen.set_window(closed, start, end);
  const auto begin_session = [&](std::size_t conn) {
    gen.submit(new_session(conn), Verb::kHello, now_ns());
  };
  for (std::size_t c = 0; c < kConnections; ++c)
    for (std::size_t j = 0; j < kSaturationDepth; ++j) begin_session(c);
  const auto step = [&](const Op& op, std::int64_t now) {
    const Instance& inst = gen.instance(op.instance);
    if (op.verb == Verb::kBye || !inst.ready) {
      if (now < end) begin_session(inst.conn);
    } else if (op.verb == Verb::kPredict) {
      gen.submit(op.instance, Verb::kBye, now);
    } else if (gen.has_next_observe(op.instance)) {
      gen.submit(op.instance, Verb::kObserve, now);
    } else {
      gen.submit(op.instance, Verb::kPredict, now);
    }
  };
  closed_loop(gen, meter, start, end, step);
  run.capacity_rps = meter.cpu_capacity();
  run.capacity_wall_rps = meter.wall_rate();
  run.after = take_snapshot(group, world);

  collect(gen, open, run);
  verify(world, gen.instances(), run);
  return run;
}

void saturate_pilot_mix(const World& world, const ServerGroup& group,
                        const std::vector<const Session*>& sessions,
                        const RunOptions& options, WorkloadRun& run) {
  WorkloadRun sat;
  Capture none;
  Generator gen(group.ports(), sat.tracer, none);
  Rng rng(options.seed ^ 0x7361747572617465ULL);
  const VideoSpec video;

  const std::size_t closed = gen.begin_phase("saturate", false);
  SliceMeter meter(group);
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(options.seconds * 1e9);
  gen.set_window(closed, start, end);
  const auto begin_session = [&](std::size_t conn) {
    const Session& trace = *sessions[rng.uniform_index(sessions.size())];
    const auto chunks = static_cast<std::uint32_t>(
        std::min(video.num_chunks, trace.throughput_mbps.size()));
    gen.submit(gen.open_session(trace, 0, chunks, kPilotHorizon, conn), Verb::kHello,
               now_ns());
  };
  for (std::size_t c = 0; c < kConnections; ++c)
    for (std::size_t j = 0; j < kSaturationDepth; ++j) begin_session(c);
  // Per chunk: OBSERVE, then PREDICT at horizons 2..5 (horizon 1 is the
  // OBSERVE's own forecast), as MpcController asks RemoteSessionPredictor.
  const auto step = [&](const Op& op, std::int64_t now) {
    const Instance& inst = gen.instance(op.instance);
    if (op.verb == Verb::kBye || !inst.ready) {
      if (now < end) begin_session(inst.conn);
    } else if (op.verb == Verb::kObserve) {
      gen.submit(op.instance, Verb::kPredict, now, 2);
    } else if (op.verb == Verb::kPredict && op.arg < kPilotHorizon) {
      gen.submit(op.instance, Verb::kPredict, now, op.arg + 1);
    } else if (gen.has_next_observe(op.instance)) {
      gen.submit(op.instance, Verb::kObserve, now);
    } else {
      gen.submit(op.instance, Verb::kBye, now);
    }
  };
  closed_loop(gen, meter, start, end, step);
  run.capacity_rps = meter.cpu_capacity();
  run.capacity_wall_rps = meter.wall_rate();

  verify(world, gen.instances(), sat);
  for (const PhaseState& ph : gen.phases()) {
    run.phases.push_back(ph.phase);
    for (const std::string& e : ph.errors) run.mismatch_notes.push_back(ph.phase.name + ": " + e);
  }
  run.mismatches += sat.mismatches;
  for (std::string& note : sat.mismatch_notes) run.mismatch_notes.push_back(std::move(note));
}

}  // namespace servebench
