// mpc-pilot: the paper's pilot deployment (§7.5) as a closed loop. Player
// threads stream test-day sessions with simulate_playback, MpcController at
// horizon 5 and RemoteSessionPredictor, all sharing one ReplicaSet. Every
// chunk costs one OBSERVE plus four PREDICT round trips.
//
// The benchmark times its own calls into the layers: a SessionClient
// decorator around the ReplicaSet (hello/observe/predict/bye) and an
// AbrController decorator around MpcController::select_bitrate. A chunk
// decision is one OBSERVE plus the following select_bitrate — what the
// player waits for before it requests the next chunk.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <stdexcept>
#include <thread>
#include <type_traits>

#include "abr/mpc.h"
#include "net/client.h"
#include "net/replica_set.h"
#include "net/wire.h"
#include "qoe/qoe.h"
#include "sim/player.h"
#include "util/rng.h"
#include "workload.h"

namespace servebench {

using namespace cs2p;

namespace {

constexpr std::size_t kKeepSpans = 200'000;
constexpr std::size_t kCallsKept = 20'000;  ///< per player, for the wire replay

/// One recorded client call, turned into wire payloads after the run.
struct Call {
  Capture::Verb verb = Capture::Verb::kHello;
  std::uint32_t session = 0;  ///< index into Player::played
  std::uint64_t id = 0;
  double value = 0.0;
  unsigned steps = 0;
  SessionResponse hello;
  PredictionResponse prediction;
};

/// Everything one player thread measures.
struct Player {
  Tracer tracer;
  Samples decision_us, observe_us, predict_us, hello_us;
  Samples pred_err;
  std::uint64_t calls = 0, failed = 0, chunks = 0;
  std::vector<const Session*> played;  ///< one entry per playback
  std::vector<Call> log;
  std::map<const Session*, double> qoe;  ///< first playback of each session
  std::vector<std::string> notes;
  std::uint64_t problems = 0;  ///< wrong outputs (failed calls are counted apart)
  std::uint64_t request = 0;  ///< span request id: one per chunk decision
  std::int64_t decision_start = -1;
  int decision_span = -1;

  void note(const std::string& what) {
    if (notes.size() < 5) notes.push_back(what);
  }
  void problem(const std::string& what) {
    ++problems;
    note(what);
  }
};

/// SessionClient decorator: times and spans every call into the ReplicaSet.
class TimedClient final : public SessionClient {
 public:
  TimedClient(SessionClient& inner, Player& player) : inner_(inner), p_(player) {}

  SessionResponse hello(const SessionFeatures& features, double start_hour) override {
    return timed("net.replica_set.hello", p_.hello_us, [&] {
      SessionResponse r = inner_.hello(features, start_hour);
      record(Call{Capture::Verb::kHello, current(), r.session_id, start_hour, 0, r, {}});
      return r;
    });
  }

  PredictionResponse observe_response(std::uint64_t id, double mbps) override {
    // A chunk decision starts with the OBSERVE of the chunk just downloaded.
    p_.decision_start = now_ns();
    p_.decision_span = p_.tracer.begin("player.decision", ++p_.request);
    return timed("net.replica_set.observe", p_.observe_us, [&] {
      PredictionResponse r = inner_.observe_response(id, mbps);
      record(Call{Capture::Verb::kObserve, current(), id, mbps, 0, {}, r});
      return r;
    });
  }

  PredictionResponse predict_response(std::uint64_t id, unsigned steps) override {
    return timed("net.replica_set.predict", p_.predict_us, [&] {
      PredictionResponse r = inner_.predict_response(id, steps);
      record(Call{Capture::Verb::kPredict, current(), id, 0.0, steps, {}, r});
      return r;
    });
  }

  void bye(std::uint64_t id) override {
    Samples unused;
    timed("net.replica_set.bye", unused, [&] {
      inner_.bye(id);
      record(Call{Capture::Verb::kBye, current(), id, 0.0, 0, {}, {}});
      return 0;
    });
  }

 private:
  std::uint32_t current() const { return static_cast<std::uint32_t>(p_.played.size() - 1); }

  void record(const Call& call) {
    if (p_.log.size() < kCallsKept) p_.log.push_back(call);
  }

  template <typename Fn>
  std::invoke_result_t<Fn> timed(const char* layer, Samples& samples, Fn&& fn) {
    ++p_.calls;
    const std::int64_t start = now_ns();
    SpanScope span(&p_.tracer, layer, p_.request);
    try {
      auto result = fn();
      samples.add(static_cast<double>(now_ns() - start) / 1e3);
      return result;
    } catch (const std::exception& e) {
      ++p_.failed;
      p_.note(std::string(layer) + ": " + e.what());
      throw;
    }
  }

  SessionClient& inner_;
  Player& p_;
};

/// AbrController decorator: spans select_bitrate and closes the decision
/// the preceding OBSERVE opened.
class TimedController final : public AbrController {
 public:
  TimedController(AbrController& inner, Player& player) : inner_(inner), p_(player) {}

  std::string name() const override { return inner_.name(); }
  void reset() override { inner_.reset(); }

  std::size_t select_bitrate(const AbrState& state, const VideoSpec& video) override {
    std::size_t choice = 0;
    {
      SpanScope span(&p_.tracer, "abr.mpc.select_bitrate", p_.request);
      choice = inner_.select_bitrate(state, video);
    }
    if (p_.decision_start >= 0) {
      p_.decision_us.add(static_cast<double>(now_ns() - p_.decision_start) / 1e3);
      close_decision(p_);
    }
    return choice;
  }

  static void close_decision(Player& p) {
    p.tracer.end(p.decision_span);
    p.decision_span = -1;
    p.decision_start = -1;
  }

 private:
  AbrController& inner_;
  Player& p_;
};

double session_qoe(const PlaybackResult& result) { return compute_qoe(result).total; }

void play(const std::vector<const Session*>& list, SessionClient& set, Player& p,
          std::int64_t deadline, bool one_pass) {
  TimedClient client(set, p);
  const VideoSpec video;
  if (list.empty()) return;
  for (std::size_t i = 0;; ++i) {
    if (one_pass ? i == list.size() : now_ns() >= deadline) break;
    const Session& session = *list[i % list.size()];
    p.played.push_back(&session);
    MpcController mpc;  // default: horizon 5
    TimedController controller(mpc, p);
    auto remote =
        std::make_unique<RemoteSessionPredictor>(client, session.features, session.start_hour);
    const PlaybackResult result = simulate_playback(
        video, ThroughputTrace(session.throughput_mbps), controller, remote.get());
    if (p.decision_span >= 0 || p.decision_start >= 0) TimedController::close_decision(p);
    p.chunks += result.chunks.size();
    if (remote->degraded() || remote->fallback_predictions() > 0 ||
        result.degraded_chunks > 0)
      p.problem("session played on a degraded or fallback prediction");
    const double qoe = session_qoe(result);
    const auto [it, first] = p.qoe.emplace(&session, qoe);
    if (first) {
      for (std::size_t k = 1; k < result.chunks.size(); ++k) {
        const ChunkRecord& c = result.chunks[k];
        if (c.actual_throughput_mbps > 0.0)
          p.pred_err.add(std::abs(c.predicted_throughput_mbps - c.actual_throughput_mbps) /
                         c.actual_throughput_mbps);
      }
    } else if (it->second != qoe) {
      p.problem("replayed session changed QoE");
    }
    remote.reset();  // BYE
  }
}

void to_capture(const std::vector<Player>& players, Capture& capture) {
  for (const Player& p : players) {
    const auto base = static_cast<std::uint32_t>(capture.sessions.size());
    capture.sessions.insert(capture.sessions.end(), p.played.begin(), p.played.end());
    for (const Call& call : p.log) {
      capture.op(call.verb, base + call.session);
      Request request;
      Response response;
      switch (call.verb) {
        case Capture::Verb::kHello:
          request = HelloRequest{p.played[call.session]->features, call.value};
          response = call.hello;
          break;
        case Capture::Verb::kObserve:
          request = ObserveRequest{call.id, call.value};
          response = call.prediction;
          break;
        case Capture::Verb::kPredict:
          request = PredictRequest{call.id, call.steps};
          response = call.prediction;
          break;
        case Capture::Verb::kBye:
          request = ByeRequest{call.id};
          response = OkResponse{};
          break;
      }
      if (!capture.wants_payload()) continue;
      capture.request(serialize_request(request));
      capture.reply(serialize_response(response));
    }
  }
}

}  // namespace

std::vector<const Session*> pilot_sessions(const World& world, std::uint64_t seed,
                                           std::size_t count) {
  const VideoSpec video;
  std::vector<const Session*> eligible;
  for (const Session& s : world.test.sessions()) {
    if (s.throughput_mbps.size() < video.num_chunks) continue;
    if (s.average_throughput() < 0.45) continue;  // below the lowest rung
    if (world.model->engine().session_model(s.features, s.start_hour).used_global_model)
      continue;
    eligible.push_back(&s);
  }
  Rng rng(seed ^ 0x70696c6f74ULL);
  for (std::size_t i = eligible.size(); i > 1; --i)
    std::swap(eligible[i - 1], eligible[rng.uniform_index(i)]);
  if (eligible.size() > count) eligible.resize(count);
  if (eligible.empty()) throw std::runtime_error("no test-day session fits the pilot");
  return eligible;
}

WorkloadRun run_pilot(const World& world, const ServerGroup& group,
                      const std::vector<const Session*>& sessions,
                      const RunOptions& options, bool one_pass, Capture& capture) {
  WorkloadRun run;
  const std::size_t threads = std::max<std::size_t>(1, options.generator_cpus.size());
  ReplicaSet set(group.ports());
  std::vector<Player> players(threads);
  std::vector<std::vector<const Session*>> lists(threads);
  for (std::size_t i = 0; i < sessions.size(); ++i)
    lists[i % threads].push_back(sessions[i]);
  for (std::size_t t = 0; t < threads; ++t)
    players[t].tracer = Tracer(options.trace, static_cast<std::uint32_t>(t + 1), kKeepSpans);

  run.before = take_snapshot(group, world);
  run.rss_mb = peak_rss_mb();
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(options.seconds * 1e9);
  SliceMeter meter(group);
  std::atomic<std::size_t> playing{threads};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      if (t < options.generator_cpus.size()) pin_thread(0, {options.generator_cpus[t]});
      try {
        play(lists[t], set, players[t], deadline, one_pass);
      } catch (const std::exception& e) {
        players[t].problem(std::string("player stopped: ") + e.what());
      }
      --playing;
    });
  }
  while (playing.load() > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(kSliceNs));
    meter.sample();
  }
  for (std::thread& th : pool) th.join();
  const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
  run.after = take_snapshot(group, world);
  run.utilization = run.after.utilization;

  Phase phase{"pilot", 0, 0, 0, elapsed};
  for (Player& p : players) {
    phase.sent += p.calls;
    phase.failed += p.failed;
    run.decision_us.append(p.decision_us);
    run.observe_us.append(p.observe_us);
    run.predict_us.append(p.predict_us);
    run.hello_us.append(p.hello_us);
    run.pred_err.append(p.pred_err);
    run.chunks_per_s += static_cast<double>(p.chunks) / elapsed;
    run.tracer.merge(p.tracer);
    for (const std::string& s : p.notes) run.mismatch_notes.push_back(s);
    run.mismatches += p.problems;
  }
  phase.ok = phase.sent - phase.failed;
  run.goodput_rps = static_cast<double>(phase.ok) / elapsed;
  run.cpu_us_per_reply = meter.cpu_us_per_reply();
  run.phases.push_back(phase);

  // Oracle: no failover, and each session's QoE equals an in-process replay
  // through make_session (forecasts cross the wire exactly, so decisions and
  // QoE must match).
  run.failovers = set.failovers() + set.planned_migrations();
  for (std::size_t i = 0; i < set.replica_count(); ++i)
    run.reconnects += set.replica_client(i).reconnects();
  if (run.failovers > 0) run.mismatch("sessions failed over between replicas");
  double qoe_sum = 0.0;
  const VideoSpec video;
  for (const Player& p : players) {
    for (const auto& [session, qoe] : p.qoe) {
      MpcController mpc;
      auto local = world.model->make_session(SessionContext::from(*session));
      const double expected = session_qoe(simulate_playback(
          video, ThroughputTrace(session->throughput_mbps), mpc, local.get()));
      if (std::abs(qoe - expected) > 1e-9 * std::max(1.0, std::abs(expected)))
        run.mismatch("pilot QoE " + std::to_string(qoe) + " vs in-process " +
                      std::to_string(expected));
      qoe_sum += qoe;
      ++run.qoe_sessions;
    }
  }
  run.qoe_mean = run.qoe_sessions > 0 ? qoe_sum / static_cast<double>(run.qoe_sessions) : 0.0;
  to_capture(players, capture);
  return run;
}

}  // namespace servebench
