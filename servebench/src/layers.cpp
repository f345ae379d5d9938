#include "layers.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <variant>

#include "core/engine.h"
#include "net/session_table.h"
#include "net/wire.h"

namespace servebench {

using namespace cs2p;

namespace {

/// Replays run until this much time has passed, then report the mean.
constexpr std::int64_t kReplayNs = 50'000'000;
constexpr std::size_t kEngineSessions = 2'000;
constexpr unsigned kPredictHorizon = 5;

/// Keeps replayed results observable so the compiler cannot drop the calls.
volatile std::uint64_t g_sink = 0;

/// Mean ns per call of fn(i) over i in [0, n), repeating passes until
/// kReplayNs has passed. 0 when there is nothing to replay.
template <typename Fn>
double ns_per_call(std::size_t n, Fn&& fn) {
  if (n == 0) return 0.0;
  std::uint64_t sink = 0;
  std::size_t calls = 0;
  const std::int64_t start = now_ns();
  std::int64_t elapsed = 0;
  do {
    for (std::size_t i = 0; i < n; ++i) sink += fn(i);
    calls += n;
    elapsed = now_ns() - start;
  } while (elapsed < kReplayNs);
  g_sink = g_sink + sink;
  return static_cast<double>(elapsed) / static_cast<double>(calls);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double delta(const WorkloadRun& run, const std::string& key) {
  return run.after.get(key) - run.before.get(key);
}

double mean_size(const std::vector<std::string>& payloads) {
  if (payloads.empty()) return 0.0;
  double total = 0.0;
  for (const std::string& p : payloads) total += static_cast<double>(p.size());
  return total / static_cast<double>(payloads.size());
}

/// Server-side mean request time (recv to reply flushed) in the window, us.
double request_us(const WorkloadRun& run) {
  return 1e6 * ratio(delta(run, "cs2p_server_request_seconds_sum"),
                     delta(run, "cs2p_server_request_seconds_count"));
}

}  // namespace

Snapshot take_snapshot(const ServerGroup& group, const World& world) {
  Snapshot snap;
  double utilization = 0.0;
  std::size_t workers = 0;
  for (const PredictionServer* server : group.servers()) {
    std::istringstream exposition(server->metrics().scrape());
    std::string line;
    while (std::getline(exposition, line)) {
      const std::size_t space = line.rfind(' ');
      if (line.empty() || line[0] == '#' || space == std::string::npos) continue;
      std::string key = line.substr(0, space);
      if (key.size() > 2 && key.compare(key.size() - 2, 2, "{}") == 0)
        key.resize(key.size() - 2);
      const double value = std::strtod(line.c_str() + space + 1, nullptr);
      if (key.rfind("cs2p_server_worker_utilization", 0) == 0) {
        utilization += value;
        ++workers;
      } else {
        snap.series[key] += value;
      }
    }
  }
  snap.utilization = workers > 0 ? utilization / static_cast<double>(workers) : 0.0;
  snap.server_cpu_ns = group.cpu_ns();
  snap.process_cpu_ns = process_cpu_ns();
  snap.clusters_trained = clusters_trained(world);
  return snap;
}

void SliceMeter::sample() {
  points_.push_back(Point{now_ns(), group_.replies(), group_.cpu_ns()});
}

double SliceMeter::cpu_capacity() const {
  Samples rates;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    const double replies = static_cast<double>(points_[i].replies - points_[i - 1].replies);
    const double cpu_s =
        static_cast<double>(points_[i].cpu_ns - points_[i - 1].cpu_ns) / 1e9;
    rates.add(ratio(replies, cpu_s) * static_cast<double>(group_.workers()));
  }
  return rates.quantile(0.75);
}

double SliceMeter::cpu_us_per_reply() const {
  Samples costs;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    const auto replies = static_cast<double>(points_[i].replies - points_[i - 1].replies);
    if (replies > 0)
      costs.add(static_cast<double>(points_[i].cpu_ns - points_[i - 1].cpu_ns) / 1e3 / replies);
  }
  return costs.quantile(0.25);
}

double SliceMeter::wall_rate() const {
  Samples rates;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    const double seconds =
        static_cast<double>(points_[i].at_ns - points_[i - 1].at_ns) / 1e9;
    rates.add(ratio(static_cast<double>(points_[i].replies - points_[i - 1].replies),
                    seconds));
  }
  return rates.quantile(0.75);
}

double batch_width(const WorkloadRun& run) {
  return std::max(1.0, ratio(delta(run, "cs2p_server_batch_size_sum"),
                             delta(run, "cs2p_server_batch_size_count")));
}

void report_server_layer(const WorkloadRun& run, Report& report) {
  const double replies = delta(run, "cs2p_server_replies_total");
  const double rounds = delta(run, "cs2p_server_batch_size_count");
  const double wakeups = delta(run, "cs2p_server_loop_iterations_total");
  const double predictions =
      delta(run, "cs2p_server_verb_requests_total{verb=\"observe\"}") +
      delta(run, "cs2p_server_verb_requests_total{verb=\"predict\"}");
  report.metric("net.server.batch_width",
                ratio(delta(run, "cs2p_server_batch_size_sum"), rounds), "items",
                static_cast<std::size_t>(rounds));
  report.metric("net.server.rounds_per_wakeup", ratio(rounds, wakeups), "ratio");
  report.metric("net.server.wakeups_per_reply", ratio(wakeups, replies), "ratio");
  report.metric("net.server.batched_share",
                ratio(delta(run, "cs2p_server_batched_predicts_total"), predictions),
                "ratio");
  report.metric("net.server.request_us", request_us(run), "us",
                static_cast<std::size_t>(delta(run, "cs2p_server_request_seconds_count")));
  report.metric("net.server.utilization", run.utilization, "ratio");
  report.metric("net.server.cpu_us_per_reply",
                ratio(static_cast<double>(run.after.server_cpu_ns - run.before.server_cpu_ns),
                      replies) / 1e3,
                "us");
  report.metric(
      "process.cpu_us_per_reply",
      ratio(static_cast<double>(run.after.process_cpu_ns - run.before.process_cpu_ns),
            replies) / 1e3,
      "us");
  report.metric("core.engine.lazy_trains",
                static_cast<double>(run.after.clusters_trained - run.before.clusters_trained),
                "count");
}

void report_wire_layer(const Capture& capture, Report& report) {
  const std::vector<std::string>& requests = capture.requests;
  const std::vector<std::string>& replies = capture.replies;
  std::vector<Response> responses;
  responses.reserve(replies.size());
  for (const std::string& r : replies) responses.push_back(parse_response(r));

  report.metric("net.wire.parse_request_ns", ns_per_call(requests.size(), [&](std::size_t i) {
                  return parse_request(requests[i]).index();
                }), "ns", requests.size());
  report.metric("net.wire.serialize_response_ns",
                ns_per_call(responses.size(), [&](std::size_t i) {
                  return serialize_response(responses[i]).size();
                }), "ns", responses.size());
  report.metric("net.wire.encode_frame_ns", ns_per_call(replies.size(), [&](std::size_t i) {
                  return encode_frame(replies[i]).size();
                }), "ns", replies.size());
  report.metric("net.wire.parse_response_ns", ns_per_call(replies.size(), [&](std::size_t i) {
                  return parse_response(replies[i]).index();
                }), "ns", replies.size());
  report.metric("net.wire.request_bytes",
                mean_size(requests) + static_cast<double>(kFrameHeaderBytes), "bytes");
  report.metric("net.wire.reply_bytes",
                mean_size(replies) + static_cast<double>(kFrameHeaderBytes), "bytes");
}

void report_table_layer(const Capture& capture, double width, Report& report) {
  using Verb = Capture::Verb;
  SessionTable table(SessionTableConfig{16, /*ttl_ms=*/0, 64});
  const auto make = [](std::uint64_t) { return SessionTable::Entry{}; };
  std::vector<std::uint64_t> ids(capture.sessions.size(), 0);
  // Sessions opened before the capture started form the live set the
  // captured traffic runs against; insert them untimed first.
  std::vector<bool> seen(capture.sessions.size(), false);
  for (const Capture::TableOp& op : capture.ops) {
    if (seen[op.session]) continue;
    seen[op.session] = true;
    if (op.verb != Verb::kHello) ids[op.session] = table.emplace(make);
  }
  const std::size_t live_before = table.size();

  Samples emplace_ns, erase_ns;
  double lookup_ns = 0.0;
  std::size_t lookups = 0;
  std::uint64_t sink = 0;
  const auto group_size = static_cast<std::size_t>(std::lround(width));
  std::vector<std::uint64_t> group;
  const auto flush = [&] {
    if (group.empty()) return;
    const std::int64_t start = now_ns();
    table.with_sessions(group, [&](std::span<SessionTable::Entry* const> entries) {
      for (const SessionTable::Entry* e : entries) sink += e != nullptr;
    });
    lookup_ns += static_cast<double>(now_ns() - start);
    lookups += group.size();
    group.clear();
  };
  for (const Capture::TableOp& op : capture.ops) {
    std::uint64_t& id = ids[op.session];
    if (op.verb == Verb::kHello) {
      flush();
      const std::int64_t start = now_ns();
      id = table.emplace(make);
      emplace_ns.add(static_cast<double>(now_ns() - start));
    } else if (op.verb == Verb::kBye) {
      flush();
      const std::int64_t start = now_ns();
      table.erase(id);
      erase_ns.add(static_cast<double>(now_ns() - start));
      id = 0;
    } else if (id != 0) {
      if (std::find(group.begin(), group.end(), id) != group.end()) flush();
      group.push_back(id);
      if (group.size() >= group_size) flush();
    }
  }
  flush();
  g_sink = g_sink + sink;
  report.note("net.session_table replay: " + std::to_string(capture.ops.size()) +
              " ops over a live set of " + std::to_string(live_before) +
              " sessions, lookups in groups of " + std::to_string(group_size));
  report.metric("net.session_table.emplace_ns", emplace_ns.size() ? emplace_ns.mean() : 0.0,
                "ns", emplace_ns.size());
  report.metric("net.session_table.with_sessions_ns", ratio(lookup_ns, lookups), "ns",
                lookups);
  report.metric("net.session_table.erase_ns", erase_ns.size() ? erase_ns.mean() : 0.0, "ns",
                erase_ns.size());
}

void report_engine_layer(const World& world, const Capture& capture, double width,
                         const WorkloadRun& run, Report& report) {
  const Cs2pEngine& engine = world.model->engine();
  const std::size_t n = std::min(kEngineSessions, capture.sessions.size());
  Samples model_us, make_us;
  std::vector<std::unique_ptr<SessionPredictor>> predictors;
  std::vector<const std::vector<double>*> traces;
  for (std::size_t i = 0; i < n; ++i) {
    const Session& s = *capture.sessions[i];
    std::int64_t start = now_ns();
    const SessionModelRef ref = engine.session_model(s.features, s.start_hour);
    model_us.add(static_cast<double>(now_ns() - start) / 1e3);
    g_sink = g_sink + ref.cluster_size;
    start = now_ns();
    predictors.push_back(world.model->make_session(SessionContext::from(s)));
    make_us.add(static_cast<double>(now_ns() - start) / 1e3);
    traces.push_back(&s.throughput_mbps);
  }
  report.metric("core.engine.session_model_us", n ? model_us.mean() : 0.0, "us", n);
  report.metric("core.engine.make_session_us", n ? make_us.mean() : 0.0, "us", n);

  // Rounds of `width` distinct sessions, each advancing on its own trace.
  const std::size_t w = std::min(predictors.size(),
                                 static_cast<std::size_t>(std::lround(width)));
  const std::size_t rounds = w > 0 ? predictors.size() / w : 0;
  std::vector<std::size_t> cursor(predictors.size(), 0);
  std::vector<ObserveBatchItem> observe(w);
  const double observe_ns = ns_per_call(rounds, [&](std::size_t r) {
    for (std::size_t k = 0; k < w; ++k) {
      const std::size_t s = r * w + k;
      const std::vector<double>& trace = *traces[s];
      observe[k] = ObserveBatchItem{predictors[s].get(), trace[cursor[s]++ % trace.size()]};
    }
    return Cs2pEngine::observe_batch(observe).batched;
  }) / static_cast<double>(std::max<std::size_t>(w, 1));
  std::vector<PredictBatchItem> predict(w);
  const double predict_ns = ns_per_call(rounds, [&](std::size_t r) {
    for (std::size_t k = 0; k < w; ++k)
      predict[k] = PredictBatchItem{predictors[r * w + k].get(), kPredictHorizon};
    return Cs2pEngine::predict_batch(predict).batched;
  }) / static_cast<double>(std::max<std::size_t>(w, 1));
  report.metric("core.engine.observe_batch_ns", observe_ns, "ns");
  report.metric("core.engine.predict_batch_ns", predict_ns, "ns");

  // Kernel time per served prediction against the server's time per request.
  const double observes = delta(run, "cs2p_server_verb_requests_total{verb=\"observe\"}");
  const double predicts = delta(run, "cs2p_server_verb_requests_total{verb=\"predict\"}");
  const double server_ns = 1e9 * delta(run, "cs2p_server_request_seconds_sum");
  report.metric("core.engine.batch_kernel_share",
                ratio(observe_ns * observes + predict_ns * predicts, server_ns), "ratio");
}

void report_client_layer(const WorkloadRun& pilot, Report& report) {
  const double server_us = request_us(pilot);
  Samples calls = pilot.observe_us;
  calls.append(pilot.predict_us);
  report.metric("net.replica_set.observe_us", pilot.observe_us.mean(), "us",
                pilot.observe_us.size());
  report.metric("net.replica_set.predict_us", pilot.predict_us.mean(), "us",
                pilot.predict_us.size());
  report.metric("net.replica_set.wait_us", calls.mean() - server_us, "us", calls.size());
  report.metric("net.replica_set.failovers", static_cast<double>(pilot.failovers), "count");
  report.metric("net.client.reconnects", static_cast<double>(pilot.reconnects), "count");
  const Tracer::Totals mpc = pilot.tracer.layer("abr.mpc.select_bitrate");
  report.metric("abr.mpc.compute_us",
                mpc.count > 0 ? static_cast<double>(mpc.self_ns) / 1e3 /
                                    static_cast<double>(mpc.count)
                              : 0.0,
                "us", mpc.count);
}

}  // namespace servebench
