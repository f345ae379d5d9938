// §7.5 — pilot deployment: CS2P + MPC vs HM + MPC through the real
// prediction service.
//
// Unlike the other benches (which call the engine in-process), this one
// replays the player against a live PredictionServer over loopback TCP —
// one HELLO per session, one OBSERVE round trip per chunk — mirroring the
// paper's dash.js + Node.js pilot. Paper results: "+3.2% on overall QoE and
// +10.9% higher average bitrate compared with the state-of-art HM + MPC
// strategy", and the engine "can accurately predict the total rebuffering
// time at the beginning of the session".

#include <cstdio>
#include <memory>
#include <vector>

#include "abr/evaluation.h"
#include "abr/mpc.h"
#include "bench/common.h"
#include "core/engine.h"
#include "hmm/online_filter.h"
#include "net/client.h"
#include "net/replica_set.h"
#include "net/server.h"
#include "predictors/history.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace cs2p;

/// PredictorModel adapter that obtains per-session predictors from a remote
/// PredictionServer (the player side of §6).
class RemotePredictorModel final : public PredictorModel {
 public:
  explicit RemotePredictorModel(SessionClient& client) : client_(&client) {}
  std::string name() const override { return "Remote-CS2P"; }
  std::unique_ptr<SessionPredictor> make_session(
      const SessionContext& context) const override {
    return std::make_unique<RemoteSessionPredictor>(*client_, context.features,
                                                    context.start_hour);
  }

 private:
  SessionClient* client_;
};

}  // namespace

int main() {
  using namespace cs2p;
  auto [train, test] = bench::standard_dataset();

  // Server side: a trained CS2P engine behind the TCP service.
  auto cs2p = std::make_shared<Cs2pPredictorModel>(train);
  PredictionServer server(cs2p);
  ReplicaSet client(std::vector<std::uint16_t>{server.port()});
  RemotePredictorModel remote(client);
  const HarmonicMeanModel hm;

  AbrEvaluationOptions options;
  options.max_sessions = 120;
  options.min_trace_epochs = options.video.num_chunks;

  MpcConfig mpc_config;
  mpc_config.robust = true;
  const auto mpc = [&] { return std::make_unique<MpcController>(mpc_config); };

  std::printf("Pilot deployment (§7.5): player vs live TCP prediction service\n\n");
  const AbrEvaluation hm_eval = evaluate_abr("HM + MPC", &hm, mpc, test, options);
  const AbrEvaluation cs2p_eval =
      evaluate_abr("CS2P + MPC (remote)", &remote, mpc, test, options);

  TextTable table({"strategy", "median n-QoE", "avg kbps", "GoodRatio", "rebuf s"});
  for (const auto* eval : {&hm_eval, &cs2p_eval}) {
    table.add_row({eval->label, format_double(eval->median_n_qoe, 3),
                   format_double(eval->avg_bitrate_kbps, 0),
                   format_double(eval->good_ratio, 3),
                   format_double(eval->mean_rebuffer_seconds, 2)});
  }
  std::fputs(table.to_string().c_str(), stdout);
  const double qoe_gain =
      hm_eval.median_n_qoe > 0.0
          ? 100.0 * (cs2p_eval.median_n_qoe - hm_eval.median_n_qoe) / hm_eval.median_n_qoe
          : 0.0;
  const double bitrate_gain =
      hm_eval.avg_bitrate_kbps > 0.0
          ? 100.0 * (cs2p_eval.avg_bitrate_kbps - hm_eval.avg_bitrate_kbps) /
                hm_eval.avg_bitrate_kbps
          : 0.0;
  std::printf("\nCS2P+MPC vs HM+MPC: %+.1f%% median QoE, %+.1f%% avg bitrate "
              "(paper: +3.2%% QoE, +10.9%% bitrate)\n",
              qoe_gain, bitrate_gain);
  std::printf("requests served over TCP: %llu\n",
              static_cast<unsigned long long>(server.requests_handled()));

  // Rebuffer-time prediction at session start: forecast the whole-session
  // throughput trajectory from the cluster HMM (multi-step-ahead from the
  // initial belief), simulate the playback against that forecast, and
  // compare predicted vs realized total rebuffering.
  const Cs2pEngine& engine = cs2p->engine();
  std::vector<double> predicted_rebuf, actual_rebuf;
  std::size_t n = 0;
  for (const auto& session : test.sessions()) {
    if (session.throughput_mbps.size() < options.video.num_chunks) continue;
    if (session.average_throughput() < options.min_avg_throughput_mbps) continue;
    if (++n > 60) break;

    const SessionModelRef ref =
        engine.session_model(session.features, session.start_hour);
    OnlineHmmFilter filter(ref.kernel);
    std::vector<double> forecast(options.video.num_chunks);
    forecast[0] = ref.initial_prediction;
    for (std::size_t h = 1; h < forecast.size(); ++h)
      forecast[h] = filter.predict(static_cast<unsigned>(h));

    MpcController controller(mpc_config);
    // Predicted playback: run against the forecast trace with an oracle of
    // that same forecast.
    struct ForecastOracle final : SessionPredictor {
      explicit ForecastOracle(const std::vector<double>& f) : f_(f) {}
      std::optional<double> predict_initial() const override { return f_[0]; }
      double predict(unsigned steps) const override {
        return f_[std::min(pos_ + steps - 1, f_.size() - 1)];
      }
      void observe(double) override { ++pos_; }
      const std::vector<double>& f_;
      std::size_t pos_ = 0;
    } forecast_oracle(forecast);

    const PlaybackResult predicted = simulate_playback(
        options.video, ThroughputTrace(forecast), controller, &forecast_oracle);

    MpcController controller2(mpc_config);
    auto live = cs2p->make_session(SessionContext::from(session));
    const PlaybackResult realized =
        simulate_playback(options.video, ThroughputTrace(session.throughput_mbps),
                          controller2, live.get());

    predicted_rebuf.push_back(compute_qoe(predicted).rebuffer_seconds);
    actual_rebuf.push_back(compute_qoe(realized).rebuffer_seconds);
  }
  std::vector<double> abs_gap;
  for (std::size_t i = 0; i < predicted_rebuf.size(); ++i)
    abs_gap.push_back(std::abs(predicted_rebuf[i] - actual_rebuf[i]));
  std::printf("\nrebuffer-time prediction at session start (n=%zu): median "
              "|predicted - actual| = %.2f s (actual median %.2f s, "
              "correlation %.2f)\n",
              predicted_rebuf.size(), median(abs_gap), median(actual_rebuf),
              correlation(predicted_rebuf, actual_rebuf));

  // QoE under failure: kill the prediction service a third of the way into a
  // session and let RemoteSessionPredictor degrade to its local
  // harmonic-mean fallback. The stream must finish and still be scoreable.
  // Pick a session with headroom above the lowest rung so the number shows
  // the cost of degradation rather than a trace nobody could stream.
  const Session* victim = nullptr;
  for (const auto& session : test.sessions()) {
    if (session.throughput_mbps.size() < options.video.num_chunks) continue;
    if (session.average_throughput() < 1.5) continue;
    victim = &session;
    break;
  }
  if (victim != nullptr) {
    auto doomed_server = std::make_unique<PredictionServer>(cs2p);
    ReplicaSetConfig degraded_config;
    degraded_config.client.recv_timeout_ms = 500;
    degraded_config.client.send_timeout_ms = 500;
    degraded_config.client.max_retries = 1;
    degraded_config.client.backoff_initial_ms = 2;
    ReplicaSet doomed_client(std::vector<std::uint16_t>{doomed_server->port()},
                             degraded_config);
    RemoteSessionPredictor remote_session(doomed_client, victim->features,
                                          victim->start_hour);

    /// Stops the server after a third of the chunks have been observed.
    struct KillServerAt final : SessionPredictor {
      KillServerAt(RemoteSessionPredictor& inner, PredictionServer& server,
                   std::size_t kill_after)
          : inner(&inner), server(&server), kill_after(kill_after) {}
      std::optional<double> predict_initial() const override {
        return inner->predict_initial();
      }
      double predict(unsigned steps) const override { return inner->predict(steps); }
      void observe(double w) override {
        if (++observed == kill_after) server->stop();
        inner->observe(w);
      }
      std::uint8_t serve_flags() const override { return inner->serve_flags(); }
      RemoteSessionPredictor* inner;
      PredictionServer* server;
      std::size_t kill_after;
      std::size_t observed = 0;
    } killer(remote_session, *doomed_server, options.video.num_chunks / 3);

    MpcController degraded_controller(mpc_config);
    const PlaybackResult degraded_run =
        simulate_playback(options.video, ThroughputTrace(victim->throughput_mbps),
                          degraded_controller, &killer);
    const QoeBreakdown degraded_qoe = compute_qoe(degraded_run);

    // Same session with the service healthy, for contrast.
    MpcController healthy_controller(mpc_config);
    auto healthy_session = cs2p->make_session(SessionContext::from(*victim));
    const PlaybackResult healthy_run =
        simulate_playback(options.video, ThroughputTrace(victim->throughput_mbps),
                          healthy_controller, healthy_session.get());
    const QoeBreakdown healthy_qoe = compute_qoe(healthy_run);

    std::printf("\nQoE under failure (server killed at chunk %zu/%zu): "
                "degraded=%s, QoE %.0f, avg %.0f kbps, rebuf %.2f s, "
                "%llu fallback forecasts\n",
                options.video.num_chunks / 3, options.video.num_chunks,
                remote_session.degraded() ? "yes" : "no",
                degraded_qoe.total, degraded_qoe.avg_bitrate_kbps,
                degraded_qoe.rebuffer_seconds,
                static_cast<unsigned long long>(
                    remote_session.fallback_predictions()));
    std::printf("same session, service healthy:                    "
                "QoE %.0f, avg %.0f kbps, rebuf %.2f s\n",
                healthy_qoe.total, healthy_qoe.avg_bitrate_kbps,
                healthy_qoe.rebuffer_seconds);
    // Gate: the killed-server run must end on the local fallback.
    if (!remote_session.degraded() || remote_session.fallback_predictions() == 0) {
      std::printf("FAIL: killed-server run did not end on the local fallback\n");
      return 1;
    }
  }
  return 0;
}
