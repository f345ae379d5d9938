// Prediction service demo: the server-side deployment of §6 on loopback.
//
// A PredictionServer is loaded with a trained CS2P engine; a player-side
// PredictionClient registers a session (HELLO), then alternates
// measurement reports (OBSERVE) with forecasts — one TCP round trip per
// epoch, exactly like the dash.js player POSTing to the Node.js server.

#include <chrono>
#include <cstdio>

#include "core/engine.h"
#include "dataset/synthetic.h"
#include "net/client.h"
#include "net/server.h"
#include "predictors/hmm_session.h"

int main() {
  using namespace cs2p;
  using Clock = std::chrono::steady_clock;

  SyntheticConfig config;
  config.num_sessions = 4000;
  config.seed = 5;
  Dataset dataset = generate_synthetic_dataset(config);
  auto [train, test] = dataset.split_by_day(1);

  auto model = std::make_shared<Cs2pPredictorModel>(std::move(train));
  PredictionServer server(model);
  std::printf("prediction server listening on 127.0.0.1:%u\n", server.port());

  PredictionClient client(server.port());

  const Session* target = nullptr;
  for (const auto& s : test.sessions())
    if (s.throughput_mbps.size() >= 15) {
      target = &s;
      break;
    }
  if (target == nullptr) return 1;

  const auto hello_start = Clock::now();
  const SessionResponse session =
      client.hello(target->features, target->start_hour);
  const auto hello_us = std::chrono::duration_cast<std::chrono::microseconds>(
                            Clock::now() - hello_start)
                            .count();
  std::printf("HELLO -> session %llu, initial %.2f Mbps (%lld us round trip)\n",
              static_cast<unsigned long long>(session.session_id),
              session.initial_mbps, static_cast<long long>(hello_us));

  double total_us = 0.0;
  for (std::size_t t = 0; t < 10; ++t) {
    const double measured = target->throughput_mbps[t];
    const auto start = Clock::now();
    const double forecast = client.observe(session.session_id, measured);
    const auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start)
            .count();
    total_us += static_cast<double>(us);
    std::printf("epoch %zu: measured %.2f -> next-epoch forecast %.2f  (%lld us)\n",
                t, measured, forecast, static_cast<long long>(us));
  }
  std::printf("mean OBSERVE round trip: %.0f us (paper reports ~5 ms incl. HTTP)\n",
              total_us / 10.0);

  const double ahead = client.predict(session.session_id, 5);
  std::printf("5-epoch-ahead forecast: %.2f Mbps\n", ahead);
  client.bye(session.session_id);

  // Client-side mode (paper SS5.3): download the compact model once and run
  // it locally -- zero round trips per epoch afterwards.
  const DownloadableModel downloaded =
      client.download_model(target->features, target->start_hour);
  std::printf("\nclient-side mode: downloaded %zu-state model (%zu bytes, "
              "global=%d)\n",
              downloaded.hmm.num_states(), downloaded.hmm.byte_size(),
              downloaded.used_global_model ? 1 : 0);
  HmmSessionPredictor local(HmmKernel::create(downloaded.hmm),
                            downloaded.initial_mbps);
  for (std::size_t t = 0; t < 3; ++t) {
    local.observe(target->throughput_mbps[t]);
    std::printf("  local epoch %zu: forecast %.2f Mbps (no network)\n", t,
                local.predict(1));
  }
  std::printf("served %llu requests total\n",
              static_cast<unsigned long long>(server.requests_handled()));
  return 0;
}
