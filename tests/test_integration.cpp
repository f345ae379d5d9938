// End-to-end integration tests: generate -> train -> predict -> adapt,
// asserting the paper's qualitative results hold on a small world.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "abr/controllers.h"
#include "abr/evaluation.h"
#include "abr/mpc.h"
#include "core/engine.h"
#include "dataset/synthetic.h"
#include "predictors/evaluation.h"
#include "predictors/history.h"
#include "predictors/simple_cross.h"
#include "net/client.h"
#include "net/server.h"
#include "predictors/hmm_session.h"
#include "predictors/oracle.h"

namespace cs2p {
namespace {

/// One shared small world for the whole suite (built once: training the
/// engine is the expensive part).
struct World {
  World() {
    SyntheticConfig config;
    config.num_isps = 4;
    config.num_provinces = 4;
    config.cities_per_province = 2;
    config.num_servers = 6;
    config.servers_per_province = 2;
    config.prefixes_per_isp_city = 1;
    config.num_sessions = 6000;
    config.seed = 1234;
    Dataset dataset = generate_synthetic_dataset(config);
    auto [tr, te] = dataset.split_by_day(1);
    train = std::move(tr);
    test = std::move(te);

    Cs2pConfig engine_config;
    engine_config.hmm.max_iterations = 25;
    cs2p = std::make_unique<Cs2pPredictorModel>(train, engine_config);
    hm = std::make_unique<HarmonicMeanModel>();
  }
  Dataset train, test;
  std::unique_ptr<Cs2pPredictorModel> cs2p;
  std::unique_ptr<HarmonicMeanModel> hm;
};

World& world() {
  static World instance;
  return instance;
}

TEST(Integration, Cs2pBeatsHarmonicMeanMidstream) {
  EvaluationOptions options;
  options.max_sessions = 400;
  const auto cs2p_eval = evaluate_predictor(*world().cs2p, world().test, options);
  const auto hm_eval = evaluate_predictor(*world().hm, world().test, options);
  EXPECT_LT(cs2p_eval.midstream_summary.median_of_medians,
            hm_eval.midstream_summary.median_of_medians);
}

TEST(Integration, Cs2pInitialBeatsGlobalMedian) {
  EvaluationOptions options;
  options.max_sessions = 400;
  const GlobalMedianModel global(world().train);
  const auto cs2p_eval = evaluate_predictor(*world().cs2p, world().test, options);
  const auto global_eval = evaluate_predictor(global, world().test, options);
  EXPECT_LT(cs2p_eval.initial_median_error, global_eval.initial_median_error);
}

TEST(Integration, MostSessionsGetClusterModels) {
  const EngineStats stats = world().cs2p->engine().stats();
  ASSERT_GT(stats.sessions_served, 0u);
  const double fallback_rate =
      static_cast<double>(stats.global_fallbacks) /
      static_cast<double>(stats.sessions_served);
  EXPECT_LT(fallback_rate, 0.35);  // paper: ~4% on a vastly larger dataset
}

TEST(Integration, OracleMpcUpperBoundsCs2pMpc) {
  AbrEvaluationOptions options;
  options.max_sessions = 40;
  options.min_trace_epochs = options.video.num_chunks;

  MpcConfig mpc_config;
  mpc_config.robust = true;
  const auto mpc = [&] { return std::make_unique<MpcController>(mpc_config); };

  const OracleModel oracle;
  AbrEvaluationOptions oracle_options = options;
  oracle_options.provide_oracle = true;
  const auto oracle_eval =
      evaluate_abr("oracle", &oracle, mpc, world().test, oracle_options);
  const auto cs2p_eval =
      evaluate_abr("cs2p", world().cs2p.get(), mpc, world().test, options);
  EXPECT_GE(oracle_eval.median_n_qoe + 0.02, cs2p_eval.median_n_qoe);
  EXPECT_GT(oracle_eval.median_n_qoe, 0.85);  // near-optimal with truth
}

TEST(Integration, Cs2pMpcBeatsPredictionFreeBaselines) {
  AbrEvaluationOptions options;
  options.max_sessions = 60;
  options.min_trace_epochs = options.video.num_chunks;

  MpcConfig mpc_config;
  mpc_config.robust = true;
  const auto mpc = [&] { return std::make_unique<MpcController>(mpc_config); };
  const auto bb = [] { return std::make_unique<BufferBasedController>(); };

  const auto cs2p_eval =
      evaluate_abr("cs2p", world().cs2p.get(), mpc, world().test, options);
  const auto bb_eval = evaluate_abr("bb", nullptr, bb, world().test, options);
  EXPECT_GT(cs2p_eval.median_n_qoe, bb_eval.median_n_qoe);
}

TEST(Integration, DatasetRoundTripPreservesEvaluation) {
  // Save/load the test set and verify a predictor scores identically.
  const std::string path = ::testing::TempDir() + "/cs2p_roundtrip.csv";
  Dataset subset;
  for (std::size_t i = 0; i < 50 && i < world().test.size(); ++i)
    subset.add(world().test.sessions()[i]);
  subset.save_csv(path);
  const Dataset loaded = Dataset::load_csv(path);

  EvaluationOptions options;
  const auto a = evaluate_predictor(*world().hm, subset, options);
  const auto b = evaluate_predictor(*world().hm, loaded, options);
  EXPECT_DOUBLE_EQ(a.midstream_summary.median_of_medians,
                   b.midstream_summary.median_of_medians);
  std::remove(path.c_str());
}

TEST(Integration, ClientSideModelMatchesServerSide) {
  // §5.3 decentralized mode: a client that downloads the compact model and
  // runs it locally must produce exactly the predictions the server-side
  // session would.
  PredictionServer server(
      std::shared_ptr<const PredictorModel>(world().cs2p.get(),
                                            [](const PredictorModel*) {}));
  PredictionClient client(server.port());

  const Session& probe = world().test.sessions()[0];
  const DownloadableModel downloaded =
      client.download_model(probe.features, probe.start_hour);
  EXPECT_LT(downloaded.hmm.byte_size(), 5u * 1024u);  // §5.3 footprint
  HmmSessionPredictor local(HmmKernel::create(downloaded.hmm),
                            downloaded.initial_mbps);

  const SessionResponse remote = client.hello(probe.features, probe.start_hour);
  EXPECT_DOUBLE_EQ(local.predict_initial().value(), remote.initial_mbps);
  for (std::size_t t = 0; t < 10 && t < probe.throughput_mbps.size(); ++t) {
    const double server_forecast =
        client.observe(remote.session_id, probe.throughput_mbps[t]);
    local.observe(probe.throughput_mbps[t]);
    EXPECT_NEAR(local.predict(1), server_forecast, 1e-9) << "epoch " << t;
  }
  client.bye(remote.session_id);
}

TEST(Integration, EngineStatsAccumulate) {
  const EngineStats before = world().cs2p->engine().stats();
  (void)world().cs2p->make_session(SessionContext::from(world().test.sessions()[0]));
  const EngineStats after = world().cs2p->engine().stats();
  EXPECT_EQ(after.sessions_served, before.sessions_served + 1);
}

}  // namespace
}  // namespace cs2p
