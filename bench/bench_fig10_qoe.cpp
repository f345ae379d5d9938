// §7.3 (Fig 10) — QoE improvement from better prediction.
//
// Paper: "When combined with MPC, CS2P can drive median overall QoE to 93%
// of offline optimal for initial chunk and 95% for midstream chunks,
// outperforming other state-of-art predictors", and both beat the
// prediction-free BB/RB baselines. Every predictor arm runs the same
// (Robust)MPC controller; n-QoE normalises each session by its
// perfect-knowledge offline optimum.
//
// The last stdout line is one JSON object with every number the table shows;
// bench/check_shapes.py asserts the figure's shape claims on it.

#include <cstdio>
#include <memory>
#include <vector>

#include "abr/controllers.h"
#include "abr/festive.h"
#include "abr/evaluation.h"
#include "abr/mpc.h"
#include "bench/common.h"
#include "core/engine.h"
#include "predictors/ghm.h"
#include "predictors/history.h"
#include "predictors/ml_predictors.h"
#include "predictors/oracle.h"
#include "util/stats.h"
#include "util/table.h"

int main() {
  using namespace cs2p;
  auto [train, test] = bench::standard_dataset();

  const HarmonicMeanModel hm;
  const SvrPredictorModel svr(train);
  const GbrPredictorModel gbr(train);
  const GlobalHmmModel ghm(train);
  const Cs2pPredictorModel cs2p(train);
  const OracleModel oracle;

  AbrEvaluationOptions options;
  options.max_sessions = 250;
  options.min_trace_epochs = options.video.num_chunks;

  MpcConfig mpc_config;
  mpc_config.robust = true;
  const auto mpc = [&] { return std::make_unique<MpcController>(mpc_config); };
  const auto bb = [] { return std::make_unique<BufferBasedController>(); };
  const auto rb = [] { return std::make_unique<RateBasedController>(); };
  const auto festive = [] { return std::make_unique<FestiveController>(); };

  struct Arm {
    std::string label;
    const PredictorModel* model;
    ControllerFactory controller;
    bool needs_oracle = false;
  };
  const std::vector<Arm> arms = {
      {"BB", nullptr, bb},
      {"RB (HM)", &hm, rb},
      {"FESTIVE", nullptr, festive},
      {"HM + MPC", &hm, mpc},
      {"SVR + MPC", &svr, mpc},
      {"GBR + MPC", &gbr, mpc},
      {"GHM + MPC", &ghm, mpc},
      {"CS2P + MPC", &cs2p, mpc},
      {"Oracle + MPC", &oracle, mpc, true},
  };

  std::printf("Fig 10: n-QoE by predictor (all arms share the same MPC)\n\n");
  TextTable table({"strategy", "median n-QoE", "mean n-QoE", "p25 n-QoE",
                   "avg kbps", "GoodRatio", "rebuf s", "startup s"});
  bench::JsonObject arm_results;
  for (const auto& arm : arms) {
    AbrEvaluationOptions arm_options = options;
    arm_options.provide_oracle = arm.needs_oracle;
    const AbrEvaluation eval =
        evaluate_abr(arm.label, arm.model, arm.controller, test, arm_options);
    std::vector<double> n_qoes;
    for (const auto& outcome : eval.outcomes)
      n_qoes.push_back(outcome.normalized_qoe);
    const double p25 = quantile(n_qoes, 0.25);
    table.add_row({arm.label, format_double(eval.median_n_qoe, 3),
                   format_double(eval.mean_n_qoe, 3), format_double(p25, 3),
                   format_double(eval.avg_bitrate_kbps, 0),
                   format_double(eval.good_ratio, 3),
                   format_double(eval.mean_rebuffer_seconds, 2),
                   format_double(eval.mean_startup_seconds, 2)});
    arm_results.add(arm.label, bench::JsonObject()
                                   .add("median", eval.median_n_qoe)
                                   .add("mean", eval.mean_n_qoe)
                                   .add("p25", p25)
                                   .add("kbps", eval.avg_bitrate_kbps)
                                   .add("good_ratio", eval.good_ratio)
                                   .add("rebuffer_s", eval.mean_rebuffer_seconds)
                                   .add("startup_s", eval.mean_startup_seconds));
  }
  std::fputs(table.to_string().c_str(), stdout);

  const bench::JsonObject result =
      bench::JsonObject()
          .add("bench", "fig10")
          .add("sessions", bench::standard_config_scaled().num_sessions)
          .add("train", train.size())
          .add("test", test.size())
          .add("arms", arm_results);
  std::printf("\n%s\n", result.str().c_str());
  return 0;
}
