// Fig 9 — prediction accuracy (§7.2), all three panels from one world.
//
// 9a, initial-epoch (cold start) error. Paper: "CS2P performs much better in
// predicting the initial throughput with 20% median error vs 35%+ for other
// predictors" — compared against GBR, SVR, LM-client (same IP prefix) and
// LM-server (same server); LS/HM/AR cannot cold-start. Also reproduces the
// FCC-dataset side experiment: a world with richer per-session features
// (more discriminative prefixes).
//
// 9b, midstream (1-epoch-ahead) error. Paper: "CS2P reduces the median
// prediction error by 50% comparing to other baseline solutions, achieving 7%
// median error and 20% 75-percentile error... CS2P also outperforms GHM,
// which confirms the necessity of training a separate HMM for each cluster."
// Output: per-predictor CDF of the per-session median absolute normalized
// error, plus the summary quantiles the paper quotes.
//
// 9c, median error vs lookahead horizon (1-10 epochs). Paper: "CS2P clearly
// outperforms other predictors, achieving 5% improvement over the second best
// (GBR). When predicting 10 epochs ahead, CS2P can still achieve as low as
// 19% prediction error while all other solutions have error >= 27%."
//
// The standard world is generated once and each predictor trained once for
// all three panels. The last stdout line is one JSON object with every
// number the tables show; bench/check_shapes.py asserts the panels' shape
// claims (and the known divergences from them) on it.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/engine.h"
#include "predictors/evaluation.h"
#include "predictors/ghm.h"
#include "predictors/history.h"
#include "predictors/ml_predictors.h"
#include "predictors/simple_cross.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace cs2p;
using Models = std::vector<const PredictorModel*>;

/// Prints the CDF table of `columns` (one per model) at `grid`.
void print_cdf(const std::vector<std::string>& header, const std::vector<double>& grid,
               const std::vector<std::vector<double>>& columns) {
  TextTable cdf(header);
  for (std::size_t g = 0; g < grid.size(); ++g) {
    std::vector<double> row;
    for (const auto& column : columns) row.push_back(column[g]);
    cdf.add_row_numeric(format_double(grid[g], 2), row, 2);
  }
  std::fputs(cdf.to_string().c_str(), stdout);
}

/// Fig 9a: initial-epoch error of `models`, then CS2P's in the FCC-style
/// richer-feature world.
bench::JsonObject initial_error(const Models& models, const Dataset& test) {
  EvaluationOptions options;
  options.max_sessions = 3000;

  TextTable summary({"predictor", "median", "p75", "p90"});
  const std::vector<double> grid = {0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0};
  std::vector<std::vector<double>> columns;
  bench::JsonObject predictors;
  for (const PredictorModel* model : models) {
    const PredictorEvaluation eval = evaluate_predictor(*model, test, options);
    const double p90 = quantile(eval.initial_errors, 0.9);
    summary.add_row_numeric(eval.predictor_name,
                            {eval.initial_median_error, eval.initial_p75_error, p90});
    columns.push_back(ecdf_at(eval.initial_errors, grid));
    predictors.add(eval.predictor_name, bench::JsonObject()
                                            .add("median", eval.initial_median_error)
                                            .add("p75", eval.initial_p75_error)
                                            .add("p90", p90)
                                            .add("cdf", columns.back()));
  }
  std::fputs(summary.to_string().c_str(), stdout);
  std::printf("\nCDF of initial error (fraction of sessions):\n");
  print_cdf({"error<=", "SVR", "GBR", "LM-client", "LM-server", "Global", "CS2P"},
            grid, columns);

  // FCC-style side experiment: a world with MORE discriminative last-mile
  // features (one prefix per client pool instead of shared prefixes), as in
  // the paper's FCC MBA data.
  SyntheticConfig rich = bench::standard_config_scaled();
  rich.prefixes_per_isp_city = 6;   // finer-grained last-mile identity
  rich.num_sessions = rich.num_sessions * 3 / 2;
  Dataset rich_dataset = generate_synthetic_dataset(rich);
  auto [rich_train, rich_test] = rich_dataset.split_by_day(1);
  const Cs2pPredictorModel rich_cs2p(rich_train);
  const PredictorEvaluation rich_eval =
      evaluate_predictor(rich_cs2p, rich_test, options);
  std::printf("\nFCC-style richer-feature world: CS2P initial median error "
              "%.3f (paper: ~10%% on FCC vs 20%% on iQiyi)\n",
              rich_eval.initial_median_error);

  return bench::JsonObject()
      .add("grid", grid)
      .add("predictors", predictors)
      .add("fcc_cs2p_median", rich_eval.initial_median_error);
}

/// Fig 9b: per-session median 1-epoch-ahead error of `models`.
bench::JsonObject midstream_error(const Models& models, const Dataset& test) {
  EvaluationOptions options;
  options.max_sessions = 1500;

  TextTable summary({"predictor", "median", "p75", "p90", "mean"});
  const std::vector<double> grid = {0.02, 0.05, 0.08, 0.1, 0.15, 0.2,
                                    0.3,  0.4,  0.5,  0.75, 1.0};
  std::vector<std::vector<double>> columns;
  bench::JsonObject predictors;
  for (const PredictorModel* model : models) {
    const PredictorEvaluation eval = evaluate_predictor(*model, test, options);
    const CrossSessionSummary& s = eval.midstream_summary;
    summary.add_row_numeric(eval.predictor_name,
                            {s.median_of_medians, s.p75_of_medians,
                             s.p90_of_medians, s.mean_of_means});
    columns.push_back(ecdf_at(eval.midstream_median_errors, grid));
    predictors.add(eval.predictor_name, bench::JsonObject()
                                            .add("median", s.median_of_medians)
                                            .add("p75", s.p75_of_medians)
                                            .add("p90", s.p90_of_medians)
                                            .add("mean", s.mean_of_means)
                                            .add("cdf", columns.back()));
  }
  std::printf("Per-session median error, summarised across sessions:\n");
  std::fputs(summary.to_string().c_str(), stdout);
  std::printf("\nCDF of per-session median error (fraction of sessions):\n");
  print_cdf({"error<=", "LS", "HM", "AR", "SVR", "GBR", "GHM", "CS2P"}, grid,
            columns);
  return bench::JsonObject().add("grid", grid).add("predictors", predictors);
}

/// Fig 9c: median of per-session median error of `models` at each horizon.
bench::JsonObject horizon_error(const Models& models, const Dataset& test) {
  EvaluationOptions options;
  options.max_sessions = 600;

  TextTable table({"horizon", "LS", "HM", "AR", "SVR", "GBR", "CS2P"});
  const std::vector<unsigned> horizons = {1, 2, 3, 5, 7, 10};
  std::vector<std::vector<double>> medians(models.size());
  for (const unsigned horizon : horizons) {
    options.horizon = horizon;
    std::vector<double> row;
    for (std::size_t m = 0; m < models.size(); ++m) {
      const PredictorEvaluation eval = evaluate_predictor(*models[m], test, options);
      row.push_back(eval.midstream_summary.median_of_medians);
      medians[m].push_back(row.back());
    }
    table.add_row_numeric(std::to_string(horizon), row);
  }
  std::fputs(table.to_string().c_str(), stdout);

  bench::JsonObject predictors;
  for (std::size_t m = 0; m < models.size(); ++m)
    predictors.add(models[m]->name(), medians[m]);
  return bench::JsonObject()
      .add("horizons", std::vector<double>(horizons.begin(), horizons.end()))
      .add("predictors", predictors);
}

}  // namespace

int main() {
  auto [train, test] = bench::standard_dataset();
  std::printf("Fig 9a: initial-epoch prediction error (train %zu / test %zu)\n\n",
              train.size(), test.size());

  const LastSampleModel ls;
  const HarmonicMeanModel hm;
  const AutoRegressiveModel ar;
  const SvrPredictorModel svr(train);
  const GbrPredictorModel gbr(train);
  const GlobalHmmModel ghm(train);
  const FeatureMedianModel lm_client = make_lm_client(train);
  const FeatureMedianModel lm_server = make_lm_server(train);
  const GlobalMedianModel global(train);
  const Cs2pPredictorModel cs2p(train);

  bench::JsonObject result;
  result.add("bench", "fig9")
      .add("sessions", bench::standard_config_scaled().num_sessions)
      .add("train", train.size())
      .add("test", test.size());

  result.add("fig9a",
             initial_error({&svr, &gbr, &lm_client, &lm_server, &global, &cs2p}, test));

  std::printf("Fig 9b: midstream prediction error (train %zu / test %zu sessions)\n\n",
              train.size(), test.size());
  result.add("fig9b", midstream_error({&ls, &hm, &ar, &svr, &gbr, &ghm, &cs2p}, test));

  std::printf("Fig 9c: median of per-session median error vs lookahead horizon\n\n");
  result.add("fig9c", horizon_error({&ls, &hm, &ar, &svr, &gbr, &cs2p}, test));

  std::printf("\n%s\n", result.str().c_str());
  return 0;
}
