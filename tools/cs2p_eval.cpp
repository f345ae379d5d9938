// cs2p_eval — prediction-accuracy evaluation on a CSV dataset.
//
//   cs2p_eval --data traces.csv --horizon 1 --max-sessions 1000
//
// Trains every predictor family on the sessions with day < --test-day and
// evaluates initial + midstream error on the rest (the paper's temporal
// split, §7.1).

#include <cstdio>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "dataset/dataset.h"
#include "predictors/evaluation.h"
#include "predictors/ghm.h"
#include "predictors/history.h"
#include "predictors/ml_predictors.h"
#include "predictors/simple_cross.h"
#include "tools/cli.h"
#include "util/table.h"

int main(int argc, char** argv) try {
  using namespace cs2p;
  cli::ArgParser args("cs2p_eval", "evaluate predictors on a trace dataset");
  args.add_option("data", "input CSV (from cs2p_datagen or external)", "traces.csv");
  args.add_option("test-day", "first test day (earlier days train)", "1");
  args.add_option("horizon", "midstream lookahead in epochs", "1");
  args.add_option("max-sessions", "cap on evaluated test sessions (0 = all)", "1000");
  args.add_option("hmm-states", "CS2P HMM state count", "6");
  args.add_option("min-cluster", "CS2P minimum cluster size", "20");
  if (!args.parse(argc, argv)) return 1;

  // Every flag is read before the dataset loads, so a bad one fails at once.
  const int test_day = args.get_int<int>("test-day");
  Cs2pConfig cs2p_config;
  cs2p_config.hmm.num_states = args.get_int<std::size_t>("hmm-states");
  cs2p_config.selector.min_cluster_size = args.get_int<std::size_t>("min-cluster");
  EvaluationOptions options;
  options.horizon = args.get_int<unsigned>("horizon");
  options.max_sessions = args.get_int<std::size_t>("max-sessions");

  const Dataset dataset = Dataset::load_csv(args.get("data"));
  auto [train, test] = dataset.split_by_day(test_day);
  if (train.empty() || test.empty()) {
    std::fprintf(stderr, "need both training and test days in %s\n",
                 args.get("data").c_str());
    return 1;
  }
  std::printf("train %zu / test %zu sessions\n\n", train.size(), test.size());

  const LastSampleModel ls;
  const HarmonicMeanModel hm;
  const AutoRegressiveModel ar;
  const SvrPredictorModel svr(train);
  const GbrPredictorModel gbr(train);
  const FeatureMedianModel lm_client = make_lm_client(train);
  const GlobalHmmModel ghm(train);
  const Cs2pPredictorModel cs2p(train, cs2p_config);

  TextTable table({"predictor", "initial median", "midstream median",
                   "midstream p75"});
  for (const PredictorModel* model :
       std::vector<const PredictorModel*>{&ls, &hm, &ar, &svr, &gbr, &lm_client,
                                          &ghm, &cs2p}) {
    const PredictorEvaluation eval = evaluate_predictor(*model, test, options);
    table.add_row({eval.predictor_name,
                   eval.initial_errors.empty()
                       ? "-"
                       : format_double(eval.initial_median_error, 3),
                   format_double(eval.midstream_summary.median_of_medians, 3),
                   format_double(eval.midstream_summary.p75_of_medians, 3)});
  }
  std::fputs(table.to_string().c_str(), stdout);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "cs2p_eval: %s\n", e.what());
  return 1;
}
