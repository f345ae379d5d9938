// cs2p_qoe_compare — QoE comparison of adaptation strategies on a trace dataset.
//
//   cs2p_qoe_compare --data traces.csv --max-sessions 150
//
// Replays test sessions through the player simulator under BB, RB, HM+MPC
// and CS2P+MPC (all MPC arms with the RobustMPC discount) and prints
// offline-optimal-normalised QoE.

#include <cstdio>
#include <memory>

#include "abr/controllers.h"
#include "abr/evaluation.h"
#include "abr/mpc.h"
#include "core/engine.h"
#include "dataset/dataset.h"
#include "predictors/history.h"
#include "tools/cli.h"
#include "util/table.h"

int main(int argc, char** argv) try {
  using namespace cs2p;
  cli::ArgParser args("cs2p_qoe_compare", "QoE comparison of ABR strategies");
  args.add_option("data", "input CSV dataset", "traces.csv");
  args.add_option("test-day", "first test day", "1");
  args.add_option("max-sessions", "cap on evaluated sessions (0 = all)", "150");
  args.add_option("horizon", "MPC lookahead chunks", "5");
  args.add_option("robust", "1 = RobustMPC discount, 0 = plain FastMPC", "1");
  if (!args.parse(argc, argv)) return 1;

  // Every flag is read before the dataset loads, so a bad one fails at once.
  const int test_day = args.get_int<int>("test-day");
  AbrEvaluationOptions options;
  options.max_sessions = args.get_int<std::size_t>("max-sessions");
  options.min_trace_epochs = options.video.num_chunks;
  MpcConfig mpc_config;
  mpc_config.horizon = args.get_int<unsigned>("horizon");
  mpc_config.robust = args.get_int<bool>("robust");

  const Dataset dataset = Dataset::load_csv(args.get("data"));
  auto [train, test] = dataset.split_by_day(test_day);
  if (train.empty() || test.empty()) {
    std::fprintf(stderr, "need both training and test days\n");
    return 1;
  }

  const Cs2pPredictorModel cs2p(std::move(train));
  const HarmonicMeanModel hm;

  const auto mpc = [&] { return std::make_unique<MpcController>(mpc_config); };
  const auto bb = [] { return std::make_unique<BufferBasedController>(); };
  const auto rb = [] { return std::make_unique<RateBasedController>(); };

  TextTable table({"strategy", "median n-QoE", "avg kbps", "GoodRatio",
                   "rebuf s", "startup s"});
  const AbrEvaluation evals[] = {
      evaluate_abr("BB", nullptr, bb, test, options),
      evaluate_abr("RB (HM)", &hm, rb, test, options),
      evaluate_abr("HM + MPC", &hm, mpc, test, options),
      evaluate_abr("CS2P + MPC", &cs2p, mpc, test, options),
  };
  for (const auto& eval : evals) {
    table.add_row({eval.label, format_double(eval.median_n_qoe, 3),
                   format_double(eval.avg_bitrate_kbps, 0),
                   format_double(eval.good_ratio, 3),
                   format_double(eval.mean_rebuffer_seconds, 2),
                   format_double(eval.mean_startup_seconds, 2)});
  }
  std::fputs(table.to_string().c_str(), stdout);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "cs2p_qoe_compare: %s\n", e.what());
  return 1;
}
