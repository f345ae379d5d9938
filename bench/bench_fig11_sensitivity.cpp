// §7.4 — sensitivity of CS2P to its configuration parameters, plus the
// design-choice ablations called out in DESIGN.md:
//
//  * number of HMM states N (paper cross-validates to N = 6);
//  * minimum cluster size (too small = noisy models, too large = coarse
//    clusters). The paper also sees sessions fall back to the global model
//    (~4%); here every test session finds a cluster at every size, 100
//    included, so the global fallback column reads 0 (EXPERIMENTS.md, honest
//    divergence 9);
//  * training-data volume;
//  * MLE-state vs posterior-mean prediction rule (Algorithm 1 uses MLE);
//  * median vs mean initial predictor (Eq. 6 uses the median).
//
// The default configuration (N = 6, min cluster 20, the full training day)
// is a row of all three sweeps; it is trained and evaluated once.
//
// Ends with one JSON line holding every number the table shows;
// bench/check_shapes.py asserts EXPERIMENTS.md's §7.4 claims on it.

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench/common.h"
#include "core/engine.h"
#include "predictors/evaluation.h"
#include "util/table.h"

namespace {

using namespace cs2p;

struct Row {
  std::string label;
  double initial_error;
  double midstream_error;
  double fallback_rate;
};

Row run(const std::string& label, const Dataset& train, const Dataset& test,
        const Cs2pConfig& config, std::size_t max_sessions) {
  const Cs2pPredictorModel model(train, config);
  EvaluationOptions options;
  options.max_sessions = max_sessions;
  const PredictorEvaluation eval = evaluate_predictor(model, test, options);
  const EngineStats stats = model.engine().stats();
  return {label, eval.initial_median_error,
          eval.midstream_summary.median_of_medians,
          stats.sessions_served
              ? static_cast<double>(stats.global_fallbacks) / stats.sessions_served
              : 0.0};
}

bench::JsonObject row_json(const Row& row) {
  return bench::JsonObject()
      .add("initial", row.initial_error)
      .add("midstream", row.midstream_error)
      .add("fallback", row.fallback_rate);
}

/// One sweep's rows as arrays parallel to the swept `values`.
bench::JsonObject sweep_json(std::string_view key, const std::vector<double>& values,
                             const std::vector<Row>& rows) {
  std::vector<double> initial, midstream, fallback;
  for (const Row& row : rows) {
    initial.push_back(row.initial_error);
    midstream.push_back(row.midstream_error);
    fallback.push_back(row.fallback_rate);
  }
  return bench::JsonObject()
      .add(key, values)
      .add("initial", initial)
      .add("midstream", midstream)
      .add("fallback", fallback);
}

}  // namespace

int main() {
  using namespace cs2p;
  auto [train, test] = bench::standard_dataset();
  const std::size_t kSessions = 700;

  const Cs2pConfig defaults;
  const Row default_row = run("", train, test, defaults, kSessions);
  const auto default_as = [&default_row](std::string label) {
    Row row = default_row;
    row.label = std::move(label);
    return row;
  };

  // Sweep 1: HMM state count.
  const std::vector<double> state_counts = {2, 4, 6, 8, 10};
  std::vector<Row> by_states;
  for (double n : state_counts) {
    Cs2pConfig config;
    config.hmm.num_states = static_cast<std::size_t>(n);
    const std::string label =
        "N=" + std::to_string(config.hmm.num_states) + " states";
    by_states.push_back(config.hmm.num_states == defaults.hmm.num_states
                            ? default_as(label)
                            : run(label, train, test, config, kSessions));
  }
  // Sweep 2: minimum cluster size.
  const std::vector<double> cluster_sizes = {5, 10, 20, 50, 100};
  std::vector<Row> by_cluster_size;
  for (double size : cluster_sizes) {
    Cs2pConfig config;
    config.selector.min_cluster_size = static_cast<std::size_t>(size);
    const std::string label =
        "min cluster=" + std::to_string(config.selector.min_cluster_size);
    by_cluster_size.push_back(
        config.selector.min_cluster_size == defaults.selector.min_cluster_size
            ? default_as(label)
            : run(label, train, test, config, kSessions));
  }
  // Sweep 3: training-data volume.
  const std::vector<double> fractions = {0.25, 0.5, 1.0};
  std::vector<Row> by_volume;
  for (double fraction : fractions) {
    const std::string label = "train x" + format_double(fraction, 2);
    if (fraction == 1.0) {
      by_volume.push_back(default_as(label));
      continue;
    }
    Dataset subset;
    const auto target =
        static_cast<std::size_t>(fraction * static_cast<double>(train.size()));
    for (std::size_t i = 0; i < target; ++i) subset.add(train.sessions()[i]);
    by_volume.push_back(run(label, subset, test, defaults, kSessions));
  }
  // Ablation: prediction rule.
  Cs2pConfig posterior_config;
  posterior_config.prediction_rule = PredictionRule::kPosteriorMean;
  const Row posterior_mean =
      run("posterior-mean rule", train, test, posterior_config, kSessions);
  // Ablation: mean instead of median initial predictor.
  Cs2pConfig mean_config;
  mean_config.median_initial = false;
  const Row mean_initial =
      run("mean initial (Eq.6 ablation)", train, test, mean_config, kSessions);

  std::printf("Sensitivity & ablations (§7.4): CS2P error vs configuration\n\n");
  TextTable table({"configuration", "initial median err", "midstream median err",
                   "global fallback"});
  const auto add_row = [&table](const Row& row) {
    table.add_row_numeric(row.label,
                          {row.initial_error, row.midstream_error, row.fallback_rate});
  };
  for (const auto* sweep : {&by_states, &by_cluster_size, &by_volume})
    for (const Row& row : *sweep) add_row(row);
  add_row(posterior_mean);
  add_row(mean_initial);
  std::fputs(table.to_string().c_str(), stdout);

  const bench::JsonObject result =
      bench::JsonObject()
          .add("bench", "fig11")
          .add("sessions", bench::standard_config_scaled().num_sessions)
          .add("train", train.size())
          .add("test", test.size())
          .add("states", sweep_json("n", state_counts, by_states))
          .add("min_cluster", sweep_json("size", cluster_sizes, by_cluster_size))
          .add("train_fraction", sweep_json("fraction", fractions, by_volume))
          .add("posterior_mean", row_json(posterior_mean))
          .add("mean_initial", row_json(mean_initial));
  std::printf("\n%s\n", result.str().c_str());
  return 0;
}
