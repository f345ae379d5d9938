// Fig 2 — midstream QoE vs throughput-prediction accuracy.
//
// Replicates the Yin et al. analysis the paper reproduces: drive MPC with a
// synthetically corrupted oracle whose relative prediction error is
// controlled, and plot normalized QoE against the error level; the
// buffer-based controller (which ignores predictions) is the flat reference
// line. Paper: "when the error is 20%, the n-QoE of MPC is close to optimal
// (> 85%)" and MPC degrades below BB as the error grows.
//
// Ends with one JSON line holding every number the table shows;
// bench/check_shapes.py asserts EXPERIMENTS.md's Fig. 2 claims on it.

#include <cstdio>
#include <memory>
#include <vector>

#include "abr/controllers.h"
#include "abr/evaluation.h"
#include "abr/mpc.h"
#include "bench/common.h"
#include "predictors/predictor.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace cs2p;

/// Oracle corrupted with multiplicative error of controlled magnitude:
/// prediction = truth * (1 + e), e ~ U(-err, +err).
class NoisyOracleModel final : public PredictorModel {
 public:
  NoisyOracleModel(double relative_error, std::uint64_t seed)
      : relative_error_(relative_error), seed_(seed) {}

  std::string name() const override { return "NoisyOracle"; }

  std::unique_ptr<SessionPredictor> make_session(
      const SessionContext& context) const override;

 private:
  double relative_error_;
  std::uint64_t seed_;
};

class NoisyOracleSession final : public SessionPredictor {
 public:
  NoisyOracleSession(std::vector<double> series, double relative_error,
                     std::uint64_t seed)
      : series_(std::move(series)), relative_error_(relative_error), rng_(seed) {}

  std::optional<double> predict_initial() const override {
    return series_.empty() ? std::optional<double>{} : corrupt(series_.front());
  }

  double predict(unsigned steps_ahead) const override {
    if (series_.empty()) return 0.0;
    const std::size_t target =
        std::min(position_ + std::max(1U, steps_ahead) - 1, series_.size() - 1);
    return corrupt(series_[target]);
  }

  void observe(double) override { ++position_; }

 private:
  double corrupt(double truth) const {
    return truth * (1.0 + rng_.uniform(-relative_error_, relative_error_));
  }

  std::vector<double> series_;
  double relative_error_;
  mutable Rng rng_;
  std::size_t position_ = 0;
};

std::unique_ptr<SessionPredictor> NoisyOracleModel::make_session(
    const SessionContext& context) const {
  if (context.oracle_series == nullptr)
    throw std::invalid_argument("NoisyOracleModel: needs the oracle series");
  return std::make_unique<NoisyOracleSession>(*context.oracle_series,
                                              relative_error_, seed_);
}

}  // namespace

int main() {
  using namespace cs2p;
  auto [train, test] = bench::standard_dataset();
  (void)train;

  AbrEvaluationOptions options;
  options.max_sessions = 120;
  options.min_trace_epochs = options.video.num_chunks;
  options.provide_oracle = true;

  const auto bb = [] { return std::make_unique<BufferBasedController>(); };
  const AbrEvaluation bb_eval = evaluate_abr("BB", nullptr, bb, test, options);

  std::printf("Fig 2: normalized QoE vs prediction error (MPC vs BB)\n\n");
  TextTable table({"rel. error", "MPC n-QoE (median)", "BB n-QoE (median)"});
  const std::vector<double> errors = {0.0, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0};
  std::vector<double> mpc_medians, bb_medians;
  for (double err : errors) {
    const NoisyOracleModel model(err, /*seed=*/97);
    const auto mpc = [] { return std::make_unique<MpcController>(); };
    const AbrEvaluation eval = evaluate_abr("MPC", &model, mpc, test, options);
    table.add_row_numeric(format_double(err, 1),
                          {eval.median_n_qoe, bb_eval.median_n_qoe});
    mpc_medians.push_back(eval.median_n_qoe);
    bb_medians.push_back(bb_eval.median_n_qoe);
  }
  std::fputs(table.to_string().c_str(), stdout);

  const bench::JsonObject result =
      bench::JsonObject()
          .add("bench", "fig2")
          .add("sessions", bench::standard_config_scaled().num_sessions)
          .add("test", test.size())
          .add("errors", errors)
          .add("mpc", mpc_medians)
          .add("bb", bb_medians);
  std::printf("\n%s\n", result.str().c_str());
  return 0;
}
