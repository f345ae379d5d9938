// Drift bench — prediction error of the guarded vs. the unguarded HMM
// predictor, in distribution and under an injected regime shift.
//
// The guardrail layer (DESIGN.md §10) is only worth its complexity if it is
// (a) free when the cluster model is right and (b) strictly better when the
// model goes stale midstream. This bench measures both on the standard
// world:
//
//   - in-distribution: every test session replayed unmodified. Guarded and
//     unguarded predictors must agree to within noise (the guardrail should
//     essentially never trip).
//   - regime shift: halfway through each session the measured throughput
//     collapses to ~2% of its trace value (a severe path change the cluster
//     HMM knows nothing about). Post-shift, the unguarded HMM keeps
//     predicting its state means while the guarded predictor falls back to
//     the harmonic mean of what it actually sees.
//
// Output: median/p75 absolute normalized error per predictor and scenario
// (split pre/post shift), plus trip/recovery counts as a flap sanity check.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "core/engine.h"
#include "predictors/guarded_session.h"
#include "predictors/hmm_session.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace cs2p;

struct ErrorSplit {
  std::vector<double> pre;   ///< per-epoch |err|/w before the shift point
  std::vector<double> post;  ///< ... and after (empty when no shift)
};

struct ScenarioResult {
  ErrorSplit guarded;
  ErrorSplit unguarded;
  std::size_t trips = 0;
  std::size_t recoveries = 0;
  std::size_t sessions = 0;
};

/// Replays up to `max_sessions` test sessions against one engine, driving a
/// guarded and an unguarded predictor on the identical cluster model and
/// observation stream. `shift_scale` < 1 collapses throughput after each
/// session's midpoint (1.0 = in-distribution).
ScenarioResult run_scenario(const Cs2pEngine& engine, const Dataset& test,
                            double shift_scale, std::size_t max_sessions,
                            Rng& rng) {
  ScenarioResult result;
  for (const Session& s : test.sessions()) {
    if (result.sessions >= max_sessions) break;
    if (s.throughput_mbps.size() < 8) continue;
    ++result.sessions;
    const SessionModelRef ref = engine.session_model(s.features, s.start_hour);
    HmmSessionPredictor unguarded(ref.kernel, ref.initial_prediction);
    GuardedSessionPredictor guarded(ref.kernel, ref.initial_prediction,
                                    engine.global_initial(), *ref.baseline);
    const std::size_t shift_epoch = s.throughput_mbps.size() / 2;
    for (std::size_t t = 0; t < s.throughput_mbps.size(); ++t) {
      double w = s.throughput_mbps[t];
      const bool shifted = shift_scale < 1.0 && t >= shift_epoch;
      if (shifted) w = std::max(0.005, shift_scale * w * rng.uniform(0.8, 1.2));
      if (t > 0) {  // one-step-ahead error, skip the cold-start epoch
        const double eg = std::abs(guarded.predict(1) - w) / w;
        const double eu = std::abs(unguarded.predict(1) - w) / w;
        (shifted ? result.guarded.post : result.guarded.pre).push_back(eg);
        (shifted ? result.unguarded.post : result.unguarded.pre).push_back(eu);
      }
      guarded.observe(w);
      unguarded.observe(w);
    }
    const GuardedSessionPredictor::Stats stats = guarded.stats();
    result.trips += stats.trips;
    result.recoveries += stats.recoveries;
  }
  return result;
}

void add_rows(TextTable& table, const char* scenario, const char* phase,
              const std::vector<double>& guarded,
              const std::vector<double>& unguarded) {
  if (guarded.empty()) return;
  table.add_row_numeric(std::string(scenario) + " / " + phase + " / guarded",
                        {median(guarded), quantile(guarded, 0.75)});
  table.add_row_numeric(std::string(scenario) + " / " + phase + " / unguarded",
                        {median(unguarded), quantile(unguarded, 0.75)});
}

}  // namespace

int main() {
  using namespace cs2p;
  auto [train, test] = bench::standard_dataset();
  std::printf("Drift bench: guarded vs unguarded HMM predictor "
              "(train %zu / test %zu sessions)\n\n",
              train.size(), test.size());

  Cs2pConfig config;
  config.guardrail = true;  // session_model() then hands out baselines
  const Cs2pEngine engine(std::move(train), config);

  constexpr std::size_t kSessions = 400;
  Rng rng(20160816);
  const ScenarioResult in_dist =
      run_scenario(engine, test, /*shift_scale=*/1.0, kSessions, rng);
  const ScenarioResult shifted =
      run_scenario(engine, test, /*shift_scale=*/0.02, kSessions, rng);

  TextTable table({"scenario / phase / predictor", "median", "p75"});
  add_rows(table, "in-dist", "all", in_dist.guarded.pre, in_dist.unguarded.pre);
  add_rows(table, "shifted", "pre", shifted.guarded.pre, shifted.unguarded.pre);
  add_rows(table, "shifted", "post", shifted.guarded.post,
           shifted.unguarded.post);
  std::printf("Per-epoch absolute normalized error |w_hat - w| / w:\n");
  std::fputs(table.to_string().c_str(), stdout);

  std::printf("\nguardrail trips: in-dist %zu across %zu sessions, "
              "shifted %zu across %zu sessions (%zu recoveries)\n",
              in_dist.trips, in_dist.sessions, shifted.trips, shifted.sessions,
              shifted.recoveries);

  const double guarded_post = median(shifted.guarded.post);
  const double unguarded_post = median(shifted.unguarded.post);
  std::printf("post-shift median error: guarded %.3f vs unguarded %.3f "
              "(%s)\n",
              guarded_post, unguarded_post,
              guarded_post < unguarded_post ? "guardrail wins" : "REGRESSION");
  return guarded_post < unguarded_post ? 0 : 1;
}
