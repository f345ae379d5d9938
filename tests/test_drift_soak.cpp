// Drift aggregation and the deterministic drift-soak scenario (CI, TSan).
//
// Covers the cluster-level half of the guardrail layer: per-session trips
// feeding the engine's quorum, the drifted-cluster serving path, and a
// 200-session soak with an injected regime shift that asserts the service
// invariants the guardrails exist for — zero NaN predictions and a flap
// count bounded by the hysteresis.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>

#include "core/engine.h"
#include "dataset/synthetic.h"
#include "obs/metrics.h"
#include "predictors/guarded_session.h"
#include "util/rng.h"

namespace cs2p {
namespace {

SyntheticConfig soak_world() {
  SyntheticConfig config;
  config.num_isps = 2;
  config.num_provinces = 2;
  config.cities_per_province = 2;
  config.num_servers = 3;
  config.prefixes_per_isp_city = 1;
  config.num_sessions = 1500;
  config.seed = 61;
  return config;
}

Cs2pConfig guarded_engine_config() {
  Cs2pConfig config;
  config.hmm.num_states = 3;
  config.hmm.max_iterations = 10;
  config.selector.min_cluster_size = 10;
  config.max_sequences_per_cluster = 20;
  config.max_global_sequences = 120;
  config.guardrail.enabled = true;
  config.guardrail.baseline_sequences = 16;
  config.guardrail.baseline_length = 32;
  config.drift.min_tripped_sessions = 3;
  config.drift.quorum = 0.5;
  return config;
}

/// First test-day session that maps to a non-global cluster.
const Session* find_clustered_session(const Cs2pEngine& engine,
                                      const Dataset& test) {
  for (const auto& s : test.sessions()) {
    const SessionModelRef ref = engine.session_model(s.features, s.start_hour);
    if (!ref.used_global_model) return &s;
  }
  return nullptr;
}

TEST(Drift, GuardedSessionsAreCreatedWhenEnabled) {
  Dataset dataset = generate_synthetic_dataset(soak_world());
  auto [train, test] = dataset.split_by_day(1);
  auto model = std::make_shared<Cs2pPredictorModel>(std::move(train),
                                                    guarded_engine_config());
  const auto predictor = model->make_session(SessionContext::from(test.sessions()[0]));
  const auto* guarded = dynamic_cast<const GuardedSessionPredictor*>(predictor.get());
  ASSERT_NE(guarded, nullptr);
  EXPECT_FALSE(guarded->degraded());
  EXPECT_EQ(model->engine().stats().guarded_sessions, 1u);
  // Guardrail off: plain HMM predictor, no guarded-session accounting.
  Cs2pConfig plain_config = guarded_engine_config();
  plain_config.guardrail.enabled = false;
  Dataset dataset2 = generate_synthetic_dataset(soak_world());
  auto [train2, test2] = dataset2.split_by_day(1);
  auto plain = std::make_shared<Cs2pPredictorModel>(std::move(train2), plain_config);
  (void)plain->make_session(SessionContext::from(test2.sessions()[0]));
  EXPECT_EQ(plain->engine().stats().guarded_sessions, 0u);
}

TEST(Drift, QuorumOfTrippedSessionsMarksClusterDrifted) {
  Dataset dataset = generate_synthetic_dataset(soak_world());
  auto [train, test] = dataset.split_by_day(1);
  auto model = std::make_shared<Cs2pPredictorModel>(std::move(train),
                                                    guarded_engine_config());
  const Cs2pEngine& engine = model->engine();
  const Session* seed_session = find_clustered_session(engine, test);
  ASSERT_NE(seed_session, nullptr);
  const SessionContext context = SessionContext::from(*seed_session);

  // Open a handful of sessions on the same cluster and push them all out of
  // distribution: the quorum (3 of 4 live, >= 50%) must mark the cluster.
  std::vector<std::unique_ptr<SessionPredictor>> sessions;
  for (int i = 0; i < 4; ++i) sessions.push_back(model->make_session(context));
  EXPECT_EQ(engine.drifted_cluster_count(), 0u);
  for (auto& session : sessions) {
    for (int i = 0; i < 60; ++i) session->observe(0.01);
  }
  EXPECT_GE(engine.stats().guardrail_trips, 3u);
  EXPECT_EQ(engine.drifted_cluster_count(), 1u);

  // Post-drift lookups on that cluster serve the global model and say so.
  const SessionModelRef ref =
      engine.session_model(seed_session->features, seed_session->start_hour);
  EXPECT_TRUE(ref.cluster_drifted);
  EXPECT_TRUE(ref.used_global_model);
  EXPECT_EQ(ref.hmm, &engine.global_hmm());
  EXPECT_EQ(ref.cluster, nullptr);
  EXPECT_NE(ref.cluster_label.find("(drifted)"), std::string::npos);

  // New sessions on the drifted cluster carry the context in their flags.
  const auto drifted_session = model->make_session(context);
  EXPECT_TRUE(drifted_session->serve_flags() & serve_flags::kClusterDrifted);
  EXPECT_TRUE(drifted_session->serve_flags() & serve_flags::kGlobalModel);
}

TEST(Drift, InDistributionSessionsNeverReachQuorum) {
  Dataset dataset = generate_synthetic_dataset(soak_world());
  auto [train, test] = dataset.split_by_day(1);
  auto model = std::make_shared<Cs2pPredictorModel>(std::move(train),
                                                    guarded_engine_config());
  const Cs2pEngine& engine = model->engine();

  std::size_t driven = 0;
  for (const auto& s : test.sessions()) {
    if (++driven > 100) break;
    auto session = model->make_session(SessionContext::from(s));
    for (double w : s.throughput_mbps) session->observe(w);
  }
  // Real traffic from the same world the engine trained on: no cluster may
  // be condemned.
  EXPECT_EQ(engine.drifted_cluster_count(), 0u);
}

TEST(Drift, BaselineCacheIsStablePerModel) {
  Dataset dataset = generate_synthetic_dataset(soak_world());
  auto [train, test] = dataset.split_by_day(1);
  const Cs2pEngine engine(std::move(train), guarded_engine_config());
  const SessionModelRef ref =
      engine.session_model(test.sessions()[0].features, test.sessions()[0].start_hour);
  const SurpriseBaseline a = engine.surprise_baseline(ref.hmm);
  const SurpriseBaseline b = engine.surprise_baseline(ref.hmm);
  EXPECT_DOUBLE_EQ(a.mean_log_likelihood, b.mean_log_likelihood);
  EXPECT_DOUBLE_EQ(a.std_log_likelihood, b.std_log_likelihood);
  EXPECT_TRUE(std::isfinite(a.mean_log_likelihood));
}

/// Every value in a text exposition, asserting none are non-finite. Returns
/// the number of series seen so the caller can require a non-empty scrape.
std::size_t assert_all_series_finite(const std::string& exposition) {
  std::size_t series = 0;
  std::size_t pos = 0;
  while (pos < exposition.size()) {
    std::size_t end = exposition.find('\n', pos);
    if (end == std::string::npos) end = exposition.size();
    const std::string line = exposition.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find_last_of(' ');
    if (space == std::string::npos) continue;
    ++series;
    const double value = std::stod(line.substr(space + 1));
    EXPECT_TRUE(std::isfinite(value)) << "non-finite series: " << line;
  }
  return series;
}

// The CI drift-soak: 200 guarded sessions, half hit by a mid-stream regime
// shift (throughput collapses to ~2% of normal). Deterministic via fixed
// seeds. Asserts the guardrail acceptance criteria end to end. A scraper
// thread reads the engine's metrics registry throughout — under TSan this is
// the scrape-during-write soak for the telemetry layer, and every mid-soak
// snapshot must already satisfy the exposition invariants (parseable, no
// non-finite values).
TEST(DriftSoak, TwoHundredSessionsWithRegimeShift) {
  Dataset dataset = generate_synthetic_dataset(soak_world());
  auto [train, test] = dataset.split_by_day(1);
  Cs2pConfig config = guarded_engine_config();
  // Soak uses a quorum high enough that the shifted half of one cluster's
  // sessions must agree before the cluster is condemned.
  config.drift.min_tripped_sessions = 4;
  auto model = std::make_shared<Cs2pPredictorModel>(std::move(train), config);
  const Cs2pEngine& engine = model->engine();

  Rng rng(2026);
  const std::size_t kSessions = 200;
  std::size_t created = 0;
  std::size_t shifted = 0;
  std::size_t nan_predictions = 0;
  std::vector<std::unique_ptr<SessionPredictor>> open_sessions;

  // Mid-soak scraper: hammers the registry while sessions write to it.
  std::atomic<bool> soak_done{false};
  std::atomic<std::size_t> scrapes{0};
  std::thread scraper([&engine, &soak_done, &scrapes] {
    while (!soak_done.load(std::memory_order_relaxed)) {
      const std::string exposition = engine.metrics().scrape();
      EXPECT_EQ(exposition.rfind("# cs2p_metrics_version", 0), 0u);
      assert_all_series_finite(exposition);
      scrapes.fetch_add(1, std::memory_order_relaxed);
      scrapes.notify_all();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const std::size_t total = std::min(kSessions, test.size());
  for (std::size_t i = 0; i < total; ++i) {
    // Hold the writers half-way until a scrape has completed, so at least
    // one scrape provably overlaps the soak.
    if (i == total / 2) scrapes.wait(0);
    const Session& s = test.sessions()[i];
    if (s.throughput_mbps.size() < 6) continue;
    auto session = model->make_session(SessionContext::from(s));
    ++created;
    const bool inject_shift = (i % 2) == 0;
    if (inject_shift) ++shifted;
    const std::size_t shift_epoch = s.throughput_mbps.size() / 2;
    for (std::size_t t = 0; t < s.throughput_mbps.size(); ++t) {
      double w = s.throughput_mbps[t];
      if (inject_shift && t >= shift_epoch)
        w = std::max(0.005, 0.02 * w * rng.uniform(0.8, 1.2));
      session->observe(w);
      const double forecast = session->predict(1);
      if (!std::isfinite(forecast)) ++nan_predictions;
    }
    // Keep every 4th session open so cluster drift accounting sees live
    // sessions, and close the rest through the destructor path.
    if (i % 4 == 0) open_sessions.push_back(std::move(session));
  }

  soak_done.store(true, std::memory_order_relaxed);
  scraper.join();
  EXPECT_GE(scrapes.load(), 1u);

  // One more full-scrape pass after the writers quiesce, and the registry's
  // view of the soak must agree with the engine's own accounting.
  const std::string final_scrape = engine.metrics().scrape();
  EXPECT_GT(assert_all_series_finite(final_scrape), 0u);
  EXPECT_NE(final_scrape.find("cs2p_engine_guardrail_trips_total"),
            std::string::npos);

  const EngineStats stats = engine.stats();
  ASSERT_GT(shifted, 50u);
  // The invariant the guardrail exists for: not one NaN forecast.
  EXPECT_EQ(nan_predictions, 0u);
  // Shifted sessions must actually trip...
  EXPECT_GE(stats.guardrail_trips, shifted / 2);
  // ...and the hysteresis must bound flapping: a collapsed regime stays
  // collapsed, so well under 2 trips per shifted session on average.
  EXPECT_LE(stats.guardrail_trips, 2 * shifted);
  EXPECT_EQ(stats.guarded_sessions, created);
  open_sessions.clear();
}

}  // namespace
}  // namespace cs2p
