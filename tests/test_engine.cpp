// Tests for the CS2P prediction engine (core/engine.h).

#include "core/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "dataset/synthetic.h"
#include "hmm/kernel.h"
#include "predictors/guarded_session.h"
#include "predictors/hmm_session.h"
#include "util/rng.h"

namespace cs2p {
namespace {

SyntheticConfig engine_world() {
  SyntheticConfig config;
  config.num_isps = 3;
  config.num_provinces = 3;
  config.cities_per_province = 2;
  config.num_servers = 4;
  config.prefixes_per_isp_city = 1;
  config.num_sessions = 2500;
  config.seed = 31;
  return config;
}

Cs2pConfig fast_config() {
  Cs2pConfig config;
  config.hmm.num_states = 3;
  config.hmm.max_iterations = 12;
  config.selector.min_cluster_size = 10;
  config.max_sequences_per_cluster = 25;
  config.max_global_sequences = 150;
  return config;
}

TEST(Engine, RejectsEmptyTraining) {
  EXPECT_THROW(Cs2pEngine(Dataset{}, fast_config()), std::invalid_argument);
}

TEST(Engine, RejectsNaNAndNegativeTrainingSamples) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -0.5}) {
    Dataset dataset = generate_synthetic_dataset(engine_world());
    Session poisoned;
    poisoned.id = 999999;
    poisoned.day = 0;
    poisoned.start_hour = 12.0;
    poisoned.features = dataset.sessions()[0].features;
    poisoned.throughput_mbps = {1.0, bad, 2.0};
    dataset.add(poisoned);
    EXPECT_THROW(Cs2pEngine(std::move(dataset), fast_config()),
                 std::invalid_argument);
  }
}

TEST(Engine, ServesValidSessionModels) {
  Dataset dataset = generate_synthetic_dataset(engine_world());
  auto [train, test] = dataset.split_by_day(1);
  const Cs2pEngine engine(std::move(train), fast_config());

  std::size_t checked = 0;
  for (const auto& s : test.sessions()) {
    if (++checked > 100) break;
    const SessionModelRef ref = engine.session_model(s.features, s.start_hour);
    ASSERT_NE(ref.kernel, nullptr);
    EXPECT_NO_THROW(ref.kernel->model().validate(1e-3));
    EXPECT_GT(ref.initial_prediction, 0.0);
    if (!ref.used_global_model) {
      EXPECT_GE(ref.cluster_size, fast_config().selector.min_cluster_size);
      EXPECT_FALSE(ref.cluster_label.empty());
    }
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.sessions_served, 100u);
  // Most sessions should land on a cluster (the paper reports ~4% fallback).
  EXPECT_LT(static_cast<double>(stats.global_fallbacks) / 100.0, 0.5);
}

TEST(Engine, ClusterModelsAreCached) {
  Dataset dataset = generate_synthetic_dataset(engine_world());
  auto [train, test] = dataset.split_by_day(1);
  const Cs2pEngine engine(std::move(train), fast_config());

  const auto& probe = test.sessions()[0];
  const SessionModelRef a = engine.session_model(probe.features, probe.start_hour);
  const SessionModelRef b = engine.session_model(probe.features, probe.start_hour);
  EXPECT_EQ(a.kernel, b.kernel);  // same kernel = cached, no retraining
  const EngineStats stats = engine.stats();
  EXPECT_LE(stats.clusters_trained, 1u);
}

/// The model a served session's filter runs on: the address of its kernel's
/// copy, so equal addresses mean one shared kernel.
const GaussianHmm* served_model(const SessionPredictor& session) {
  if (const auto* hmm = dynamic_cast<const HmmSessionPredictor*>(&session))
    return &hmm->filter().model();
  return &dynamic_cast<const GuardedSessionPredictor&>(session).filter().model();
}

// One record per served HMM: every session a cluster serves runs on that
// record's kernel, and every global-model session on the global record's,
// with the guardrail off or on.
TEST(Engine, SessionsOfOneModelShareItsKernel) {
  Dataset dataset = generate_synthetic_dataset(engine_world());
  auto [train, test] = dataset.split_by_day(1);
  for (const bool guardrail : {false, true}) {
    SCOPED_TRACE(guardrail ? "guardrail on" : "guardrail off");
    Cs2pConfig config = fast_config();
    config.guardrail = guardrail;
    const Cs2pPredictorModel model(train, config);
    const Cs2pEngine& engine = model.engine();

    // Two distinct test sessions that resolve to one cluster.
    const Session* first = nullptr;
    const Session* second = nullptr;
    for (std::size_t i = 0; i < test.size() && second == nullptr; ++i) {
      const Session& s = test.sessions()[i];
      const SessionModelRef ref = engine.session_model(s.features, s.start_hour);
      if (ref.used_global_model) continue;
      if (first == nullptr) {
        first = &s;
      } else if (ref.cluster ==
                 engine.session_model(first->features, first->start_hour).cluster) {
        second = &s;
      }
    }
    ASSERT_NE(second, nullptr) << "no two test sessions share a cluster";
    const SessionModelRef a = engine.session_model(first->features, first->start_hour);
    const SessionModelRef b = engine.session_model(second->features, second->start_hour);
    EXPECT_EQ(a.kernel, b.kernel);
    const auto session_a = model.make_session(SessionContext::from(*first));
    const auto session_b = model.make_session(SessionContext::from(*second));
    EXPECT_EQ(served_model(*session_a), &a.kernel->model());
    EXPECT_EQ(served_model(*session_b), &a.kernel->model());
    EXPECT_EQ(session_a->serve_flags(), serve_flags::kPrimary);

    // Sessions no cluster claims run on the global record's kernel itself.
    const SessionFeatures alien = {"ISP-x", "AS-x", "P-x", "C-x", "S-x", "Pfx-x"};
    const SessionFeatures other = {"ISP-y", "AS-y", "P-y", "C-y", "S-y", "Pfx-y"};
    const SessionModelRef g1 = engine.session_model(alien, 3.0);
    const SessionModelRef g2 = engine.session_model(other, 20.0);
    EXPECT_EQ(g1.kernel, g2.kernel);
    EXPECT_EQ(&g1.kernel->model(), &engine.global_hmm());
    EXPECT_EQ(g1.flags, serve_flags::kGlobalModel);
    const auto global_session = model.make_session(SessionContext{alien, 0, 3.0, nullptr});
    EXPECT_EQ(served_model(*global_session), &engine.global_hmm());
    EXPECT_EQ(global_session->serve_flags(), serve_flags::kGlobalModel);
  }
}

TEST(Engine, GlobalFallbackForAlienSessions) {
  Dataset dataset = generate_synthetic_dataset(engine_world());
  auto [train, test] = dataset.split_by_day(1);
  const Cs2pEngine engine(std::move(train), fast_config());
  SessionFeatures alien = {"ISP-x", "AS-x", "P-x", "C-x", "S-x", "Pfx-x"};
  const SessionModelRef ref = engine.session_model(alien, 12.0);
  EXPECT_TRUE(ref.used_global_model);
  EXPECT_EQ(&ref.kernel->model(), &engine.global_hmm());
  EXPECT_DOUBLE_EQ(ref.initial_prediction, engine.global_initial());
}

TEST(Engine, ModelFootprintUnder5KB) {
  Dataset dataset = generate_synthetic_dataset(engine_world());
  auto [train, test] = dataset.split_by_day(1);
  const Cs2pEngine engine(std::move(train), fast_config());
  const auto& probe = test.sessions()[0];
  const SessionModelRef ref = engine.session_model(probe.features, probe.start_hour);
  EXPECT_LT(ref.kernel->model().byte_size(), 5u * 1024u);  // §5.3 claim
  EXPECT_LT(serialize_hmm(ref.kernel->model()).size(), 5u * 1024u);
}

TEST(Engine, WarmUpPreTrainsClusters) {
  Dataset dataset = generate_synthetic_dataset(engine_world());
  auto [train, test] = dataset.split_by_day(1);
  const Cs2pEngine engine(std::move(train), fast_config());
  const std::size_t trained = engine.warm_up();
  EXPECT_GE(trained, 1u);
  EXPECT_EQ(engine.stats().clusters_trained, trained);
  // A second call is a no-op, and serving a training session's features
  // trains nothing more.
  EXPECT_EQ(engine.warm_up(), 0u);
  for (const Session& s : engine.training().sessions())
    (void)engine.session_model(s.features, s.start_hour);
  EXPECT_EQ(engine.stats().clusters_trained, trained);
}

// The index holds only what CS2P can select: no bucket below the selector's
// min-cluster-size threshold, in a fresh engine and in one restored from it.
TEST(Engine, IndexHoldsNoBucketBelowTheThreshold) {
  Dataset dataset = generate_synthetic_dataset(engine_world());
  auto [train, test] = dataset.split_by_day(1);
  const Cs2pConfig config = fast_config();
  const Cs2pEngine fresh(train, config);
  fresh.warm_up();
  EngineRestoreData data;
  data.global_initial = fresh.global_initial();
  data.global_hmm = fresh.global_hmm();
  data.selector_table = fresh.selector().error_table();
  data.cluster_models = fresh.export_cluster_models();
  const Cs2pEngine restored(std::move(train), config, std::move(data));
  for (const Cs2pEngine* engine : {&fresh, &restored}) {
    const ClusterIndex& index = engine->cluster_index();
    EXPECT_EQ(index.min_cluster_size(), config.selector.min_cluster_size);
    std::size_t kept = 0;
    for (std::size_t c = 0; c < index.num_candidates(); ++c) {
      for (const auto& [key, cluster] : index.index_for(c).clusters()) {
        EXPECT_GE(cluster.size(), config.selector.min_cluster_size) << c << " " << key;
        ++kept;
      }
    }
    EXPECT_GT(kept, 0u);
  }
}

TEST(Engine, MeanInitialAblation) {
  Dataset dataset = generate_synthetic_dataset(engine_world());
  auto [train, test] = dataset.split_by_day(1);
  Cs2pConfig median_config = fast_config();
  Cs2pConfig mean_config = fast_config();
  mean_config.median_initial = false;
  const Cs2pEngine median_engine(train, median_config);
  const Cs2pEngine mean_engine(train, mean_config);
  EXPECT_NE(median_engine.global_initial(), mean_engine.global_initial());
}

TEST(PredictorModelAdapter, ImplementsTheSharedInterface) {
  Dataset dataset = generate_synthetic_dataset(engine_world());
  auto [train, test] = dataset.split_by_day(1);
  const Cs2pPredictorModel model(std::move(train), fast_config());
  EXPECT_EQ(model.name(), "CS2P");

  const auto& probe = test.sessions()[0];
  auto predictor = model.make_session(SessionContext::from(probe));
  const auto initial = predictor->predict_initial();
  ASSERT_TRUE(initial.has_value());
  EXPECT_GT(*initial, 0.0);
  // Cold predict (before any observation) returns the initial value.
  EXPECT_DOUBLE_EQ(predictor->predict(1), *initial);
  predictor->observe(probe.throughput_mbps[0]);
  EXPECT_GT(predictor->predict(1), 0.0);
  EXPECT_GT(predictor->predict(10), 0.0);
}

TEST(Engine, QuarantinesClustersWhoseTrainingThrows) {
  Dataset dataset = generate_synthetic_dataset(engine_world());
  auto [train, test] = dataset.split_by_day(1);

  // Trainer hook: let the constructor's global training succeed, then make
  // every per-cluster EM run blow up. The engine must isolate the failures
  // instead of propagating them to session_model() callers.
  auto calls = std::make_shared<std::atomic<int>>(0);
  Cs2pConfig config = fast_config();
  config.trainer = [calls](const std::vector<std::vector<double>>& sequences,
                           const BaumWelchConfig& bw) {
    if (calls->fetch_add(1) == 0) return train_hmm(sequences, bw);
    throw TrainingError("injected EM failure");
  };
  const Cs2pEngine engine(std::move(train), config);

  // Find a probe whose lookup actually attempts cluster training (sessions
  // with no matching cluster fall back to global without calling the
  // trainer and prove nothing about quarantine).
  const Session* probe = nullptr;
  SessionModelRef ref;
  for (const auto& s : test.sessions()) {
    const int before = calls->load();
    ASSERT_NO_THROW(ref = engine.session_model(s.features, s.start_hour));
    if (calls->load() > before) {
      probe = &s;
      break;
    }
  }
  ASSERT_NE(probe, nullptr) << "no test session mapped to a trainable cluster";
  ASSERT_NE(ref.kernel, nullptr);
  EXPECT_TRUE(ref.used_global_model) << "quarantined cluster must fall back";
  EXPECT_EQ(&ref.kernel->model(), &engine.global_hmm());
  EXPECT_NE(ref.cluster_label.find("quarantined"), std::string::npos);
  EXPECT_EQ(engine.stats().clusters_quarantined, 1u);
  EXPECT_EQ(engine.stats().clusters_trained, 0u);

  // Repeat lookups serve from the quarantine set: no retraining attempt, no
  // double counting, no throw.
  const int calls_before = calls->load();
  ASSERT_NO_THROW(engine.session_model(probe->features, probe->start_hour));
  EXPECT_EQ(calls->load(), calls_before);
  EXPECT_EQ(engine.stats().clusters_quarantined, 1u);
}

TEST(Engine, WarmUpSurvivesTrainingFailures) {
  Dataset dataset = generate_synthetic_dataset(engine_world());
  auto [train, test] = dataset.split_by_day(1);
  (void)test;

  // Every other cluster fails to train; warm_up must still complete and the
  // healthy clusters must still get real models.
  auto calls = std::make_shared<std::atomic<int>>(0);
  Cs2pConfig config = fast_config();
  config.trainer = [calls](const std::vector<std::vector<double>>& sequences,
                           const BaumWelchConfig& bw) {
    const int n = calls->fetch_add(1);
    if (n > 0 && n % 2 == 1) throw TrainingError("injected EM failure");
    return train_hmm(sequences, bw);
  };
  const Cs2pEngine engine(std::move(train), config);
  ASSERT_NO_THROW(engine.warm_up());
  EXPECT_GT(engine.stats().clusters_trained, 0u);
  EXPECT_GT(engine.stats().clusters_quarantined, 0u);
}

TEST(Engine, ThrowingCacheFillDoesNotPoisonTheCache) {
  Dataset dataset = generate_synthetic_dataset(engine_world());
  auto [train, test] = dataset.split_by_day(1);

  // First per-cluster attempt throws, later ones succeed. The failed attempt
  // must not leave a half-built cache entry behind: the cluster is
  // quarantined (deterministically served by the global model), not cached
  // as garbage.
  auto calls = std::make_shared<std::atomic<int>>(0);
  Cs2pConfig config = fast_config();
  config.trainer = [calls](const std::vector<std::vector<double>>& sequences,
                           const BaumWelchConfig& bw) {
    if (calls->fetch_add(1) == 1) throw TrainingError("injected EM failure");
    return train_hmm(sequences, bw);
  };
  const Cs2pEngine engine(std::move(train), config);

  // As above: pick a probe that actually exercises the cache-fill path.
  const Session* probe = nullptr;
  SessionModelRef first;
  for (const auto& s : test.sessions()) {
    const int before = calls->load();
    first = engine.session_model(s.features, s.start_hour);
    if (calls->load() > before) {
      probe = &s;
      break;
    }
  }
  ASSERT_NE(probe, nullptr) << "no test session mapped to a trainable cluster";
  const SessionModelRef again =
      engine.session_model(probe->features, probe->start_hour);
  EXPECT_TRUE(first.used_global_model);
  EXPECT_TRUE(again.used_global_model);
  EXPECT_EQ(first.kernel, again.kernel);
  EXPECT_EQ(engine.stats().clusters_quarantined, 1u);

  // A *different* cluster trains fine afterwards: isolation is per-cluster.
  for (const auto& s : test.sessions()) {
    const SessionModelRef other = engine.session_model(s.features, s.start_hour);
    if (!other.used_global_model) {
      EXPECT_NE(&other.kernel->model(), &engine.global_hmm());
      break;
    }
  }
  EXPECT_GT(engine.stats().clusters_trained, 0u);
}

TEST(PredictorModelAdapter, NullEngineThrows) {
  EXPECT_THROW(Cs2pPredictorModel(std::shared_ptr<const Cs2pEngine>{}),
               std::invalid_argument);
}

TEST(PredictorModelAdapter, SharedEngineReuse) {
  Dataset dataset = generate_synthetic_dataset(engine_world());
  auto [train, test] = dataset.split_by_day(1);
  auto engine = std::make_shared<Cs2pEngine>(std::move(train), fast_config());
  const Cs2pPredictorModel a(engine);
  const Cs2pPredictorModel b(engine);
  EXPECT_EQ(&a.engine(), &b.engine());
}

/// A random valid model: stochastic rows by normalizing uniform draws,
/// well-spread means, sigmas well above the kernel floor.
GaussianHmm random_model(Rng& rng, std::size_t n) {
  GaussianHmm model;
  model.initial.resize(n);
  double sum = 0.0;
  for (auto& p : model.initial) sum += (p = rng.uniform(0.05, 1.0));
  for (auto& p : model.initial) p /= sum;
  model.transition = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j)
      row += (model.transition(i, j) = rng.uniform(0.05, 1.0));
    for (std::size_t j = 0; j < n; ++j) model.transition(i, j) /= row;
  }
  model.states.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    model.states[i].mean = 0.5 + 1.5 * static_cast<double>(i) +
                           rng.uniform(0.0, 1.0);
    model.states[i].sigma = rng.uniform(0.05, 1.0);
  }
  return model;
}

/// A stream sample: usually near a random state mean, occasionally an
/// absurd outlier that zeroes every emission (the degenerate-update path).
double random_sample(Rng& rng, const GaussianHmm& model) {
  if (rng.uniform() < 0.08) return 1e12;
  const auto& s = model.states[rng.uniform_index(model.num_states())];
  return s.mean + s.sigma * rng.gaussian();
}

/// observe_batch / predict_batch over a mixed predictor population — plain
/// HMM sessions, guarded sessions (some tripping their guardrail
/// mid-stream) on two distinct kernels, and a cold-start session that is
/// only ever asked to predict. Every item must match an identically driven
/// twin called through observe()/predict() directly.
TEST(Engine, BatchMatchesScalarAcrossPredictorMix) {
  Rng rng(0x5eedf00dULL);
  const auto kernel_a = HmmKernel::create(random_model(rng, 4));
  const auto kernel_b = HmmKernel::create(random_model(rng, 6));

  const SurpriseBaseline baseline{-1.0, 1.0};

  // Twin populations: index-matched, identically constructed.
  std::vector<std::unique_ptr<SessionPredictor>> via_batch;
  std::vector<std::unique_ptr<SessionPredictor>> via_scalar;
  const auto add_pair = [&](auto make) {
    via_batch.push_back(make());
    via_scalar.push_back(make());
  };
  for (int i = 0; i < 6; ++i) {
    const auto& kernel = (i % 2 == 0) ? kernel_a : kernel_b;
    add_pair([&] {
      return std::make_unique<HmmSessionPredictor>(kernel, 2.0);
    });
    add_pair([&] {
      return std::make_unique<GuardedSessionPredictor>(kernel, 2.0, 1.5,
                                                       baseline);
    });
  }
  const std::size_t observed = via_batch.size();
  add_pair([&] { return std::make_unique<HmmSessionPredictor>(kernel_a, 7.25); });

  std::vector<ObserveBatchItem> items(observed);
  std::size_t tripped_replies = 0;
  for (int round = 0; round < 15; ++round) {
    for (std::size_t i = 0; i < observed; ++i) {
      const auto& model =
          (i / 2 % 2 == 0) ? kernel_a->model() : kernel_b->model();
      const double w = random_sample(rng, model);
      items[i] = {via_batch[i].get(), w};
      via_scalar[i]->observe(w);
    }
    EXPECT_EQ(Cs2pEngine::observe_batch(items).batched, observed);
    for (std::size_t i = 0; i < observed; ++i) {
      ASSERT_EQ(items[i].prediction, via_scalar[i]->predict(1))
          << "round " << round << " item " << i;
      const auto ll_b = via_batch[i]->last_log_likelihood();
      const auto ll_s = via_scalar[i]->last_log_likelihood();
      ASSERT_EQ(ll_b.has_value(), ll_s.has_value());
      if (ll_b.has_value()) {
        ASSERT_EQ(*ll_b, *ll_s);
      }
      ASSERT_EQ(via_batch[i]->serve_flags(), via_scalar[i]->serve_flags())
          << "round " << round << " item " << i;
      if (via_batch[i]->serve_flags() & serve_flags::kGuardrailTripped)
        ++tripped_replies;
    }

    std::vector<PredictBatchItem> predicts(via_batch.size());
    const unsigned steps = 1 + static_cast<unsigned>(rng.uniform_index(20));
    for (std::size_t i = 0; i < predicts.size(); ++i)
      predicts[i] = {via_batch[i].get(), steps};
    EXPECT_EQ(Cs2pEngine::predict_batch(predicts).batched, predicts.size());
    for (std::size_t i = 0; i < predicts.size(); ++i)
      ASSERT_EQ(predicts[i].prediction, via_scalar[i]->predict(steps))
          << "round " << round << " item " << i << " horizon " << steps;
    EXPECT_EQ(predicts.back().prediction, 7.25);  // still cold
  }
  // The mix did exercise the degraded path at the shipped thresholds.
  EXPECT_GT(tripped_replies, 0u);
}

}  // namespace
}  // namespace cs2p
