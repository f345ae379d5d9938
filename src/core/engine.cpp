#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <tuple>

#include "predictors/hmm_session.h"
#include "util/stats.h"

namespace cs2p {
namespace {

/// Cluster drift quorum (DESIGN.md §10): a cluster is declared drifted when
/// at least kDriftQuorum of its live guarded sessions are tripped at once,
/// and at least kDriftMinTrippedSessions are. The absolute floor keeps one
/// or two unlucky sessions in a tiny cluster from condemning it; the ratio
/// keeps a large cluster from needing hundreds of trips.
constexpr std::size_t kDriftMinTrippedSessions = 4;
constexpr double kDriftQuorum = 0.5;

/// Rejects NaN/negative throughput samples before any index or HMM sees
/// them (one bad sample silently poisons Baum-Welch sufficient statistics).
/// Runs in the member-initializer list, ahead of ClusterIndex and
/// FeatureSelector construction. Empty sessions are tolerated here and
/// skipped by training, like before.
Dataset validate_training_set(Dataset training) {
  for (const auto& s : training.sessions()) {
    for (double w : s.throughput_mbps) {
      if (!std::isfinite(w) || w < 0.0)
        throw std::invalid_argument(
            "Cs2pEngine: training session " + std::to_string(s.id) +
            " has a NaN, infinite, or negative throughput sample");
    }
  }
  return training;
}

/// Deterministically subsamples up to `cap` sequences from the sessions at
/// `indices` (even stride, so long and short sessions stay represented).
std::vector<std::vector<double>> gather_sequences(const Dataset& training,
                                                  const std::vector<std::size_t>& indices,
                                                  std::size_t cap) {
  std::vector<std::vector<double>> sequences;
  if (indices.empty() || cap == 0) return sequences;
  const std::size_t stride = indices.size() > cap ? indices.size() / cap : 1;
  for (std::size_t i = 0; i < indices.size() && sequences.size() < cap; i += stride) {
    const auto& series = training.sessions()[indices[i]].throughput_mbps;
    if (series.size() >= 2) sequences.push_back(series);
  }
  return sequences;
}

}  // namespace

Cs2pEngine::MetricHandles Cs2pEngine::MetricHandles::create(
    obs::MetricsRegistry& registry) {
  MetricHandles m;
  m.sessions = &registry.counter("cs2p_engine_sessions_total");
  m.global_fallbacks = &registry.counter("cs2p_engine_global_fallbacks_total");
  m.cluster_hits = &registry.counter("cs2p_engine_cluster_hits_total");
  m.drifted_serves = &registry.counter("cs2p_engine_drifted_serves_total");
  m.quarantined_serves =
      &registry.counter("cs2p_engine_quarantined_serves_total");
  m.clusters_trained = &registry.counter("cs2p_engine_clusters_trained_total");
  m.clusters_restored = &registry.counter("cs2p_engine_clusters_restored_total");
  m.clusters_quarantined =
      &registry.counter("cs2p_engine_clusters_quarantined_total");
  m.guarded_sessions = &registry.counter("cs2p_engine_guarded_sessions_total");
  m.guardrail_trips = &registry.counter("cs2p_engine_guardrail_trips_total");
  m.guardrail_recoveries =
      &registry.counter("cs2p_engine_guardrail_recoveries_total");
  m.drifted_clusters = &registry.gauge("cs2p_engine_drifted_clusters");
  m.em_seconds = &registry.histogram("cs2p_engine_em_train_seconds",
                                     obs::default_latency_buckets_seconds());
  return m;
}

BaumWelchResult Cs2pEngine::run_trainer(
    const std::vector<std::vector<double>>& sequences) const {
  const auto start = std::chrono::steady_clock::now();
  BaumWelchResult result = config_.trainer ? config_.trainer(sequences, config_.hmm)
                                           : train_hmm(sequences, config_.hmm);
  m_.em_seconds->observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
  return result;
}

Cs2pEngine::Cs2pEngine(Dataset training, Cs2pConfig config)
    : training_(validate_training_set(std::move(training))),
      config_(std::move(config)),
      index_(training_, enumerate_candidates(), config_.selector.min_cluster_size),
      selector_(index_, config_.selector),
      metrics_(config_.metrics ? config_.metrics
                               : std::make_shared<obs::MetricsRegistry>()),
      m_(MetricHandles::create(*metrics_)),
      guardrail_metrics_(GuardrailMetrics::from_registry(*metrics_)) {
  std::vector<double> initials;
  std::vector<std::size_t> all_indices;
  for (std::size_t i = 0; i < training_.size(); ++i) {
    const auto& s = training_.sessions()[i];
    if (s.throughput_mbps.empty()) continue;
    initials.push_back(s.initial_throughput());
    all_indices.push_back(i);
  }
  if (initials.empty())
    throw std::invalid_argument("Cs2pEngine: training set has no observations");

  global_initial_ = config_.median_initial ? median(initials) : mean(initials);

  auto sequences =
      gather_sequences(training_, all_indices, config_.max_global_sequences);
  if (sequences.empty())
    throw std::invalid_argument("Cs2pEngine: no usable training sequences");
  // A failed *global* training is fatal: there is no coarser model to fall
  // back to, so TrainingError propagates to the caller here (unlike the
  // per-cluster path, which quarantines).
  global_.kernel = HmmKernel::create(run_trainer(sequences).model);
}

Cs2pEngine::Cs2pEngine(Dataset training, Cs2pConfig config,
                       EngineRestoreData restored)
    : training_(validate_training_set(std::move(training))),
      config_(std::move(config)),
      index_(training_, enumerate_candidates(), config_.selector.min_cluster_size),
      selector_(index_, config_.selector, std::move(restored.selector_table)),
      metrics_(config_.metrics ? config_.metrics
                               : std::make_shared<obs::MetricsRegistry>()),
      m_(MetricHandles::create(*metrics_)),
      guardrail_metrics_(GuardrailMetrics::from_registry(*metrics_)),
      global_{HmmKernel::create(std::move(restored.global_hmm)), std::nullopt},
      global_initial_(restored.global_initial) {
  if (!std::isfinite(global_initial_) || global_initial_ < 0.0)
    throw std::invalid_argument("Cs2pEngine: restored global initial invalid");
  for (auto& entry : restored.cluster_models) {
    if (entry.candidate_id >= index_.num_candidates())
      throw std::invalid_argument(
          "Cs2pEngine: restored cluster model has unknown candidate id");
    const auto& clusters = index_.index_for(entry.candidate_id).clusters();
    const auto it = clusters.find(entry.bucket_key);
    if (it == clusters.end())
      throw std::invalid_argument(
          "Cs2pEngine: restored cluster model has unknown bucket key");
    if (!models_.try_emplace(&it->second, HmmKernel::create(std::move(entry.hmm)))
             .second)
      throw std::invalid_argument(
          "Cs2pEngine: duplicate cluster model in restored state");
    m_.clusters_restored->inc();
  }
  lineage_ = restored.lineage;
}

const Cluster* Cs2pEngine::find_cluster(std::size_t candidate_id,
                                        const std::string& bucket_key) const {
  if (candidate_id >= index_.num_candidates()) return nullptr;
  const auto& clusters = index_.index_for(candidate_id).clusters();
  const auto it = clusters.find(bucket_key);
  return it == clusters.end() ? nullptr : &it->second;
}

ClusterModelView Cs2pEngine::cluster_model_view(
    std::size_t candidate_id, const std::string& bucket_key) const {
  ClusterModelView view;
  const Cluster* cluster = find_cluster(candidate_id, bucket_key);
  if (cluster == nullptr || cluster_drifted(cluster)) {
    view.hmm = global_hmm();
    return view;
  }
  std::scoped_lock lock(cache_mutex_);
  if (!quarantined_.contains(cluster)) {
    const auto it = models_.find(cluster);
    if (it != models_.end()) {
      view.hmm = it->second.kernel->model();
      view.cluster_specific = true;
      return view;
    }
  }
  view.hmm = global_hmm();
  return view;
}

std::vector<ClusterModelEntry> Cs2pEngine::export_cluster_models() const {
  // Reverse map: Cluster* -> stable (candidate id, bucket key) identity.
  std::unordered_map<const Cluster*, ClusterModelEntry> identity;
  for (std::size_t c = 0; c < index_.num_candidates(); ++c) {
    for (const auto& [key, cluster] : index_.index_for(c).clusters())
      identity.emplace(&cluster, ClusterModelEntry{c, key, {}});
  }

  std::vector<ClusterModelEntry> out;
  std::scoped_lock lock(cache_mutex_);
  out.reserve(models_.size());
  for (const auto& [cluster, record] : models_) {
    const auto it = identity.find(cluster);
    if (it == identity.end()) continue;  // unreachable: cache keys come from index_
    ClusterModelEntry entry = it->second;
    entry.hmm = record.kernel->model();
    out.push_back(std::move(entry));
  }
  // models_ iterates in Cluster-address order; sorting by the stable
  // identity makes equal model sets serialize to equal bytes.
  std::sort(out.begin(), out.end(),
            [](const ClusterModelEntry& a, const ClusterModelEntry& b) {
              return std::tie(a.candidate_id, a.bucket_key) <
                     std::tie(b.candidate_id, b.bucket_key);
            });
  return out;
}

double Cs2pEngine::cluster_initial(const Cluster& cluster) const {
  if (config_.median_initial) return cluster.initial_median;
  std::vector<double> initials;
  initials.reserve(cluster.size());
  for (std::size_t i : cluster.session_indices)
    initials.push_back(training_.sessions()[i].initial_throughput());
  return mean(initials);
}

std::pair<const Cs2pEngine::ModelRecord*, std::optional<SurpriseBaseline>>
Cs2pEngine::cluster_model(const Cluster& cluster) const {
  {
    std::scoped_lock lock(cache_mutex_);
    const ModelRecord* record = &global_;
    if (!quarantined_.contains(&cluster)) {
      const auto it = models_.find(&cluster);
      record = it != models_.end() ? &it->second : nullptr;
    }
    if (record != nullptr) return {record, record->baseline};
  }

  // Train outside the lock: EM dominates, and a rare duplicate training of
  // the same cluster is harmless (first insert wins). A cluster with no
  // usable sequence gets its own record on the global model's kernel.
  auto sequences = gather_sequences(training_, cluster.session_indices,
                                    config_.max_sequences_per_cluster);
  std::shared_ptr<const HmmKernel> kernel = global_.kernel;
  if (!sequences.empty()) {
    try {
      kernel = HmmKernel::create(run_trainer(sequences).model);
    } catch (const std::exception&) {
      // Failure isolation: one degenerate cluster (EM collapse, zero
      // variance, injected fault) must not throw into the serving path —
      // and must not leave a partial cache entry that re-throws on every
      // later session. Quarantine it once and serve the global model.
      std::scoped_lock lock(cache_mutex_);
      if (quarantined_.insert(&cluster).second) m_.clusters_quarantined->inc();
      return {&global_, global_.baseline};
    }
  }

  std::scoped_lock lock(cache_mutex_);
  const auto [it, inserted] = models_.try_emplace(&cluster, std::move(kernel));
  if (inserted) m_.clusters_trained->inc();
  return {&it->second, it->second.baseline};
}

SurpriseBaseline Cs2pEngine::baseline_of(const ModelRecord& record) const {
  {
    std::scoped_lock lock(cache_mutex_);
    if (record.baseline) return *record.baseline;
  }
  // Monte Carlo over the model itself, outside the lock: it replays
  // kBaselineSequences synthetic sessions through forward filters on the
  // record's kernel. A rare duplicate computation is harmless
  // (deterministic seed, first insert wins).
  const SurpriseBaseline baseline = compute_surprise_baseline(record.kernel);
  std::scoped_lock lock(cache_mutex_);
  if (!record.baseline) record.baseline = baseline;
  return *record.baseline;
}

SessionModelRef Cs2pEngine::session_model(const SessionFeatures& features,
                                          double start_hour) const {
  const SelectionResult selection = selector_.select(features, start_hour);
  m_.sessions->inc();
  SessionModelRef ref;
  ref.initial_prediction = global_initial_;
  const ModelRecord* record = &global_;
  const Cluster* cluster = selection.cluster;
  if (cluster == nullptr) {
    m_.global_fallbacks->inc();
    ref.cluster_label = "(global)";
  } else {
    ref.cluster_label =
        candidate_to_string(index_.index_for(selection.candidate_id).candidate());
    ref.cluster_size = cluster->size();
    if (cluster_drifted(cluster)) {
      // A drifted cluster's trained state no longer matches what its
      // sessions measure, so — unlike quarantine — even the cluster's
      // initial median is suspect: serve the global model wholesale and
      // leave ref.cluster null so post-drift sessions don't keep feeding
      // the quorum that already fired.
      m_.drifted_serves->inc();
      ref.flags = serve_flags::kClusterDrifted;
      ref.cluster_label += " (drifted)";
    } else {
      std::tie(record, ref.baseline) = cluster_model(*cluster);
      ref.initial_prediction = cluster_initial(*cluster);
      ref.cluster = cluster;
      // A quarantined cluster's sessions run on the global HMM (the
      // cluster's initial median is still valid — it is raw data, not an
      // EM product).
      if (record == &global_) {
        m_.quarantined_serves->inc();
        ref.cluster_label += " (quarantined)";
      } else {
        m_.cluster_hits->inc();
      }
    }
  }
  ref.used_global_model = record == &global_;
  if (ref.used_global_model) ref.flags |= serve_flags::kGlobalModel;
  ref.kernel = record->kernel;
  if (config_.guardrail && !ref.baseline) ref.baseline = baseline_of(*record);
  return ref;
}

std::size_t Cs2pEngine::warm_up() const {
  std::size_t before = 0;
  {
    std::scoped_lock lock(cache_mutex_);
    before = models_.size();
  }
  for (const auto& session : training_.sessions()) {
    if (session.throughput_mbps.empty()) continue;
    const SelectionResult selection =
        selector_.select(session.features, session.start_hour);
    if (selection.cluster != nullptr) (void)cluster_model(*selection.cluster);
  }
  std::scoped_lock lock(cache_mutex_);
  return models_.size() - before;
}

void Cs2pEngine::note_guardrail_event(const Cluster* cluster,
                                      GuardrailEvent event,
                                      bool tripped) const {
  std::scoped_lock lock(drift_mutex_);
  DriftCounters* counters =
      cluster != nullptr ? &drift_counters_[cluster] : nullptr;
  switch (event) {
    case GuardrailEvent::kOpened:
      m_.guarded_sessions->inc();
      if (counters != nullptr) ++counters->live;
      break;
    case GuardrailEvent::kTripped:
      m_.guardrail_trips->inc();
      if (counters != nullptr) {
        ++counters->tripped;
        if (counters->tripped >= kDriftMinTrippedSessions &&
            counters->live > 0 &&
            static_cast<double>(counters->tripped) >=
                kDriftQuorum * static_cast<double>(counters->live)) {
          if (drifted_.insert(cluster).second)
            m_.drifted_clusters->set(static_cast<double>(drifted_.size()));
        }
      }
      break;
    case GuardrailEvent::kRecovered:
      m_.guardrail_recoveries->inc();
      if (counters != nullptr && counters->tripped > 0) --counters->tripped;
      break;
    case GuardrailEvent::kClosed:
      if (counters != nullptr) {
        if (counters->live > 0) --counters->live;
        if (tripped && counters->tripped > 0) --counters->tripped;
      }
      break;
  }
}

std::size_t Cs2pEngine::drifted_cluster_count() const {
  std::scoped_lock lock(drift_mutex_);
  return drifted_.size();
}

bool Cs2pEngine::cluster_drifted(const Cluster* cluster) const {
  std::scoped_lock lock(drift_mutex_);
  return drifted_.contains(cluster);
}

BatchStats Cs2pEngine::observe_batch(std::span<ObserveBatchItem> items) {
  for (ObserveBatchItem& item : items) {
    item.predictor->observe(item.observation);
    item.prediction = item.predictor->predict(1);
  }
  return {items.size()};
}

BatchStats Cs2pEngine::predict_batch(std::span<PredictBatchItem> items) {
  for (PredictBatchItem& item : items)
    item.prediction = item.predictor->predict(item.steps_ahead);
  return {items.size()};
}

EngineStats Cs2pEngine::stats() const {
  EngineStats out;
  out.sessions_served = m_.sessions->value();
  out.global_fallbacks = m_.global_fallbacks->value();
  out.clusters_trained = m_.clusters_trained->value();
  out.clusters_restored = m_.clusters_restored->value();
  out.clusters_quarantined = m_.clusters_quarantined->value();
  out.guarded_sessions = m_.guarded_sessions->value();
  out.guardrail_trips = m_.guardrail_trips->value();
  out.guardrail_recoveries = m_.guardrail_recoveries->value();
  std::scoped_lock lock(drift_mutex_);
  out.clusters_drifted = drifted_.size();
  return out;
}

Cs2pPredictorModel::Cs2pPredictorModel(Dataset training, Cs2pConfig config)
    : engine_(std::make_shared<Cs2pEngine>(std::move(training), config)) {}

Cs2pPredictorModel::Cs2pPredictorModel(std::shared_ptr<const Cs2pEngine> engine)
    : engine_(std::move(engine)) {
  if (!engine_) throw std::invalid_argument("Cs2pPredictorModel: null engine");
}

std::unique_ptr<SessionPredictor> Cs2pPredictorModel::make_session(
    const SessionContext& context) const {
  SessionModelRef ref =
      engine_->session_model(context.features, context.start_hour);
  const Cs2pConfig& config = engine_->config();
  // Sessions share their model's SoA kernel: one contiguous constants block
  // per model instead of a private copy per session.
  if (!config.guardrail) {
    return std::make_unique<HmmSessionPredictor>(
        std::move(ref.kernel), ref.initial_prediction, config.prediction_rule,
        ref.flags);
  }

  // The callback owns a shared_ptr to the engine: a guarded session may
  // outlive a model hot-swap, and its kClosed event must still find the
  // drift counters it incremented at kOpened.
  auto engine = engine_;
  const Cluster* cluster = ref.cluster;
  return std::make_unique<GuardedSessionPredictor>(
      std::move(ref.kernel), ref.initial_prediction, engine_->global_initial(),
      *ref.baseline, config.prediction_rule, ref.flags,
      [engine = std::move(engine), cluster](GuardrailEvent event, bool tripped) {
        engine->note_guardrail_event(cluster, event, tripped);
      },
      &engine_->guardrail_metrics());
}

std::optional<DownloadableModel> Cs2pPredictorModel::downloadable_model(
    const SessionContext& context) const {
  const SessionModelRef ref =
      engine_->session_model(context.features, context.start_hour);
  DownloadableModel out;
  out.initial_mbps = ref.initial_prediction;
  out.used_global_model = ref.used_global_model;
  out.hmm = ref.kernel->model();
  return out;
}

}  // namespace cs2p
