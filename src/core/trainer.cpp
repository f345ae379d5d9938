#include "core/trainer.h"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "core/model_store.h"
#include "hmm/baum_welch.h"
#include "hmm/online_filter.h"
#include "util/stats.h"

namespace cs2p {
namespace {

/// Floor for one-step log-likelihoods: a degenerate update reports -inf,
/// which would let a single underflow dominate any mean/median. -50 nats is
/// already "the model assigns this observation essentially zero mass".
constexpr double kLogLikelihoodFloor = -50.0;

/// Denominator floor for relative horizon error (Mbps).
constexpr double kThroughputFloor = 0.01;

double clamped_log_likelihood(double ll) noexcept {
  if (std::isnan(ll)) return kLogLikelihoodFloor;
  return std::max(ll, kLogLikelihoodFloor);
}

std::string sanitize_label(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw)
    out += std::isprint(static_cast<unsigned char>(c)) ? c : '_';
  return out;
}

double sequence_mean(const std::vector<double>& xs) noexcept {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

}  // namespace

std::string_view canary_reject_reason_name(CanaryRejectReason reason) noexcept {
  switch (reason) {
    case CanaryRejectReason::kTrainingFailed: return "TRAINING_FAILED";
    case CanaryRejectReason::kInsufficientData: return "INSUFFICIENT_DATA";
    case CanaryRejectReason::kLogLikelihood: return "LOG_LIKELIHOOD";
    case CanaryRejectReason::kHorizonError: return "HORIZON_ERROR";
  }
  return "UNKNOWN";
}

ContinuousTrainer::MetricHandles ContinuousTrainer::MetricHandles::create(
    obs::MetricsRegistry& registry) {
  MetricHandles m;
  m.ingested = &registry.counter("cs2p_trainer_sessions_ingested_total");
  m.dropped_no_cluster = &registry.counter("cs2p_trainer_sessions_dropped_total",
                                           {{"reason", "no_cluster"}});
  m.dropped_short = &registry.counter("cs2p_trainer_sessions_dropped_total",
                                      {{"reason", "short"}});
  m.retrains = &registry.counter("cs2p_trainer_retrains_total");
  m.accepts = &registry.counter("cs2p_trainer_canary_accept_total");
  m.rejects_total = &registry.counter("cs2p_trainer_canary_reject_total");
  for (int r = 0; r < 4; ++r) {
    m.rejects_by_reason[r] = &registry.counter(
        "cs2p_trainer_canary_reject_by_reason_total",
        {{"reason", std::string(canary_reject_reason_name(
                        static_cast<CanaryRejectReason>(r)))}});
  }
  m.rollbacks = &registry.counter("cs2p_trainer_rollback_total");
  m.generation = &registry.gauge("cs2p_trainer_generation");
  m.model_age = &registry.gauge("cs2p_trainer_model_age_seconds");
  m.clusters_tracked = &registry.gauge("cs2p_trainer_clusters_tracked");
  m.retrain_lag = &registry.histogram("cs2p_trainer_retrain_lag_seconds",
                                      obs::default_duration_buckets_seconds());
  return m;
}

ContinuousTrainer::ContinuousTrainer(std::shared_ptr<const Cs2pEngine> engine,
                                     TrainerConfig config)
    : config_(config),
      engine_(std::move(engine)),
      rng_(config.seed),
      metrics_(engine_ && engine_->config().metrics
                   ? engine_->config().metrics
                   : std::make_shared<obs::MetricsRegistry>()),
      m_(MetricHandles::create(*metrics_)) {
  if (!engine_)
    throw std::invalid_argument("ContinuousTrainer: null engine");
  if (config_.reservoir_size == 0 || config_.holdout_stride == 0 ||
      config_.horizon == 0)
    throw std::invalid_argument("ContinuousTrainer: zero-sized config field");
  incumbent_checksum_ = snapshot_checksum(serialize_engine(*engine_));
  last_swap_ = Clock::now();
  m_.generation->set(static_cast<double>(engine_->lineage().generation));
}

ContinuousTrainer::~ContinuousTrainer() { stop(); }

void ContinuousTrainer::set_publish(TrainerPublishFn publish) {
  std::scoped_lock lock(publish_mutex_);
  publish_ = std::move(publish);
}

std::shared_ptr<const Cs2pEngine> ContinuousTrainer::engine() const {
  std::scoped_lock lock(mutex_);
  return engine_;
}

void ContinuousTrainer::set_engine(std::shared_ptr<const Cs2pEngine> engine,
                                   const std::string& snapshot_bytes) {
  if (!engine) throw std::invalid_argument("ContinuousTrainer: null engine");
  // Exclude an in-flight run_once so the external reload and a trainer swap
  // cannot interleave adoption.
  std::scoped_lock train_lock(train_mutex_);
  std::scoped_lock lock(mutex_);
  engine_ = std::move(engine);
  incumbent_checksum_ = snapshot_checksum(snapshot_bytes);
  last_swap_ = Clock::now();
  m_.generation->set(static_cast<double>(engine_->lineage().generation));
  // The reload rebuilt every cluster from scratch: probations guarded models
  // of a superseded lineage, movement baselines restart from the reservoirs.
  for (auto& [key, state] : clusters_) {
    (void)key;
    state.probation = {};
    state.model_born = last_swap_;
  }
}

ContinuousTrainer::ClusterState& ContinuousTrainer::state_for(
    std::size_t candidate_id, const std::string& bucket_key) {
  const std::string key = std::to_string(candidate_id) + ":" + bucket_key;
  auto it = clusters_.find(key);
  if (it != clusters_.end()) return it->second;

  ClusterState state;
  state.candidate_id = candidate_id;
  state.bucket_key = bucket_key;
  state.model_born = last_swap_;
  if (const Cluster* cluster = engine_->find_cluster(candidate_id, bucket_key)) {
    state.baseline_mean = cluster->average_median;
    state.baseline_set = true;
  }
  const std::string label = sanitize_label(key);
  state.generation_gauge = &metrics_->gauge("cs2p_trainer_cluster_generation",
                                            {{"cluster", label}});
  state.age_gauge = &metrics_->gauge("cs2p_trainer_cluster_model_age_seconds",
                                     {{"cluster", label}});
  auto [slot, inserted] = clusters_.emplace(key, std::move(state));
  if (inserted)
    m_.clusters_tracked->set(static_cast<double>(clusters_.size()));
  return slot->second;
}

void ContinuousTrainer::ingest(const SessionFeatures& features,
                               double start_hour,
                               const std::vector<double>& observations) {
  // Sample-wise sanitization mirrors the serving-side ObservationSanitizer:
  // a single NaN must not poison a reservoir entry.
  std::vector<double> clean;
  clean.reserve(observations.size());
  for (double w : observations)
    if (std::isfinite(w) && w >= 0.0) clean.push_back(w);
  if (clean.size() < config_.min_sequence_epochs) {
    m_.dropped_short->inc();
    return;
  }

  std::shared_ptr<const Cs2pEngine> engine;
  {
    std::scoped_lock lock(mutex_);
    engine = engine_;
  }
  const SelectionResult selection =
      engine->selector().select(features, start_hour);
  if (!selection.found) {
    m_.dropped_no_cluster->inc();
    return;
  }
  const std::string bucket_key =
      engine->cluster_index()
          .index_for(selection.candidate_id)
          .bucket_key_for(features, start_hour);
  const double session_mean = sequence_mean(clean);

  std::scoped_lock lock(mutex_);
  ClusterState& state = state_for(selection.candidate_id, bucket_key);

  // Reservoir sampling: every completed session has an equal chance of
  // being in the training window, however long the cluster has streamed.
  if (state.reservoir.size() < config_.reservoir_size) {
    state.reservoir.push_back(std::move(clean));
  } else {
    const std::uint64_t j = rng_.uniform_index(state.seen + 1);
    if (j < config_.reservoir_size)
      state.reservoir[static_cast<std::size_t>(j)] = std::move(clean);
  }
  ++state.seen;

  ++state.new_since_train;
  state.recent_sum += session_mean;
  if (!state.baseline_set) {
    // No offline cluster to anchor against: the first batch of live traffic
    // becomes the baseline (and is itself retrain-eligible).
    if (state.new_since_train >= config_.min_new_sessions) {
      state.baseline_mean = state.recent_sum /
                            static_cast<double>(state.new_since_train);
      state.baseline_set = true;
      if (!state.dirty) {
        state.dirty = true;
        state.dirty_since = Clock::now();
      }
    }
  } else if (state.new_since_train >= config_.min_new_sessions) {
    const double recent_mean =
        state.recent_sum / static_cast<double>(state.new_since_train);
    const double base = std::max(state.baseline_mean, kThroughputFloor);
    if (std::abs(recent_mean - state.baseline_mean) >
        config_.stat_shift_fraction * base) {
      if (!state.dirty) {
        state.dirty = true;
        state.dirty_since = Clock::now();
      }
    }
  }
  m_.ingested->inc();
}

ContinuousTrainer::CanaryScore ContinuousTrainer::score_model(
    const GaussianHmm& model,
    const std::vector<std::vector<double>>& holdout) const {
  std::vector<double> per_sequence_ll;
  std::vector<double> horizon_errors;
  per_sequence_ll.reserve(holdout.size());
  for (const auto& sequence : holdout) {
    OnlineHmmFilter filter(model, PredictionRule::kMleState);
    double ll_sum = 0.0;
    for (std::size_t t = 0; t < sequence.size(); ++t) {
      filter.observe(sequence[t]);
      ll_sum += clamped_log_likelihood(filter.last_log_likelihood());
      // After observing epoch t, predict(h) forecasts epoch t + h.
      const std::size_t target = t + config_.horizon;
      if (target < sequence.size()) {
        const double predicted = filter.predict(config_.horizon);
        const double actual = sequence[target];
        horizon_errors.push_back(std::abs(predicted - actual) /
                                 std::max(actual, kThroughputFloor));
      }
    }
    per_sequence_ll.push_back(ll_sum / static_cast<double>(sequence.size()));
  }

  CanaryScore score;
  // Median, not mean: a poisoned minority of holdout sequences would drag a
  // mean toward whatever cover-everything model the poison trained, but
  // cannot move the median past the clean majority.
  score.median_log_likelihood = median(per_sequence_ll);
  if (!horizon_errors.empty()) {
    score.median_horizon_error = median(horizon_errors);
    score.has_horizon = true;
  }
  return score;
}

bool ContinuousTrainer::swap_cluster_model(ClusterState& state,
                                           const GaussianHmm* model,
                                           Clock::time_point now) {
  std::shared_ptr<const Cs2pEngine> base;
  std::uint64_t parent_checksum = 0;
  {
    std::scoped_lock lock(mutex_);
    base = engine_;
    parent_checksum = incumbent_checksum_;
  }

  EngineRestoreData data;
  data.global_initial = base->global_initial();
  data.global_hmm = base->global_hmm();
  data.selector_table = base->selector().error_table();
  data.cluster_models = base->export_cluster_models();
  auto entry = std::find_if(
      data.cluster_models.begin(), data.cluster_models.end(),
      [&state](const ClusterModelEntry& e) {
        return e.candidate_id == state.candidate_id &&
               e.bucket_key == state.bucket_key;
      });
  if (model != nullptr) {
    if (entry != data.cluster_models.end()) {
      entry->hmm = *model;
    } else {
      data.cluster_models.push_back(
          ClusterModelEntry{state.candidate_id, state.bucket_key, *model});
    }
  } else if (entry != data.cluster_models.end()) {
    data.cluster_models.erase(entry);
  }
  data.lineage.generation = base->lineage().generation + 1;
  data.lineage.parent_checksum = parent_checksum;

  Cs2pConfig config = base->config();
  config.metrics = metrics_;
  std::shared_ptr<const Cs2pEngine> fresh;
  try {
    fresh = std::make_shared<Cs2pEngine>(base->training(), std::move(config),
                                         std::move(data));
  } catch (const std::exception&) {
    // Defensive: every input came from a validated engine, but a swap that
    // cannot construct must never take the incumbent down with it.
    return false;
  }
  const std::string bytes = serialize_engine(*fresh);

  TrainerPublishFn publish;
  {
    std::scoped_lock lock(publish_mutex_);
    publish = publish_;
  }
  if (publish && !publish(fresh, bytes)) return false;

  {
    std::scoped_lock lock(mutex_);
    engine_ = fresh;
    incumbent_checksum_ = snapshot_checksum(bytes);
    last_swap_ = now;
  }
  m_.generation->set(static_cast<double>(fresh->lineage().generation));
  return true;
}

void ContinuousTrainer::retrain_cluster(ClusterState& state,
                                        Clock::time_point now) {
  ClusterModelView incumbent;
  std::vector<std::vector<double>> train_set, holdout;
  Clock::time_point dirty_since;
  {
    std::scoped_lock lock(mutex_);
    dirty_since = state.dirty_since;
    for (std::size_t i = 0; i < state.reservoir.size(); ++i) {
      if (i % config_.holdout_stride == 0)
        holdout.push_back(state.reservoir[i]);
      else
        train_set.push_back(state.reservoir[i]);
    }
    // The attempt consumes the movement window whatever its outcome; the
    // next verdict comes from fresh sessions, not a replay of these.
    state.new_since_train = 0;
    state.recent_sum = 0.0;
    state.dirty = false;
    incumbent =
        engine_->cluster_model_view(state.candidate_id, state.bucket_key);
  }

  const auto reject = [&](CanaryRejectReason reason) {
    m_.rejects_total->inc();
    m_.rejects_by_reason[static_cast<int>(reason)]->inc();
    std::scoped_lock lock(mutex_);
    state.last_reject = reason;
  };

  if (train_set.size() < 2 || holdout.empty()) {
    reject(CanaryRejectReason::kInsufficientData);
    return;
  }

  m_.retrains->inc();
  std::shared_ptr<const Cs2pEngine> engine;
  {
    std::scoped_lock lock(mutex_);
    engine = engine_;
  }
  GaussianHmm candidate;
  try {
    candidate = engine->run_trainer(train_set).model;
  } catch (const std::exception&) {
    reject(CanaryRejectReason::kTrainingFailed);
    return;
  }

  const CanaryScore candidate_score = score_model(candidate, holdout);
  const CanaryScore incumbent_score = score_model(incumbent.hmm, holdout);
  if (candidate_score.median_log_likelihood <
      incumbent_score.median_log_likelihood + config_.canary_margin) {
    reject(CanaryRejectReason::kLogLikelihood);
    return;
  }
  if (candidate_score.has_horizon && incumbent_score.has_horizon &&
      candidate_score.median_horizon_error >
          incumbent_score.median_horizon_error *
                  (1.0 + config_.horizon_tolerance) +
              1e-9) {
    reject(CanaryRejectReason::kHorizonError);
    return;
  }

  // Canary won: swap the candidate in and open its probation window.
  double new_baseline = 0.0;
  for (const auto& sequence : train_set)
    new_baseline += sequence_mean(sequence);
  new_baseline /= static_cast<double>(train_set.size());

  if (!swap_cluster_model(state, &candidate, now)) return;

  m_.accepts->inc();
  m_.retrain_lag->observe(
      std::chrono::duration<double>(now - dirty_since).count());
  std::scoped_lock lock(mutex_);
  state.baseline_mean = new_baseline;
  state.baseline_set = true;
  state.last_reject.reset();
  ++state.generation;
  state.model_born = now;
  state.probation.active = true;
  state.probation.parent = std::move(incumbent);
  state.probation.deadline =
      now + std::chrono::milliseconds(config_.probation_ms);
  state.generation_gauge->set(static_cast<double>(state.generation));
}

void ContinuousTrainer::resolve_probation(ClusterState& state,
                                          Clock::time_point now) {
  ClusterModelView parent;
  {
    std::scoped_lock lock(mutex_);
    if (!state.probation.active) return;
    const Cluster* cluster =
        engine_->find_cluster(state.candidate_id, state.bucket_key);
    const bool tripped = cluster != nullptr && engine_->cluster_drifted(cluster);
    if (!tripped) {
      if (now >= state.probation.deadline) {
        // Survived probation: the generation is trusted, backoff resets.
        state.probation = {};
        state.backoff_ms = 0;
      }
      return;
    }
    parent = state.probation.parent;
  }

  // Drift quorum tripped inside the probation window: re-swap the parent
  // generation (lineage moves forward — a rollback is a new generation whose
  // model happens to be the grandparent's) and back off this cluster.
  const bool swapped = swap_cluster_model(
      state, parent.cluster_specific ? &parent.hmm : nullptr, now);
  if (!swapped) return;  // publish vetoed; retry on the next pass

  m_.rollbacks->inc();
  std::scoped_lock lock(mutex_);
  state.probation = {};
  ++state.generation;
  state.model_born = now;
  state.backoff_ms = state.backoff_ms == 0
                         ? config_.backoff_initial_ms
                         : std::min(state.backoff_ms * 2, config_.backoff_max_ms);
  state.backoff_until = now + std::chrono::milliseconds(state.backoff_ms);
  state.generation_gauge->set(static_cast<double>(state.generation));
}

void ContinuousTrainer::update_age_gauges(Clock::time_point now) {
  std::scoped_lock lock(mutex_);
  m_.model_age->set(std::chrono::duration<double>(now - last_swap_).count());
  for (auto& [key, state] : clusters_) {
    (void)key;
    state.age_gauge->set(
        std::chrono::duration<double>(now - state.model_born).count());
  }
}

std::size_t ContinuousTrainer::run_once() {
  std::scoped_lock train_lock(train_mutex_);
  const Clock::time_point now = Clock::now();

  std::vector<std::string> keys;
  {
    std::scoped_lock lock(mutex_);
    keys.reserve(clusters_.size());
    for (const auto& [key, state] : clusters_) {
      (void)state;
      keys.push_back(key);
    }
  }

  std::size_t swaps = 0;
  for (const std::string& key : keys) {
    ClusterState* state = nullptr;
    bool want_retrain = false;
    bool want_probation = false;
    {
      std::scoped_lock lock(mutex_);
      auto it = clusters_.find(key);
      if (it == clusters_.end()) continue;  // states are never erased
      state = &it->second;
      want_probation = state->probation.active;
      want_retrain = !want_probation && state->dirty &&
                     state->new_since_train >= config_.min_new_sessions &&
                     now >= state->backoff_until;
    }
    // ClusterState nodes are stable (unordered_map never moves elements),
    // so the pointer survives concurrent ingest inserts; every field access
    // inside these helpers re-takes mutex_.
    if (want_probation) {
      const std::uint64_t before = m_.rollbacks->value();
      resolve_probation(*state, now);
      swaps += m_.rollbacks->value() - before;
    } else if (want_retrain) {
      const std::uint64_t before = m_.accepts->value();
      retrain_cluster(*state, now);
      swaps += m_.accepts->value() - before;
    }
  }

  update_age_gauges(now);
  return swaps;
}

void ContinuousTrainer::thread_main() {
  std::unique_lock lock(thread_mutex_);
  while (!stopping_) {
    thread_cv_.wait_for(lock,
                        std::chrono::milliseconds(config_.train_interval_ms),
                        [this] { return stopping_; });
    if (stopping_) break;
    lock.unlock();
    run_once();
    lock.lock();
  }
}

void ContinuousTrainer::start() {
  std::scoped_lock lock(thread_mutex_);
  if (running_) return;
  stopping_ = false;
  running_ = true;
  thread_ = std::thread([this] { thread_main(); });
}

void ContinuousTrainer::stop() {
  {
    std::scoped_lock lock(thread_mutex_);
    if (!running_) return;
    stopping_ = true;
  }
  thread_cv_.notify_all();
  thread_.join();
  std::scoped_lock lock(thread_mutex_);
  running_ = false;
}

TrainerStats ContinuousTrainer::stats() const {
  TrainerStats out;
  out.sessions_ingested = m_.ingested->value();
  out.sessions_dropped =
      m_.dropped_no_cluster->value() + m_.dropped_short->value();
  out.retrains = m_.retrains->value();
  out.canary_accepts = m_.accepts->value();
  out.canary_rejects = m_.rejects_total->value();
  out.rollbacks = m_.rollbacks->value();
  std::scoped_lock lock(mutex_);
  out.generation = engine_->lineage().generation;
  out.clusters_tracked = clusters_.size();
  for (const auto& [key, state] : clusters_) {
    (void)key;
    if (state.probation.active) ++out.probations_active;
  }
  return out;
}

std::optional<CanaryRejectReason> ContinuousTrainer::last_reject(
    const std::string& cluster_key) const {
  std::scoped_lock lock(mutex_);
  const auto it = clusters_.find(cluster_key);
  if (it == clusters_.end()) return std::nullopt;
  return it->second.last_reject;
}

}  // namespace cs2p
