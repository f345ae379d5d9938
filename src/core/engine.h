// The CS2P Prediction Engine (paper §4-§5): the trained artifact that video
// servers or clients query for per-session throughput models.
//
// Offline (construction): builds the cluster index over the training set
// (only the buckets at or above the selector's min-cluster-size threshold),
// precomputes the feature-selection error table, and trains the global
// fallback HMM. Per-cluster HMMs are trained lazily on first use and cached,
// mirroring the paper's per-day offline training that "can be easily
// parallelized" — here we simply amortise it across queries.
//
// Online: session_model() maps a new session to its best cluster (M*_s),
// returning the cluster's HMM and median initial throughput — or the global
// model when no cluster survives the min-size threshold (the paper measures
// ~4% of sessions on the global model).
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/feature_selector.h"
#include "hmm/baum_welch.h"
#include "hmm/online_filter.h"
#include "obs/metrics.h"
#include "predictors/guarded_session.h"
#include "predictors/guardrail.h"
#include "predictors/predictor.h"

namespace cs2p {

/// Training-function hook: defaults to train_hmm. Tests and fault-injection
/// harnesses substitute a trainer that throws to exercise the engine's
/// cluster-quarantine path. Not part of the config fingerprint.
using TrainerFn = std::function<BaumWelchResult(
    const std::vector<std::vector<double>>&, const BaumWelchConfig&)>;

struct Cs2pConfig {
  FeatureSelectorConfig selector;
  BaumWelchConfig hmm;  ///< per-cluster HMM training (N = 6 by default)
  std::size_t max_sequences_per_cluster = 60;  ///< EM cost bound
  std::size_t max_global_sequences = 1200;
  PredictionRule prediction_rule = PredictionRule::kMleState;
  bool median_initial = true;  ///< false: mean (ablation of Eq. 6)
  /// Per-session prediction guardrails (sanitizer + surprise monitor +
  /// fallback chain) and the cluster drift quorum they feed (DESIGN.md §10),
  /// at the thresholds of predictors/guardrail.h. Serving-time behavior
  /// only — excluded from the snapshot config fingerprint like the trainer
  /// hook, because it does not change any trained artifact.
  bool guardrail = false;
  TrainerFn trainer;  ///< training override (tests); null = train_hmm
  /// Telemetry sink (DESIGN.md §11). Null: the engine creates a private
  /// registry, so per-engine stats stay hermetic; serving tools inject the
  /// process-wide registry so engine counters appear in one STATS scrape.
  /// Excluded from the snapshot config fingerprint like the trainer hook.
  std::shared_ptr<obs::MetricsRegistry> metrics;
};

/// What the engine hands out for one session: the model that serves it,
/// resolved once.
struct SessionModelRef {
  /// The serving model's shared kernel (the engine's only copy of it); every
  /// session on that model holds the same one.
  std::shared_ptr<const HmmKernel> kernel;
  double initial_prediction = 0.0;   ///< Mbps
  bool used_global_model = false;
  /// serve_flags:: bits fixed for the session's lifetime: kGlobalModel when
  /// the global HMM serves (no cluster, quarantine, or drift), plus
  /// kClusterDrifted when the cluster is drift-marked.
  std::uint8_t flags = serve_flags::kPrimary;
  /// The serving model's surprise baseline; set when the engine's guardrail
  /// is on (computed on the model's first session, then cached).
  std::optional<SurpriseBaseline> baseline;
  std::string cluster_label;         ///< candidate description, for logs
  std::size_t cluster_size = 0;
  /// Identity of the serving cluster for drift attribution; null when the
  /// session runs on the global model (no cluster to attribute to).
  const Cluster* cluster = nullptr;
};

/// Engine usage counters (coverage diagnostics for §7.4, plus the failure-
/// isolation and snapshot-restore counters of the model lifecycle, plus the
/// guardrail/drift counters of the prediction guardrails). Since the
/// telemetry layer these are a *read-out of the metrics registry* — the
/// registry is the single source of truth, this struct is the convenience
/// snapshot tests and benches consume.
struct EngineStats {
  std::size_t sessions_served = 0;
  std::size_t global_fallbacks = 0;
  std::size_t clusters_trained = 0;
  std::size_t clusters_restored = 0;     ///< cache entries seeded from a snapshot
  std::size_t clusters_quarantined = 0;  ///< EM failures isolated to the global model
  std::size_t clusters_drifted = 0;      ///< guardrail quorum marked these drifted
  std::size_t guarded_sessions = 0;      ///< sessions opened with a guardrail
  std::size_t guardrail_trips = 0;       ///< session-level DEGRADED entries
  std::size_t guardrail_recoveries = 0;  ///< session-level recoveries
};

/// Where a trained engine sits in the continuous-training lineage
/// (DESIGN.md §15). Generation 0 with a zero parent checksum is the
/// offline-trained root; every canary-accepted retrain (and every rollback)
/// increments the generation and records the snapshot checksum of the
/// engine it was derived from, so an operator can walk a serving model back
/// to its ancestry and the trainer can re-swap the parent on rollback.
struct ModelLineage {
  std::uint64_t generation = 0;
  std::uint64_t parent_checksum = 0;  ///< snapshot_checksum of the parent
};

/// One cached per-cluster model, addressed by its stable identity
/// (candidate id + bucket key) instead of the in-memory Cluster pointer —
/// this is what the snapshot store persists and the restore path replays.
struct ClusterModelEntry {
  std::size_t candidate_id = 0;
  std::string bucket_key;
  GaussianHmm hmm;
};

/// Trained state a snapshot restores into an engine, skipping every EM run
/// and the feature-selection precompute.
struct EngineRestoreData {
  double global_initial = 0.0;
  GaussianHmm global_hmm;
  std::vector<std::vector<double>> selector_table;  ///< err(M, s') rows
  std::vector<ClusterModelEntry> cluster_models;
  ModelLineage lineage;
};

/// What a (candidate id, bucket key) cluster serves right now — the view
/// the continuous trainer's canary gate evaluates candidates against.
struct ClusterModelView {
  GaussianHmm hmm;  ///< copy of the serving model
  /// False when the cluster is served by the global fallback (uncached,
  /// quarantined, or drift-marked) instead of its own model.
  bool cluster_specific = false;
};

// -- Item-list serving API (DESIGN.md §16) ----------------------------------
// A list of (session, value) items, served in item order through each
// session's own observe()/predict(): the engine-side work of the server's
// OBSERVE/PREDICT frames, without sockets or the session table. servebench
// replays captured traffic through it.

/// One OBSERVE: advance the session on `observation`, then produce the
/// next-epoch prediction.
struct ObserveBatchItem {
  SessionPredictor* predictor = nullptr;
  double observation = 0.0;
  double prediction = 0.0;  ///< out
};

/// One PREDICT at an arbitrary horizon.
struct PredictBatchItem {
  SessionPredictor* predictor = nullptr;
  unsigned steps_ahead = 1;  ///< must be >= 1
  double prediction = 0.0;   ///< out
};

/// What one call served.
struct BatchStats {
  std::size_t batched = 0;  ///< predictions the call produced
};

class Cs2pEngine {
 public:
  /// Copies the training dataset (the engine must outlive external data).
  /// Throws std::invalid_argument on an empty or all-empty training set, or
  /// when any session carries a NaN, infinite, or negative throughput
  /// sample (ingest validation — bad data must not reach Baum-Welch).
  Cs2pEngine(Dataset training, Cs2pConfig config = {});

  /// Restore path: rebuilds the cheap structural state (the cluster index,
  /// pruned at config.selector.min_cluster_size like a fresh engine's, and
  /// the neighbourhood maps) from `training` and adopts the expensive trained
  /// state from `restored` — no Baum-Welch runs, no error-table precompute.
  /// Throws std::invalid_argument when the restored state does not fit the
  /// dataset (unknown cluster key, wrong table shape, invalid model); the
  /// model store wraps that into a typed SnapshotError.
  Cs2pEngine(Dataset training, Cs2pConfig config, EngineRestoreData restored);

  /// Resolves the prediction model for a new session.
  SessionModelRef session_model(const SessionFeatures& features,
                                double start_hour) const;

  /// Pre-trains cluster HMMs for the feature tuples seen in training — the
  /// paper's per-day offline training (§6: "we do it on a per-day basis"),
  /// so that serving threads never pay EM latency. Returns the number of
  /// distinct cluster models trained.
  std::size_t warm_up() const;

  /// The engine's one EM entry point: config().trainer when set, train_hmm
  /// otherwise, with config().hmm, timed into cs2p_engine_em_train_seconds.
  /// Every fit the engine or its continuous trainer makes goes through it.
  BaumWelchResult run_trainer(const std::vector<std::vector<double>>& sequences) const;

  const Cs2pConfig& config() const noexcept { return config_; }
  EngineStats stats() const;

  /// The registry this engine reports into (config().metrics, or the
  /// engine's private one).
  obs::MetricsRegistry& metrics() const noexcept { return *metrics_; }

  /// Shared guardrail counter handles, passed to every guarded session this
  /// engine's model spawns.
  const GuardrailMetrics& guardrail_metrics() const noexcept {
    return guardrail_metrics_;
  }

  /// For each item in order: observe() its observation, then predict(1)
  /// into `prediction` (the OBSERVE reply). A session may appear more than
  /// once; its items apply in order. The caller holds whatever locks protect
  /// the predictors. Static: operates on any predictor mix and touches no
  /// engine state.
  static BatchStats observe_batch(std::span<ObserveBatchItem> items);

  /// For each item in order: predict(steps_ahead) into `prediction`.
  static BatchStats predict_batch(std::span<PredictBatchItem> items);

  /// Guardrail lifecycle feed (called by Cs2pPredictorModel's event hook,
  /// possibly from many serving threads). Aggregates per-session trips into
  /// cluster-level drift: when at least kDriftQuorum of a cluster's live
  /// guarded sessions are tripped, and at least kDriftMinTrippedSessions are
  /// (engine.cpp), the cluster is marked drifted and served by the global
  /// fallback until the next retrain builds a fresh engine. `cluster` may be
  /// null (global sessions feed the session counters only).
  void note_guardrail_event(const Cluster* cluster, GuardrailEvent event,
                            bool tripped) const;

  /// Clusters currently drift-marked.
  std::size_t drifted_cluster_count() const;

  /// True when the given cluster is drift-marked.
  bool cluster_drifted(const Cluster* cluster) const;

  /// Where this engine sits in the continuous-training lineage. The main
  /// constructor produces generation 0 (offline root); the restore
  /// constructor adopts whatever the snapshot recorded.
  const ModelLineage& lineage() const noexcept { return lineage_; }

  /// The cluster a (candidate id, bucket key) identity resolves to in this
  /// engine's index, or nullptr when the index keeps no such bucket (fewer
  /// than min_cluster_size training sessions share it). Stable for the
  /// engine's lifetime — this is how the trainer maps cluster identities
  /// back onto drift/quarantine state after a hot-swap.
  const Cluster* find_cluster(std::size_t candidate_id,
                              const std::string& bucket_key) const;

  /// What the given cluster identity serves *right now*: its cached
  /// per-cluster HMM, or the global fallback when the model is uncached,
  /// quarantined, or drift-marked. Never triggers an EM run — the canary
  /// gate must observe the serving state, not force training.
  ClusterModelView cluster_model_view(std::size_t candidate_id,
                                      const std::string& bucket_key) const;

  const GaussianHmm& global_hmm() const noexcept { return global_.kernel->model(); }
  double global_initial() const noexcept { return global_initial_; }
  const ClusterIndex& cluster_index() const noexcept { return index_; }
  const FeatureSelector& selector() const noexcept { return selector_; }
  const Dataset& training() const noexcept { return training_; }

  /// Copies every cached per-cluster model with its stable (candidate id,
  /// bucket key) identity — the snapshot store's view of the cache. Models
  /// that merely alias the global HMM (empty-sequence clusters) and
  /// quarantined clusters are included/excluded naturally: only real cache
  /// entries are returned, sorted by (candidate id, bucket key), so engines
  /// holding the same models export (and snapshot) the same bytes.
  std::vector<ClusterModelEntry> export_cluster_models() const;

 private:
  /// One served HMM: its kernel, built when the record is made (by EM, the
  /// restore constructor, or global training), and its surprise baseline,
  /// filled on the first guarded session. Records are never erased, so a
  /// reference to one lives as long as the engine.
  struct ModelRecord {
    std::shared_ptr<const HmmKernel> kernel;
    mutable std::optional<SurpriseBaseline> baseline;  ///< under cache_mutex_
  };

  /// The record serving `cluster` and its baseline as of the lookup, read in
  /// one cache hold with the quarantine check: the cached model, trained by
  /// EM outside the lock on a miss, or the global record once the cluster is
  /// quarantined.
  std::pair<const ModelRecord*, std::optional<SurpriseBaseline>> cluster_model(
      const Cluster& cluster) const;
  /// `record`'s baseline, computed outside the lock on first use.
  SurpriseBaseline baseline_of(const ModelRecord& record) const;
  double cluster_initial(const Cluster& cluster) const;

  /// Registry handles cached at construction: the serving path increments
  /// through these pointers lock-free (obs/metrics.h rule 1).
  struct MetricHandles {
    obs::Counter* sessions = nullptr;
    obs::Counter* global_fallbacks = nullptr;
    obs::Counter* cluster_hits = nullptr;
    obs::Counter* drifted_serves = nullptr;
    obs::Counter* quarantined_serves = nullptr;
    obs::Counter* clusters_trained = nullptr;
    obs::Counter* clusters_restored = nullptr;
    obs::Counter* clusters_quarantined = nullptr;
    obs::Counter* guarded_sessions = nullptr;
    obs::Counter* guardrail_trips = nullptr;
    obs::Counter* guardrail_recoveries = nullptr;
    obs::Gauge* drifted_clusters = nullptr;
    obs::Histogram* em_seconds = nullptr;

    static MetricHandles create(obs::MetricsRegistry& registry);
  };

  Dataset training_;
  Cs2pConfig config_;
  ClusterIndex index_;
  FeatureSelector selector_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  MetricHandles m_;
  GuardrailMetrics guardrail_metrics_;
  ModelRecord global_;
  double global_initial_ = 0.0;
  ModelLineage lineage_;

  mutable std::mutex cache_mutex_;
  mutable std::unordered_map<const Cluster*, ModelRecord> models_;
  /// Clusters whose EM training threw: served by the global model from then
  /// on. Recording the failure (instead of caching a partial model or
  /// retrying forever) is what keeps one degenerate cluster from ever
  /// reaching the serving path again.
  mutable std::unordered_set<const Cluster*> quarantined_;

  /// Cluster-level drift aggregation (guarded by its own mutex: the event
  /// feed runs on serving threads and must not contend with EM training).
  struct DriftCounters {
    std::size_t live = 0;     ///< open guarded sessions on this cluster
    std::size_t tripped = 0;  ///< of which currently DEGRADED
  };
  mutable std::mutex drift_mutex_;
  mutable std::unordered_map<const Cluster*, DriftCounters> drift_counters_;
  mutable std::unordered_set<const Cluster*> drifted_;
};

/// PredictorModel adapter so the engine plugs into the shared evaluation and
/// simulation harnesses alongside every baseline.
class Cs2pPredictorModel final : public PredictorModel {
 public:
  /// Trains an engine on `training`.
  explicit Cs2pPredictorModel(Dataset training, Cs2pConfig config = {});

  /// Shares an existing engine.
  explicit Cs2pPredictorModel(std::shared_ptr<const Cs2pEngine> engine);

  std::string name() const override { return "CS2P"; }
  std::unique_ptr<SessionPredictor> make_session(
      const SessionContext& context) const override;
  std::optional<DownloadableModel> downloadable_model(
      const SessionContext& context) const override;

  const Cs2pEngine& engine() const noexcept { return *engine_; }

  /// Shared handle to the engine — what the continuous trainer holds so the
  /// incumbent stays alive across hot-swaps while a canary is evaluated.
  std::shared_ptr<const Cs2pEngine> engine_ptr() const noexcept {
    return engine_;
  }

 private:
  std::shared_ptr<const Cs2pEngine> engine_;
};

}  // namespace cs2p
