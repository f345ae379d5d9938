// Continuous training: streaming ingest -> canary gate -> hot-swap ->
// probation/rollback (DESIGN.md §15).
//
// The paper retrains per day (§6); the stability studies in PAPERS.md show
// throughput regimes move on much shorter timescales. This subsystem closes
// the loop the drift guardrails opened: completed serving sessions stream
// into per-cluster reservoirs, a background thread retrains only clusters
// whose statistics moved, and every candidate model must *win a canary
// evaluation* against the incumbent on held-out live data before the
// RCU/model_store machinery swaps it in. Accepted generations carry lineage
// (generation id + parent snapshot checksum) and serve under probation: if
// the drift quorum trips the freshly swapped cluster, the trainer re-swaps
// the parent generation automatically and backs off retraining that cluster.
//
// Invariant the whole pipeline defends: a model that has not beaten the
// incumbent on real held-out observations never reaches the hot path, and
// a model that wins the canary but loses in production is rolled back
// without operator action.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace cs2p {

/// Why the canary gate refused a candidate model. Typed so tests and
/// operators can distinguish "the data was bad" from "the model was worse".
enum class CanaryRejectReason : std::uint8_t {
  kTrainingFailed = 0,  ///< Baum-Welch threw (degenerate reservoir)
  kInsufficientData,    ///< too few usable sequences to train or hold out
  kLogLikelihood,       ///< lost the one-step log-likelihood margin
  kHorizonError,        ///< lost the horizon absolute-error comparison
};

/// Stable name for logs/metric labels ("TRAINING_FAILED", ...).
std::string_view canary_reject_reason_name(CanaryRejectReason reason) noexcept;

struct TrainerConfig {
  /// Per-cluster reservoir of completed-session throughput sequences.
  std::size_t reservoir_size = 64;
  /// A cluster is retrain-eligible only after this many completed sessions
  /// arrived since its last (attempted) retrain.
  std::size_t min_new_sessions = 8;
  /// Canary win margin, in nats per observation of median one-step
  /// log-likelihood: the candidate must beat the incumbent by at least this.
  double canary_margin = 0.05;
  /// Look-ahead (epochs) of the horizon-error leg of the canary.
  unsigned horizon = 4;
  /// Background thread cadence.
  std::uint64_t train_interval_ms = 1000;
  /// Probation window after an accepted swap: a drift-quorum trip on the
  /// swapped cluster inside this window triggers automatic rollback.
  std::uint64_t probation_ms = 5000;
  /// Retrain backoff after a rollback (doubles per rollback, capped at one
  /// minute).
  std::uint64_t backoff_initial_ms = 2000;
};

/// Counter snapshot (read-out of the metrics registry plus trainer-local
/// state, like EngineStats).
struct TrainerStats {
  std::uint64_t sessions_ingested = 0;
  std::uint64_t sessions_dropped = 0;  ///< no cluster / too short / invalid
  std::uint64_t retrains = 0;          ///< candidate models trained
  std::uint64_t canary_accepts = 0;
  std::uint64_t canary_rejects = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t generation = 0;  ///< current engine lineage generation
  std::size_t clusters_tracked = 0;
  std::size_t probations_active = 0;
};

/// How an accepted (or rolled-back) engine reaches the serving tier: the
/// serving tool points this at PredictionServer::swap_model +
/// publish_snapshot + peer SYNC pushes. Returning false aborts the adoption
/// (the trainer keeps the old engine and will re-evaluate later). Null:
/// the trainer adopts internally — the test/bench configuration.
using TrainerPublishFn = std::function<bool(
    const std::shared_ptr<const Cs2pEngine>& engine,
    const std::string& snapshot_bytes)>;

class ContinuousTrainer {
 public:
  /// `engine` is the serving incumbent (generation root for lineage).
  explicit ContinuousTrainer(std::shared_ptr<const Cs2pEngine> engine,
                             TrainerConfig config = {});
  ~ContinuousTrainer();

  ContinuousTrainer(const ContinuousTrainer&) = delete;
  ContinuousTrainer& operator=(const ContinuousTrainer&) = delete;

  /// Install the serving-tier publish hook (after the server exists; the
  /// trainer is constructed first so teardown order is safe).
  void set_publish(TrainerPublishFn publish);

  /// Feed one completed session (BYE or eviction teardown). Thread-safe,
  /// cheap: maps the session to its cluster, updates the reservoir and the
  /// movement statistics. Invalid observations are dropped sample-wise;
  /// sessions that map to no cluster or end up too short are counted and
  /// discarded.
  void ingest(const SessionFeatures& features, double start_hour,
              const std::vector<double>& observations);

  /// One deterministic trainer pass: resolve probations (rollback or
  /// release), then retrain every dirty cluster through the canary gate.
  /// Returns the number of engine swaps published (accepts + rollbacks).
  /// Serialized against itself; safe to call concurrently with ingest().
  std::size_t run_once();

  /// Background thread: run_once() every train_interval_ms until stop().
  void start();
  void stop();

  /// Adopt an externally built engine (interval/SIGHUP reload path).
  /// Reservoirs and backoffs survive for every cluster the new engine still
  /// keeps; the states of clusters it no longer keeps are erased, and
  /// probations are cleared — the parent models they held belong to a
  /// superseded lineage.
  void set_engine(std::shared_ptr<const Cs2pEngine> engine,
                  const std::string& snapshot_bytes);

  /// Current incumbent (what ingest maps sessions against).
  std::shared_ptr<const Cs2pEngine> engine() const;

  TrainerStats stats() const;
  const TrainerConfig& config() const noexcept { return config_; }

  /// Last canary rejection for a cluster key ("<candidate>:<bucket>"), if
  /// any — test/diagnostic visibility into the gate's verdicts.
  std::optional<CanaryRejectReason> last_reject(
      const std::string& cluster_key) const;

 private:
  using Clock = std::chrono::steady_clock;

  /// Everything the trainer tracks about one (candidate id, bucket key)
  /// cluster identity. Identities are stable across engine hot-swaps; the
  /// Cluster* inside any particular engine is resolved on demand.
  struct ClusterState {
    std::size_t candidate_id = 0;
    std::string bucket_key;

    std::vector<std::vector<double>> reservoir;
    std::uint64_t seen = 0;  ///< sequences offered (drives reservoir sampling)

    // Movement statistics: mean session throughput since the last retrain
    // attempt, compared against the baseline captured at the last accept.
    std::uint64_t new_since_train = 0;
    double recent_sum = 0.0;
    double baseline_mean = 0.0;
    bool baseline_set = false;
    bool dirty = false;
    Clock::time_point dirty_since{};

    std::uint64_t backoff_ms = 0;
    Clock::time_point backoff_until{};
    std::optional<CanaryRejectReason> last_reject;

    std::uint64_t generation = 0;  ///< accepted swaps for this cluster
    Clock::time_point model_born{};

    struct Probation {
      bool active = false;
      /// The incumbent model at swap time. cluster_specific == false means
      /// the parent state is "no per-cluster model" (rollback removes the
      /// entry instead of restoring one).
      ClusterModelView parent;
      Clock::time_point deadline{};
    } probation;

    obs::Gauge* generation_gauge = nullptr;
    obs::Gauge* age_gauge = nullptr;
  };

  /// Canary scores of one model over the holdout slice.
  struct CanaryScore {
    double median_log_likelihood = 0.0;
    double median_horizon_error = 0.0;
    bool has_horizon = false;
  };

  struct MetricHandles {
    obs::Counter* ingested = nullptr;
    obs::Counter* dropped_no_cluster = nullptr;
    obs::Counter* dropped_short = nullptr;
    obs::Counter* retrains = nullptr;
    obs::Counter* accepts = nullptr;
    obs::Counter* rejects_total = nullptr;
    obs::Counter* rejects_by_reason[4] = {nullptr, nullptr, nullptr, nullptr};
    obs::Counter* rollbacks = nullptr;
    obs::Gauge* generation = nullptr;
    obs::Gauge* model_age = nullptr;
    obs::Gauge* clusters_tracked = nullptr;
    obs::Histogram* retrain_lag = nullptr;

    static MetricHandles create(obs::MetricsRegistry& registry);
  };

  CanaryScore score_model(const GaussianHmm& model,
                          const std::vector<std::vector<double>>& holdout) const;

  /// Rebuild the incumbent with one cluster's model replaced (or removed,
  /// when `model` is null), bump the lineage, serialize, publish, adopt.
  /// Returns false when the publish hook vetoed the swap.
  bool swap_cluster_model(ClusterState& state, const GaussianHmm* model,
                          Clock::time_point now);

  void retrain_cluster(ClusterState& state, Clock::time_point now);
  void resolve_probation(ClusterState& state, Clock::time_point now);
  void update_age_gauges(Clock::time_point now);

  ClusterState& state_for(std::size_t candidate_id,
                          const std::string& bucket_key);

  void thread_main();

  TrainerConfig config_;

  /// Guards engine_, clusters_, rng_ and incumbent_checksum_. Ingest and
  /// adoption are short critical sections; EM and canary replay run outside.
  mutable std::mutex mutex_;
  std::shared_ptr<const Cs2pEngine> engine_;
  std::uint64_t incumbent_checksum_ = 0;
  std::unordered_map<std::string, ClusterState> clusters_;
  Rng rng_;
  Clock::time_point last_swap_{};

  /// Serializes run_once() callers (background thread vs tests).
  std::mutex train_mutex_;

  TrainerPublishFn publish_;
  std::mutex publish_mutex_;

  std::shared_ptr<obs::MetricsRegistry> metrics_;
  MetricHandles m_;

  std::thread thread_;
  std::mutex thread_mutex_;
  std::condition_variable thread_cv_;
  bool stopping_ = false;
  bool running_ = false;
};

}  // namespace cs2p
