// Cluster index: Agg(M, s) lookups over the training set (paper §5.1).
//
// A clustering *candidate* M is a (feature subset, time granularity) pair.
// For every candidate, the index hashes each training session by the
// concatenation of its selected feature values and its time-of-day block;
// Agg(M, s) is then the bucket the probe session s falls into. CS2P discards
// every cluster smaller than the min-cluster-size threshold before it picks
// M*_s, so the index keeps only the buckets at or above it: a probe whose
// bucket is smaller finds nothing, exactly as if no training session shared
// it. Per-bucket initial-throughput medians are precomputed since the initial
// predictor is F(S) = Median(S) (Eq. 6) and the feature-selection step
// (Eq. 3) evaluates that median against thousands of estimation sessions.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/time_window.h"
#include "dataset/dataset.h"

namespace cs2p {

/// One clustering candidate M: which features to match, at what time
/// granularity.
struct CandidateSpec {
  FeatureMask mask = 0;
  TimeGranularity window = TimeGranularity::kAll;

  bool operator==(const CandidateSpec&) const = default;
};

/// "ISP+City@daypart"-style label.
std::string candidate_to_string(const CandidateSpec& candidate);

/// Every non-empty feature subset crossed with every time granularity
/// (2^6 - 1 masks x 3 windows = 189 candidates by default).
std::vector<CandidateSpec> enumerate_candidates();

/// One cluster (bucket) of training sessions under a candidate.
struct Cluster {
  std::vector<std::size_t> session_indices;  ///< into the training dataset
  double initial_median = 0.0;               ///< median initial throughput
  double average_median = 0.0;  ///< median of per-session average throughput
  /// IQR of per-session average throughput over its median — the Fig 6
  /// "how stable is throughput when these features are pinned" statistic.
  double average_dispersion = 0.0;
  std::size_t size() const noexcept { return session_indices.size(); }
};

/// The buckets of one candidate that hold at least `min_cluster_size`
/// training sessions.
class CandidateIndex {
 public:
  CandidateIndex() = default;  ///< empty index (for container pre-sizing)
  CandidateIndex(const Dataset& training, const CandidateSpec& candidate,
                 std::size_t min_cluster_size);

  /// The kept cluster a session with these features/time falls into, or
  /// nullptr when its bucket is empty or below the threshold.
  const Cluster* find(const SessionFeatures& features, double start_hour) const;

  /// The stable bucket key a session with these features/time maps to —
  /// the cluster identity snapshots and the continuous trainer use
  /// (core/model_store.h, core/trainer.h). Defined whether or not the
  /// index keeps the bucket.
  std::string bucket_key_for(const SessionFeatures& features,
                             double start_hour) const {
    return bucket_key(features, start_hour);
  }

  const CandidateSpec& candidate() const noexcept { return spec_; }
  std::size_t num_clusters() const noexcept { return clusters_.size(); }

  /// The kept buckets by key (the engine maps snapshot identities onto
  /// them).
  const std::unordered_map<std::string, Cluster>& clusters() const noexcept {
    return clusters_;
  }

 private:
  std::string bucket_key(const SessionFeatures& features, double start_hour) const;

  CandidateSpec spec_;
  std::unordered_map<std::string, Cluster> clusters_;
};

/// The full index: one CandidateIndex per candidate, sharing the training
/// dataset (held by reference — the dataset must outlive the index).
class ClusterIndex {
 public:
  /// Builds, for each of `candidates` (usually enumerate_candidates()), the
  /// buckets holding at least `min_cluster_size` training sessions. A
  /// FeatureSelector accepts only an index built with its own threshold.
  ClusterIndex(const Dataset& training, std::vector<CandidateSpec> candidates,
               std::size_t min_cluster_size);

  std::size_t min_cluster_size() const noexcept { return min_cluster_size_; }
  const std::vector<CandidateSpec>& candidates() const noexcept { return candidates_; }
  const CandidateIndex& index_for(std::size_t candidate_id) const {
    return per_candidate_[candidate_id];
  }
  std::size_t num_candidates() const noexcept { return per_candidate_.size(); }
  const Dataset& training() const noexcept { return *training_; }

 private:
  const Dataset* training_;
  std::size_t min_cluster_size_;
  std::vector<CandidateSpec> candidates_;
  std::vector<CandidateIndex> per_candidate_;
};

}  // namespace cs2p
