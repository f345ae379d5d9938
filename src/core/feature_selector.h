// Data-driven selection of the best feature set M*_s (paper §5.1, Eq. 2-3).
//
// Offline, every training session s' gets an error score per candidate M:
//   err(M, s') = Err( Median(Agg(M, s')), s'_w )          (Eq. 1, initial w)
// with err = +inf when Agg(M, s') is smaller than the min-cluster-size
// threshold (such clusters are "removed from consideration"): the selector
// runs on a ClusterIndex built with that threshold, which keeps no smaller
// bucket.
//
// For a new session s, Est(s) — training sessions likely to share s's best
// model — is approximated by sessions matching s on ISP+City (relaxing to
// ISP, then to everything, when too few match), and
//   M*_s = argmin_M  mean_{s' in Est(s)} err(M, s')       (Eq. 3)
// Selection results are cached per Est-key since every session from the same
// neighbourhood shares the same Est set.
#pragma once

#include <cstddef>
#include <limits>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cluster_index.h"

namespace cs2p {

struct FeatureSelectorConfig {
  std::size_t min_cluster_size = 20;     ///< Agg smaller than this is discarded
  std::size_t estimation_set_size = 40;  ///< cap on |Est(s)|
};

/// Outcome of a best-candidate query.
struct SelectionResult {
  std::size_t candidate_id = 0;
  double estimated_error = std::numeric_limits<double>::infinity();
  /// The session's cluster under the chosen candidate, owned by the
  /// ClusterIndex; null -> fall back to the global model.
  const Cluster* cluster = nullptr;
};

class FeatureSelector {
 public:
  /// Precomputes the err(M, s') table over the index's training set.
  /// Throws std::invalid_argument unless the index was built with
  /// config.min_cluster_size (both constructors).
  FeatureSelector(const ClusterIndex& index, FeatureSelectorConfig config = {});

  /// Restores a selector from a previously computed error table (snapshot
  /// load path — skips the candidate x session precompute). The table must
  /// be [num_candidates][num training sessions] with no NaN entries (+inf
  /// marks unusable clusters); throws std::invalid_argument otherwise.
  FeatureSelector(const ClusterIndex& index, FeatureSelectorConfig config,
                  std::vector<std::vector<double>> precomputed_table);

  /// Best candidate for a session with the given features/start time.
  /// Returns a null cluster when no candidate yields a usable cluster for
  /// this session (the caller then regresses to the global model).
  SelectionResult select(const SessionFeatures& features, double start_hour) const;

  /// err(M, s') for inspection/tests: row = candidate id, col = training
  /// session index; +inf marks unusable clusters.
  double error_entry(std::size_t candidate_id, std::size_t session_index) const {
    return error_table_[candidate_id][session_index];
  }

  /// Whole table, for snapshot serialization (core/model_store.h).
  const std::vector<std::vector<double>>& error_table() const noexcept {
    return error_table_;
  }

  const FeatureSelectorConfig& config() const noexcept { return config_; }

 private:
  /// Est(s) neighbourhood maps, shared by both constructors.
  void build_neighbourhoods();

  /// Est(s) of a session: the ranking-cache key of its neighbourhood and a
  /// view of the first estimation_set_size sessions of its pool.
  struct Neighbourhood {
    std::string key;  ///< ISP+City, ISP, or empty for the global slice
    std::span<const std::size_t> est;
  };

  /// The one relaxation rule: ISP+City when it has at least 5 training
  /// sessions, else ISP, else the first training sessions.
  Neighbourhood neighbourhood(const SessionFeatures& features) const;

  const ClusterIndex* index_;
  FeatureSelectorConfig config_;
  std::vector<std::vector<double>> error_table_;  ///< [candidate][session]

  /// ISP+City -> training session indices (relaxation path uses ISP alone).
  std::unordered_map<std::string, std::vector<std::size_t>> by_isp_city_;
  std::unordered_map<std::string, std::vector<std::size_t>> by_isp_;
  /// 0..n-1 over the first estimation_set_size training sessions: the pool
  /// of a session whose ISP no training session shares.
  std::vector<std::size_t> first_sessions_;

  /// Candidates ranked by mean err over one Est set, best first. Cached per
  /// Est-neighbourhood key; the final pick still checks that the candidate
  /// yields a usable cluster for the *probe* session.
  using Ranking = std::vector<std::pair<double, std::size_t>>;
  const Ranking& ranking_for(const Neighbourhood& neighbourhood) const;

  mutable std::mutex cache_mutex_;
  mutable std::unordered_map<std::string, Ranking> ranking_cache_;
};

}  // namespace cs2p
