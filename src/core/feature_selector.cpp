#include "core/feature_selector.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/error_metrics.h"
#include "util/parallel.h"

namespace cs2p {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// `index`, once it is known to hold exactly the buckets `config` lets
/// CS2P select.
const ClusterIndex* matching_index(const ClusterIndex& index,
                                   const FeatureSelectorConfig& config) {
  if (index.min_cluster_size() != config.min_cluster_size)
    throw std::invalid_argument(
        "FeatureSelector: index built with min cluster size " +
        std::to_string(index.min_cluster_size()) + ", selector configured with " +
        std::to_string(config.min_cluster_size));
  return &index;
}

std::string isp_city_key(const SessionFeatures& features) {
  std::string key(features.isp);
  key += '\x1f';
  key += features.city;
  return key;
}

}  // namespace

void FeatureSelector::build_neighbourhoods() {
  const auto& sessions = index_->training().sessions();
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    if (i < config_.estimation_set_size) first_sessions_.push_back(i);
    if (sessions[i].throughput_mbps.empty()) continue;
    by_isp_city_[isp_city_key(sessions[i].features)].push_back(i);
    by_isp_[sessions[i].features.isp].push_back(i);
  }
}

FeatureSelector::FeatureSelector(const ClusterIndex& index,
                                 FeatureSelectorConfig config,
                                 std::vector<std::vector<double>> precomputed_table)
    : index_(matching_index(index, config)),
      config_(config),
      error_table_(std::move(precomputed_table)) {
  build_neighbourhoods();
  const std::size_t num_sessions = index.training().size();
  if (error_table_.size() != index.num_candidates())
    throw std::invalid_argument(
        "FeatureSelector: precomputed table candidate count mismatch");
  for (const auto& row : error_table_) {
    if (row.size() != num_sessions)
      throw std::invalid_argument(
          "FeatureSelector: precomputed table session count mismatch");
    for (double err : row)
      if (std::isnan(err) || err < 0.0)
        throw std::invalid_argument(
            "FeatureSelector: precomputed table has NaN/negative entry");
  }
}

FeatureSelector::FeatureSelector(const ClusterIndex& index, FeatureSelectorConfig config)
    : index_(matching_index(index, config)), config_(config) {
  const auto& sessions = index.training().sessions();
  build_neighbourhoods();

  // err(M, s') table, +inf where the index keeps no bucket for s'. The
  // cluster median includes s' itself; with clusters at least
  // min_cluster_size strong the self-inclusion bias is negligible.
  error_table_.assign(index.num_candidates(),
                      std::vector<double>(sessions.size(), kInf));
  // Rows are independent per candidate: fill them in parallel.
  parallel_for(index.num_candidates(), [&](std::size_t c) {
    const CandidateIndex& cand = index.index_for(c);
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      const auto& s = sessions[i];
      if (s.throughput_mbps.empty()) continue;
      const Cluster* cluster = cand.find(s.features, s.start_hour);
      if (cluster == nullptr) continue;
      // Score the candidate on how well its cluster predicts BOTH the
      // session's initial throughput (Eq. 6 drives initial selection) and
      // its whole-session average (a cluster whose sessions share one
      // throughput process has a tight average, so this term steers the
      // choice toward clusters that are pure enough for the HMM).
      const double initial_err =
          absolute_normalized_error(cluster->initial_median, s.initial_throughput());
      const double average_err =
          absolute_normalized_error(cluster->average_median, s.average_throughput());
      // The dispersion term is the Fig 6 statistic: a cluster whose sessions
      // share one throughput process is tight, one that merely matches on
      // incidental features is spread out.
      error_table_[c][i] =
          0.5 * (initial_err + average_err) + 0.5 * cluster->average_dispersion;
    }
  });
}

FeatureSelector::Neighbourhood FeatureSelector::neighbourhood(
    const SessionFeatures& features) const {
  const auto first = [this](const std::vector<std::size_t>& pool) {
    return std::span(pool).first(std::min(pool.size(), config_.estimation_set_size));
  };
  std::string key = isp_city_key(features);
  if (const auto it = by_isp_city_.find(key);
      it != by_isp_city_.end() && it->second.size() >= 5)
    return {std::move(key), first(it->second)};
  if (const auto it = by_isp_.find(features.isp); it != by_isp_.end())
    return {features.isp, first(it->second)};
  return {{}, first_sessions_};  // last resort: a slice of everything
}

const FeatureSelector::Ranking& FeatureSelector::ranking_for(
    const Neighbourhood& neighbourhood) const {
  std::scoped_lock lock(cache_mutex_);
  const auto cached = ranking_cache_.find(neighbourhood.key);
  if (cached != ranking_cache_.end()) return cached->second;

  const std::span<const std::size_t> est = neighbourhood.est;
  Ranking ranking;
  ranking.reserve(index_->num_candidates());
  for (std::size_t c = 0; c < index_->num_candidates(); ++c) {
    double sum = 0.0;
    std::size_t usable = 0;
    for (std::size_t i : est) {
      const double err = error_table_[c][i];
      if (std::isinf(err)) continue;
      sum += err;
      ++usable;
    }
    // Candidates must be usable for a meaningful slice of the estimation
    // set; otherwise their mean error is computed on too biased a subset.
    if (usable * 4 < est.size() || usable < 3) {
      ranking.emplace_back(kInf, c);
    } else {
      ranking.emplace_back(sum / static_cast<double>(usable), c);
    }
  }
  std::stable_sort(ranking.begin(), ranking.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  return ranking_cache_.emplace(neighbourhood.key, std::move(ranking)).first->second;
}

SelectionResult FeatureSelector::select(const SessionFeatures& features,
                                        double start_hour) const {
  const Ranking& ranking = ranking_for(neighbourhood(features));
  for (const auto& [mean_err, candidate_id] : ranking) {
    if (std::isinf(mean_err)) break;  // ranking is sorted; the rest are unusable
    const Cluster* cluster =
        index_->index_for(candidate_id).find(features, start_hour);
    if (cluster != nullptr) return {candidate_id, mean_err, cluster};
  }
  return {};  // regress to the global model
}

}  // namespace cs2p
