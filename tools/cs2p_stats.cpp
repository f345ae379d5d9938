// cs2p_stats — scrape a running cs2p_serve over the STATS verb.
//
//   cs2p_stats --port 9000                 pretty-print the current stats
//   cs2p_stats --port 9000 --raw 1         dump the raw text exposition
//   cs2p_stats --port 9000 --diff 5        scrape twice, 5 s apart, and
//                                          print what moved in between
//   cs2p_stats --peers 9000,9001,9002      scrape every replica of a tier
//                                          and print a merged/diffed view
//
// The pretty printer folds histogram families into one line with count,
// mean and interpolated p50/p90/p99 (from the cumulative le-buckets); the
// diff mode shows counter/histogram deltas and gauge old -> new, which is
// the quickest way to answer "what is this server doing right now".
//
// --peers prints one row per series with the tier-wide total and the
// per-replica values side by side, so a skewed replica (one node eating all
// the HELLOs, one rejecting SYNCs) is visible at a glance; combined with
// --diff it shows per-replica deltas. A replica that cannot be scraped is
// reported and skipped — a dead node must not hide the survivors' stats.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "obs/metrics.h"
#include "tools/cli.h"

namespace {

using cs2p::obs::kMetricsExpositionVersion;

struct Scrape {
  int version = 0;
  /// Rendered series key ("name{labels}") -> value, in exposition order.
  std::map<std::string, double> series;
};

Scrape parse_exposition(const cs2p::StatsResponse& response) {
  Scrape out;
  out.version = response.exposition_version;
  const std::string& text = response.exposition;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.find_last_of(' ');
    if (space == std::string::npos) continue;
    try {
      out.series.emplace(line.substr(0, space), std::stod(line.substr(space + 1)));
    } catch (const std::exception&) {
      // Tolerate unknown grammar extensions: skip, don't die.
    }
  }
  return out;
}

Scrape scrape_server(std::uint16_t port) {
  cs2p::PredictionClient client(port);
  const cs2p::StatsResponse response = client.stats();
  if (response.exposition_version != kMetricsExpositionVersion)
    std::fprintf(stderr,
                 "warning: server speaks exposition v%d, this tool expects "
                 "v%d — printing what parses\n",
                 response.exposition_version, kMetricsExpositionVersion);
  return parse_exposition(response);
}

/// One histogram family reassembled from its exposition series.
struct HistogramFamily {
  std::vector<std::pair<double, double>> buckets;  ///< (le, cumulative)
  double sum = 0.0;
  double count = 0.0;
};

/// "name_bucket{...,le="x"}" -> family key "name{...}" + bound; false for
/// non-bucket series.
bool split_bucket_key(const std::string& key, std::string* family, double* le) {
  const std::size_t marker = key.find("_bucket");
  if (marker == std::string::npos) return false;
  const std::size_t le_pos = key.find("le=\"", marker);
  if (le_pos == std::string::npos) return false;
  const std::size_t le_end = key.find('"', le_pos + 4);
  if (le_end == std::string::npos) return false;
  const std::string bound = key.substr(le_pos + 4, le_end - le_pos - 4);
  *le = bound == "+Inf" ? std::numeric_limits<double>::infinity()
                        : std::stod(bound);
  // Family key: name + labels minus the le pair (and its separator comma).
  std::string rest = key.substr(marker + 7);  // "{...}" or "{le=...}"
  std::size_t cut_begin = rest.find("le=\"");
  std::size_t cut_end = rest.find('"', cut_begin + 4) + 1;
  if (cut_begin != std::string::npos) {
    if (cut_begin > 1 && rest[cut_begin - 1] == ',') --cut_begin;  // ",le=..."
    else if (rest[cut_end] == ',') ++cut_end;                      // "le=...,"
    rest.erase(cut_begin, cut_end - cut_begin);
  }
  if (rest == "{}") rest.clear();
  *family = key.substr(0, marker) + rest;
  return true;
}

double family_quantile(const HistogramFamily& h, double q) {
  if (h.count <= 0.0) return 0.0;
  const double rank = q * h.count;
  double prev_le = 0.0, prev_cum = 0.0;
  for (const auto& [le, cum] : h.buckets) {
    if (cum >= rank) {
      if (std::isinf(le)) return prev_le;  // clamp to last finite bound
      const double in_bucket = cum - prev_cum;
      if (in_bucket <= 0.0) return le;
      return prev_le + (le - prev_le) *
                           std::clamp((rank - prev_cum) / in_bucket, 0.0, 1.0);
    }
    prev_le = std::isinf(le) ? prev_le : le;
    prev_cum = cum;
  }
  return prev_le;
}

/// One cluster's row of the trainer model table (pretty view): the
/// per-cluster gauges cs2p_trainer_cluster_generation{cluster="k"} and
/// cs2p_trainer_cluster_model_age_seconds{cluster="k"} fold into one line
/// per cluster instead of two interleaved scalar dumps.
struct ClusterModelRow {
  double generation = std::numeric_limits<double>::quiet_NaN();
  double age_seconds = std::numeric_limits<double>::quiet_NaN();
};

/// Consumes a per-cluster trainer gauge into `rows`; false for everything
/// else (the series stays a plain scalar).
bool fold_cluster_model_series(const std::string& key, double value,
                               std::map<std::string, ClusterModelRow>& rows) {
  const bool is_generation =
      key.starts_with("cs2p_trainer_cluster_generation{");
  const bool is_age =
      !is_generation &&
      key.starts_with("cs2p_trainer_cluster_model_age_seconds{");
  if (!is_generation && !is_age) return false;
  const std::size_t label = key.find("cluster=\"");
  if (label == std::string::npos) return false;
  const std::size_t begin = label + 9;
  const std::size_t end = key.find('"', begin);
  if (end == std::string::npos) return false;
  auto& row = rows[key.substr(begin, end - begin)];
  (is_generation ? row.generation : row.age_seconds) = value;
  return true;
}

void pretty_print(const Scrape& scrape) {
  std::map<std::string, HistogramFamily> histograms;
  std::map<std::string, ClusterModelRow> cluster_models;
  std::vector<std::pair<std::string, double>> scalars;
  for (const auto& [key, value] : scrape.series) {
    std::string family;
    double le = 0.0;
    if (split_bucket_key(key, &family, &le)) {
      histograms[family].buckets.emplace_back(le, value);
      continue;
    }
    if (fold_cluster_model_series(key, value, cluster_models)) continue;
    const std::size_t brace = key.find('{');
    const std::string name = key.substr(0, brace);
    if (name.size() > 4 && name.ends_with("_sum")) {
      const std::string fam = name.substr(0, name.size() - 4) +
                              (brace == std::string::npos ? "" : key.substr(brace));
      if (histograms.contains(fam) || scrape.series.contains(
              name.substr(0, name.size() - 4) + "_count" +
              (brace == std::string::npos ? "" : key.substr(brace)))) {
        histograms[fam].sum = value;
        continue;
      }
    }
    if (name.size() > 6 && name.ends_with("_count")) {
      const std::string fam = name.substr(0, name.size() - 6) +
                              (brace == std::string::npos ? "" : key.substr(brace));
      if (histograms.contains(fam)) {
        histograms[fam].count = value;
        continue;
      }
    }
    scalars.emplace_back(key, value);
  }

  for (const auto& [key, value] : scalars)
    std::printf("%-56s %.6g\n", key.c_str(), value);
  for (auto& [family, h] : histograms) {
    std::sort(h.buckets.begin(), h.buckets.end());
    if (h.count == 0.0 && !h.buckets.empty()) h.count = h.buckets.back().second;
    const double mean = h.count > 0.0 ? h.sum / h.count : 0.0;
    std::printf("%-56s count=%.0f mean=%.3gs p50=%.3gs p90=%.3gs p99=%.3gs\n",
                family.c_str(), h.count, mean, family_quantile(h, 0.5),
                family_quantile(h, 0.9), family_quantile(h, 0.99));
  }
  if (!cluster_models.empty()) {
    std::printf("# trainer per-cluster models\n");
    std::printf("%-44s %12s %14s\n", "# cluster", "generation", "model age");
    for (const auto& [cluster, row] : cluster_models) {
      std::printf("%-44s ", cluster.c_str());
      if (std::isnan(row.generation)) std::printf("%12s ", "-");
      else std::printf("%12.0f ", row.generation);
      if (std::isnan(row.age_seconds)) std::printf("%14s\n", "-");
      else std::printf("%13.1fs\n", row.age_seconds);
    }
  }
}

void print_diff(const Scrape& before, const Scrape& after, long seconds) {
  std::printf("# delta over %ld s\n", seconds);
  for (const auto& [key, new_value] : after.series) {
    const auto it = before.series.find(key);
    const double old_value = it == before.series.end() ? 0.0 : it->second;
    if (new_value == old_value) continue;
    std::printf("%-56s %+.6g  (%.6g -> %.6g)\n", key.c_str(),
                new_value - old_value, old_value, new_value);
  }
}

/// Scrape of one replica; `ok` false when the node could not be reached
/// (its column prints as "-" so the survivors still line up).
struct ReplicaScrape {
  std::uint16_t port = 0;
  bool ok = false;
  Scrape scrape;
};

std::vector<ReplicaScrape> scrape_tier(const std::vector<std::uint16_t>& ports) {
  std::vector<ReplicaScrape> out;
  out.reserve(ports.size());
  for (const std::uint16_t port : ports) {
    ReplicaScrape replica;
    replica.port = port;
    try {
      replica.scrape = scrape_server(port);
      replica.ok = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "warning: replica 127.0.0.1:%u unreachable (%s)\n",
                   port, e.what());
    }
    out.push_back(std::move(replica));
  }
  return out;
}

/// Union of series keys -> per-replica column (NaN where absent/dead).
std::map<std::string, std::vector<double>> tier_table(
    const std::vector<ReplicaScrape>& tier) {
  std::map<std::string, std::vector<double>> table;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = 0; i < tier.size(); ++i) {
    if (!tier[i].ok) continue;
    for (const auto& [key, value] : tier[i].scrape.series) {
      auto& row = table[key];
      row.resize(tier.size(), nan);
      row[i] = value;
    }
  }
  return table;
}

/// Width of the series-name column: the longest key, so long histogram
/// bucket labels cannot push their values out of alignment.
int key_column_width(const std::map<std::string, std::vector<double>>& table) {
  std::size_t width = 56;
  for (const auto& [key, row] : table) width = std::max(width, key.size());
  return static_cast<int>(width);
}

void print_merged(const std::vector<ReplicaScrape>& tier) {
  std::printf("# replicas:");
  for (const auto& replica : tier)
    std::printf(" 127.0.0.1:%u%s", replica.port, replica.ok ? "" : "(down)");
  const auto table = tier_table(tier);
  const int width = key_column_width(table);
  std::printf("\n%-*s %12s  per-replica\n", width, "# series", "total");
  for (const auto& [key, row] : table) {
    double total = 0.0;
    for (const double v : row)
      if (!std::isnan(v)) total += v;
    std::printf("%-*s %12.6g ", width, key.c_str(), total);
    for (const double v : row) {
      if (std::isnan(v)) std::printf("  %10s", "-");
      else std::printf("  %10.6g", v);
    }
    std::printf("\n");
  }
}

void print_merged_diff(const std::vector<ReplicaScrape>& before,
                       const std::vector<ReplicaScrape>& after, long seconds) {
  std::printf("# tier delta over %ld s\n", seconds);
  const auto old_table = tier_table(before);
  const auto new_table = tier_table(after);
  const int width = key_column_width(new_table);
  for (const auto& [key, row] : new_table) {
    const auto it = old_table.find(key);
    double total_delta = 0.0;
    std::vector<double> deltas(row.size(),
                               std::numeric_limits<double>::quiet_NaN());
    bool moved = false;
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (std::isnan(row[i])) continue;
      const double old_value =
          it != old_table.end() && i < it->second.size() &&
                  !std::isnan(it->second[i])
              ? it->second[i]
              : 0.0;
      deltas[i] = row[i] - old_value;
      total_delta += deltas[i];
      if (deltas[i] != 0.0) moved = true;
    }
    if (!moved) continue;
    std::printf("%-*s %+12.6g ", width, key.c_str(), total_delta);
    for (const double d : deltas) {
      if (std::isnan(d)) std::printf("  %10s", "-");
      else std::printf("  %+10.6g", d);
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace cs2p;
  cli::ArgParser args("cs2p_stats", "scrape a cs2p_serve metrics registry");
  args.add_option("port", "cs2p_serve port on 127.0.0.1", "9000");
  args.add_option("raw", "dump the raw text exposition (1/0)", "0");
  args.add_option("diff",
                  "scrape twice, N seconds apart, and print the deltas "
                  "(0 = single scrape)", "0");
  args.add_option("peers",
                  "comma-separated replica ports; scrape every one and print "
                  "a merged per-replica view (overrides --port)", "");
  if (!args.parse(argc, argv)) return 1;

  const std::vector<std::uint16_t> peer_ports =
      cli::parse_ports("peers", args.get("peers"));
  if (!peer_ports.empty()) {
    const long tier_diff_s = args.get_int<long>("diff");
    const auto first = scrape_tier(peer_ports);
    if (tier_diff_s <= 0) {
      print_merged(first);
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::seconds(tier_diff_s));
    print_merged_diff(first, scrape_tier(peer_ports), tier_diff_s);
    return 0;
  }

  const std::uint16_t port = cli::parse_port("port", args.get("port"));
  if (args.get_int<bool>("raw")) {
    PredictionClient client(port);
    const StatsResponse response = client.stats();
    std::fwrite(response.exposition.data(), 1, response.exposition.size(),
                stdout);
    return 0;
  }

  const long diff_s = args.get_int<long>("diff");
  const Scrape first = scrape_server(port);
  if (diff_s <= 0) {
    pretty_print(first);
    return 0;
  }
  std::this_thread::sleep_for(std::chrono::seconds(diff_s));
  print_diff(first, scrape_server(port), diff_s);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "cs2p_stats: %s\n", e.what());
  return 1;
}
