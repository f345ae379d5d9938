// cs2p_datagen — generate a synthetic session-trace dataset to CSV.
//
//   cs2p_datagen --out traces.csv --sessions 20000 --seed 7
//
// The CSV round-trips through Dataset::load_csv, so the other tools (and
// any external pipeline) can consume it.

#include <cstdio>

#include "dataset/synthetic.h"
#include "tools/cli.h"

int main(int argc, char** argv) try {
  using namespace cs2p;
  cli::ArgParser args("cs2p_datagen", "generate a synthetic trace dataset");
  args.add_option("out", "output CSV path", "traces.csv");
  args.add_option("sessions", "number of sessions", "16000");
  args.add_option("seed", "world/generation seed", "2016");
  args.add_option("days", "dataset days (day 0 trains, rest test)", "2");
  args.add_option("isps", "number of ISPs", "6");
  args.add_option("provinces", "number of provinces", "8");
  args.add_option("cities-per-province", "cities per province", "3");
  args.add_option("servers", "number of CDN servers", "12");
  args.add_option("prefixes", "client /16 prefixes per (ISP, city)", "2");
  args.add_option("burst-prob", "per-epoch transient burst probability", "0.15");
  if (!args.parse(argc, argv)) return 1;

  SyntheticConfig config;
  config.num_sessions = args.get_int<std::size_t>("sessions");
  config.seed = args.get_int<std::uint64_t>("seed");
  config.days = args.get_int<int>("days");
  config.num_isps = args.get_int<std::size_t>("isps");
  config.num_provinces = args.get_int<std::size_t>("provinces");
  config.cities_per_province = args.get_int<std::size_t>("cities-per-province");
  config.num_servers = args.get_int<std::size_t>("servers");
  config.prefixes_per_isp_city = args.get_int<std::size_t>("prefixes");
  config.burst_probability = args.get_double("burst-prob");

  const Dataset dataset = generate_synthetic_dataset(config);
  dataset.save_csv(args.get("out"));

  const DatasetSummary summary = dataset.summarize();
  std::printf("wrote %zu sessions (%zu epochs) to %s\n", summary.num_sessions,
              summary.total_epochs, args.get("out").c_str());
  std::printf("median duration %.0f s, median epoch throughput %.2f Mbps\n",
              summary.median_duration_seconds, summary.median_epoch_throughput_mbps);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "cs2p_datagen: %s\n", e.what());
  return 1;
}
