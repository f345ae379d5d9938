// servebench: end-to-end serving benchmark of the CS2P prediction service.
//
//   servebench --workload stream-steady|session-churn|mpc-pilot --seed N
//              --seconds S --trace 0|1 [--spans PATH]
//
// Sets up (world, training, warm-up, lazy-cache fill, servers) three times
// and reports the median as setup_s, then drives the workload against
// in-process PredictionServers for S seconds and checks every output
// against an in-process oracle. With --trace 1 it runs the workload twice
// for S/2 seconds each, untraced and traced, and reports the per-layer
// metrics of the traced pass plus the tracing overhead. Prints phases and
// metrics, then one JSON line with every metric it measured.
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "layers.h"
#include "workload.h"

namespace servebench {
namespace {

/// World size: training the model takes a few seconds at this size, so the
/// set-up can be repeated within one run.
constexpr std::size_t kWorldSessions = 1'000;
constexpr int kSetupRepeats = 3;
constexpr std::size_t kPilotSessions = 1'000;
/// Test-day sessions a traced stream/churn run plays through ReplicaSet to
/// measure the client layers those workloads do not exercise.
constexpr std::size_t kReplaySessions = 8;
constexpr std::size_t kPayloadsKept = 20'000;
constexpr std::size_t kTableOpsKept = 400'000;
/// Latency percentiles are taken per block of consecutive requests (250 for
/// a median, 1000 for a p99, which then has 10 samples beyond it) and
/// reported as the first quartile over blocks: the figure the system gives
/// while the shared host lets it run.
constexpr std::size_t kMedianBlock = 250;
constexpr std::size_t kTailBlock = 1'000;
constexpr double kAcrossBlocks = 0.25;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--spans") args.spans = value;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (args.workload != "stream-steady" && args.workload != "session-churn" &&
      args.workload != "mpc-pilot")
    throw std::invalid_argument("--workload must be stream-steady, session-churn or mpc-pilot");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return args;
}

void add_run(const WorkloadRun& run, const std::string& prefix, Report& report) {
  for (Phase phase : run.phases) {
    phase.name = prefix + phase.name;
    report.phase(std::move(phase));
  }
  for (const std::string& note : run.mismatch_notes) report.note("problem: " + note);
  report.add_failures(run.mismatches);
}

void check_invariants(const WorkloadRun& run, const ServerGroup& group, Report& report) {
  const std::size_t trained = run.after.clusters_trained - run.before.clusters_trained;
  if (trained != 0) {
    report.note("problem: " + std::to_string(trained) +
                " cluster models trained inside the timed window");
    report.add_failures(trained);
  }
  for (const cs2p::PredictionServer* server : group.servers()) {
    if (server->session_count() != 0) {
      report.note("problem: " + std::to_string(server->session_count()) +
                  " sessions still open after the run");
      report.add_failures(server->session_count());
    }
  }
}

void report_end_to_end(const WorkloadRun& run, bool pilot, Report& report) {
  const auto percentiles = [&](const std::string& name, const Samples& s) {
    report.metric(name + "_p50_us", s.block_quantile(0.50, kMedianBlock, kAcrossBlocks),
                  "us", s.size());
    report.metric(name + "_p99_us", s.block_quantile(0.99, kTailBlock, kAcrossBlocks),
                  "us", s.size());
  };
  percentiles("observe", run.observe_us);
  percentiles("hello", run.hello_us);
  report.metric("goodput_rps", run.goodput_rps, "1/s");
  report.metric("capacity_rps", run.capacity_rps, "1/s");
  report.metric("capacity_wall_rps", run.capacity_wall_rps, "1/s");
  report.metric("cpu_us_per_reply", run.cpu_us_per_reply, "us");
  report.metric("pred_err_p50", run.pred_err.quantile(0.5), "ratio", run.pred_err.size());
  if (pilot) {
    percentiles("decision", run.decision_us);
    report.metric("chunks_per_s", run.chunks_per_s, "1/s");
    report.metric("qoe_mean", run.qoe_mean, "kbps", run.qoe_sessions);
  } else {
    report.metric("loadgen.late_p99_us", run.late_us.quantile(0.99), "us",
                  run.late_us.size());
  }
}

void report_self_times(const Tracer& tracer, Report& report) {
  for (const auto& [layer, t] : tracer.totals()) {
    char line[160];
    std::snprintf(line, sizeof line, "span %-28s calls=%-8llu self=%.3f us/call total=%.3f us/call",
                  layer.c_str(), static_cast<unsigned long long>(t.count),
                  static_cast<double>(t.self_ns) / 1e3 / static_cast<double>(t.count),
                  static_cast<double>(t.total_ns) / 1e3 / static_cast<double>(t.count));
    report.note(line);
  }
}

int run(const Args& args) {
  const bool pilot = args.workload == "mpc-pilot";
  // Placement on a 4-CPU machine: load threads and server threads never
  // share a CPU (stream/churn: generator on 0, server on 1-2; pilot: players
  // on 0 and 1, replicas on 2-3). With fewer CPUs nothing is pinned.
  const int cpus = usable_cpus();
  const bool place = cpus >= 4;
  std::vector<int> load_cpus = pilot ? std::vector<int>{0, 1} : std::vector<int>{0};
  std::vector<int> server_cpus = pilot ? std::vector<int>{2, 3} : std::vector<int>{1, 2};
  if (!place) {
    load_cpus.assign(load_cpus.size(), -1);
    server_cpus.clear();
  }
  if (place) pin_thread(0, {load_cpus[0]});

  Report report;
  Samples setup_s;
  World world;
  std::unique_ptr<ServerGroup> group;
  const int repeats = args.trace ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    group.reset();
    world = World{};
    const std::int64_t start = now_ns();
    world = build_world(kWorldSessions);
    group = std::make_unique<ServerGroup>(world.model, pilot ? 2 : 1, pilot ? 1 : 2,
                                          server_cpus);
    setup_s.add(static_cast<double>(now_ns() - start) / 1e9);
  }
  report.note("world: " + std::to_string(world.train.size()) + " training and " +
              std::to_string(world.test.size()) + " test-day sessions; warm_up() trained " +
              std::to_string(world.warm_up_clusters) + " cluster models, the lazy-cache fill " +
              std::to_string(world.lazy_fill_clusters) + " more");
  report.note(std::string("threads: ") + (group->pinned() ? "pinned" : "not pinned") +
              ", " + std::to_string(cpus) + " CPUs");
  report.metric("core.engine.lazy_fill_clusters",
                static_cast<double>(world.lazy_fill_clusters), "count");

  RunOptions options{args.seed, args.seconds, false, load_cpus};
  const std::vector<const cs2p::Session*> pilot_list =
      pilot_sessions(world, args.seed, kPilotSessions);
  const auto drive = [&](const RunOptions& o, Capture& capture) {
    if (args.workload == "stream-steady") return run_stream(world, *group, o, capture);
    if (args.workload == "session-churn") return run_churn(world, *group, o, capture);
    // The players cannot saturate the replicas; half the time goes to the
    // pilot's request mix, pipelined.
    RunOptions half = o;
    half.seconds = o.seconds / 2;
    WorkloadRun run = run_pilot(world, *group, pilot_list, half, /*one_pass=*/false, capture);
    saturate_pilot_mix(world, *group, pilot_list, half, run);
    return run;
  };

  if (!args.trace) {
    Capture none;
    const WorkloadRun run = drive(options, none);
    add_run(run, "", report);
    check_invariants(run, *group, report);
    report.metric("setup_s", setup_s.quantile(0.5), "s", setup_s.size());
    report_end_to_end(run, pilot, report);
    report.metric("rss_mb", run.rss_mb, "MB");
  } else {
    RunOptions half = options;
    half.seconds = args.seconds / 2;
    Capture none;
    const WorkloadRun plain = drive(half, none);
    add_run(plain, "untraced/", report);
    check_invariants(plain, *group, report);

    half.trace = true;
    Capture capture;
    capture.payload_limit = kPayloadsKept;
    capture.op_limit = kTableOpsKept;
    WorkloadRun traced = drive(half, capture);
    add_run(traced, "traced/", report);
    check_invariants(traced, *group, report);

    report_server_layer(traced, report);
    const double width = batch_width(traced);
    report_wire_layer(capture, report);
    report_table_layer(capture, width, report);
    report_engine_layer(world, capture, width, traced, report);
    if (pilot) {
      report_client_layer(traced, report);
    } else {
      // The client path is not on this workload's request path: replay a
      // few test-day sessions through ReplicaSet + MPC against its server.
      RunOptions replay = half;
      replay.generator_cpus = {load_cpus[0]};
      Capture unused;
      const WorkloadRun client = run_pilot(
          world, *group, pilot_sessions(world, args.seed, kReplaySessions), replay,
          /*one_pass=*/true, unused);
      add_run(client, "client-replay/", report);
      report_client_layer(client, report);
      traced.tracer.merge(client.tracer);
    }
    const Samples& base = pilot ? plain.decision_us : plain.observe_us;
    const Samples& with = pilot ? traced.decision_us : traced.observe_us;
    report.metric("trace.overhead_pct",
                  100.0 * (with.quantile(0.5) / base.quantile(0.5) - 1.0), "%");
    report.note(std::string("tracing overhead: median ") +
                (pilot ? "decision" : "OBSERVE") + " latency untraced " +
                std::to_string(base.quantile(0.5)) + " us, traced " +
                std::to_string(with.quantile(0.5)) + " us");
    report_self_times(traced.tracer, report);
    if (!args.spans.empty()) traced.tracer.write_jsonl(args.spans);
  }
  report.print();
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  try {
    const servebench::Args args = servebench::parse_args(argc, argv);
    return servebench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
