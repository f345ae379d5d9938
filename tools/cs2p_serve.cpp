// cs2p_serve — run the CS2P prediction service on a trace dataset.
//
//   cs2p_serve --data traces.csv --port 9000
//              --snapshot-dir /var/lib/cs2p --reload-interval 86400
//
// Trains a CS2P engine on the training days and serves the wire protocol of
// net/wire.h until SIGINT/SIGTERM. Clients can drive per-session prediction
// (HELLO/OBSERVE/PREDICT) or download compact models (MODEL) for the
// client-side mode.
//
// Model lifecycle (DESIGN.md §9):
//   - With --snapshot-dir, startup restores the engine from
//     <dir>/cs2p_engine.snapshot when it matches the config and dataset
//     (restart latency = snapshot load, not a full Baum-Welch pass); any
//     corrupt/mismatched snapshot falls back to fresh training and is
//     atomically overwritten.
//   - SIGHUP, or every --reload-interval seconds, re-reads --data, retrains
//     a fresh engine in the serving process, snapshots it, and hot-swaps it
//     into the server. In-flight sessions finish on their old model; new
//     sessions get the fresh one. A failed reload keeps the current model.
//
// Prediction guardrails (DESIGN.md §10):
//   - With --guardrail, every session runs behind the sanitizer + surprise
//     monitor + fallback chain of GuardedSessionPredictor, and PRED replies
//     carry serve-flags explaining the serving path.
//
// Continuous training (DESIGN.md §15):
//   - With --continuous-train (implies the guardrail), every completed
//     session (BYE or eviction) streams into per-cluster reservoirs and a
//     background trainer retrains clusters whose statistics moved. Candidate
//     models must beat the incumbent on a held-out canary slice by
//     --canary-margin before they are hot-swapped; accepted generations
//     serve under a --probation-ms window in which a drift-quorum trip
//     rolls the cluster back to its parent generation automatically.
//   - Interval reloads skip the full retrain when the dataset fingerprint
//     is unchanged (a SIGHUP retrain always runs: it is an operator order).
//
// Telemetry (DESIGN.md §11):
//   - One process-wide metrics registry is wired through the engine, the
//     guardrails and the server, so a STATS scrape (or cs2p_stats) sees the
//     whole process. --metrics-interval N dumps the exposition to stdout
//     every N seconds; the final dump runs on the SIGINT path *before*
//     server teardown, so a hung connection cannot swallow the last stats.
//   - --trace-log FILE --trace-sample R appends the JSONL prediction trace
//     of a deterministic R-fraction of sessions; flushed on every metrics
//     tick and on the signal path.
//
// Replication (DESIGN.md §13):
//   - --peers P1,P2 pushes every built model's checksummed snapshot to the
//     replicas on those ports over the SYNC verbs; each replica verifies
//     byte-for-byte before hot-swapping, so the whole tier serves the same
//     model without shared disk.
//   - --sync-from P bootstraps this replica by pulling the snapshot
//     published on port P (falling back to local training), so a fresh
//     replica joins the tier without a Baum-Welch pass.
//   - --accept-sync 0 refuses shipped snapshots (trainer-only trust).

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/model_store.h"
#include "core/trainer.h"
#include "dataset/dataset.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tools/cli.h"

namespace {
std::atomic<bool> g_stop{false};
std::atomic<bool> g_drain{false};
std::atomic<bool> g_reload{false};
void handle_signal(int) { g_stop.store(true); }
// SIGTERM = orchestrated restart: drain first (stop accepting, migrate
// sessions off via the kDraining hint), hard-stop only at the deadline.
// SIGINT stays the immediate stop it always was.
void handle_sigterm(int) { g_drain.store(true); }
void handle_sighup(int) { g_reload.store(true); }
}  // namespace

int main(int argc, char** argv) try {
  using namespace cs2p;
  cli::ArgParser args("cs2p_serve", "serve CS2P predictions over TCP");
  args.add_option("data", "input CSV with training sessions", "traces.csv");
  args.add_option("port", "TCP port on 127.0.0.1 (0 = ephemeral)", "0");
  args.add_option("train-days", "use sessions with day < this for training", "1");
  args.add_option("hmm-states", "HMM state count", "6");
  args.add_option("warm-up", "pre-train cluster HMMs before serving (1/0)", "1");
  args.add_option("max-connections", "reject connections beyond this cap", "64");
  args.add_option("io-threads",
                  "serving worker threads; each runs an event loop over its "
                  "share of the connections (0 = hardware concurrency)", "0");
  args.add_option("session-shards",
                  "session-table shard count, rounded up to a power of two "
                  "(0 = default 16, at most 65536)", "0");
  args.add_option("idle-timeout-ms", "close connections idle this long", "30000");
  args.add_option("session-ttl-ms", "evict sessions untouched this long", "120000");
  args.add_option("max-sample-mbps", "reject OBSERVE samples above this", "10000");
  args.add_option("snapshot-dir",
                  "crash-safe model store: restore on start, persist after "
                  "(re)training (empty = off)", "");
  args.add_option("reload-interval",
                  "retrain from --data and hot-swap every N seconds (0 = "
                  "only on SIGHUP)", "0");
  args.add_option("guardrail",
                  "wrap sessions in prediction guardrails (sanitizer + "
                  "surprise monitor + fallback chain) (1/0)", "0");
  args.add_option("continuous-train",
                  "stream completed sessions into a background trainer with "
                  "a canary gate + probation rollback (implies --guardrail "
                  "1) (1/0)", "0");
  args.add_option("canary-margin",
                  "nats/observation a candidate model must win the held-out "
                  "log-likelihood canary by before it is hot-swapped", "0.05");
  args.add_option("probation-ms",
                  "post-swap probation window; a drift-quorum trip inside it "
                  "rolls the cluster back to its parent generation", "5000");
  args.add_option("reservoir-size",
                  "completed-session sequences retained per cluster for "
                  "retraining + canary holdout", "64");
  args.add_option("lenient-ingest",
                  "skip invalid rows in --data instead of aborting (1/0)", "0");
  args.add_option("metrics-interval",
                  "dump the metrics exposition to stdout every N seconds "
                  "(0 = only on shutdown)", "0");
  args.add_option("trace-log",
                  "append the JSONL per-session prediction trace to this "
                  "file (empty = off)", "");
  args.add_option("trace-sample",
                  "fraction of sessions traced into --trace-log, in [0, 1]",
                  "1.0");
  args.add_option("trace-seed",
                  "session-sampling hash seed (same seed + rate = same "
                  "sessions traced)", "1555217942");
  args.add_option("peers",
                  "comma-separated loopback ports of serving replicas; every "
                  "built model's snapshot is SYNC-pushed to each of them "
                  "(empty = off)", "");
  args.add_option("sync-from",
                  "bootstrap the model by SYNC-fetching a snapshot from the "
                  "replica on this loopback port instead of training; falls "
                  "back to local training on failure (0 = off)", "0");
  args.add_option("accept-sync",
                  "accept SYNC-shipped snapshots from a trainer and hot-swap "
                  "them after verification (1/0)", "1");
  args.add_option("drain-deadline-ms",
                  "on SIGTERM, drain gracefully (stop accepting, hint "
                  "clients to migrate) and exit once all sessions are gone "
                  "or this deadline passes", "10000");
  args.add_option("retry-after-ms",
                  "backoff hint stamped on OVERLOADED/SHUTTING_DOWN replies",
                  "250");
  args.add_option("write-budget-bytes",
                  "per-connection queued-reply budget; connections over it "
                  "stop being read until they drain (0 = default 256 KiB)",
                  "0");
  args.add_option("write-stall-timeout-ms",
                  "close a connection whose queued replies made no flush "
                  "progress this long (slow reader; 0 = off)", "10000");
  if (!args.parse(argc, argv)) return 1;

  // The one registry of the process: engine(s), guardrails and server all
  // report here, and the STATS verb scrapes it.
  auto metrics = std::make_shared<obs::MetricsRegistry>();

  std::shared_ptr<obs::TraceLog> trace;
  if (!args.get("trace-log").empty()) {
    obs::TraceLog::Config trace_config;
    trace_config.path = args.get("trace-log");
    trace_config.sample_rate = args.get_double("trace-sample");
    trace_config.seed = args.get_int<std::uint64_t>("trace-seed");
    trace = std::make_shared<obs::TraceLog>(trace_config);
  }

  Cs2pConfig config;
  config.metrics = metrics;
  config.hmm.num_states = args.get_int<std::size_t>("hmm-states");
  const bool continuous_train = args.get_int<bool>("continuous-train");
  // Continuous training leans on the drift quorum for rollback, so it
  // forces the guardrail on.
  config.guardrail = args.get_int<bool>("guardrail") || continuous_train;
  const bool lenient_ingest = args.get_int<bool>("lenient-ingest");
  const int train_days = args.get_int<int>("train-days");
  const bool warm_up = args.get_int<bool>("warm-up");
  const std::string snapshot_dir = args.get("snapshot-dir");
  const std::string snapshot_path =
      snapshot_dir.empty() ? "" : snapshot_dir + "/cs2p_engine.snapshot";
  const long reload_interval_s = args.get_int<long>("reload-interval");
  const long metrics_interval_s = args.get_int<long>("metrics-interval");
  const std::uint16_t port = cli::parse_port("port", args.get("port"));

  // -- Replication (DESIGN.md §13) ------------------------------------------
  const std::vector<std::uint16_t> peer_ports =
      cli::parse_ports("peers", args.get("peers"));
  const std::uint16_t sync_from = cli::parse_port("sync-from", args.get("sync-from"));
  const bool accept_sync = args.get_int<bool>("accept-sync");

  TrainerConfig trainer_config;
  trainer_config.canary_margin = args.get_double("canary-margin");
  trainer_config.probation_ms = args.get_int<std::uint64_t>("probation-ms");
  trainer_config.reservoir_size = args.get_int<std::size_t>("reservoir-size");

  ServerConfig server_config;
  server_config.max_connections = args.get_int<std::size_t>("max-connections");
  server_config.io_threads = args.get_int<std::size_t>("io-threads");
  server_config.session_shards = args.get_int<std::size_t>("session-shards");
  server_config.idle_timeout_ms = args.get_int<int>("idle-timeout-ms");
  server_config.session_ttl_ms = args.get_int<int>("session-ttl-ms");
  server_config.max_sample_mbps = args.get_double("max-sample-mbps");
  // A ceiling at or below zero refuses every sample but a zero one.
  if (server_config.max_sample_mbps <= 0.0)
    throw std::invalid_argument("--max-sample-mbps: " +
                                args.get("max-sample-mbps") +
                                " is not a positive number");
  server_config.metrics = metrics;
  server_config.trace = trace;
  server_config.retry_after_ms = args.get_int<int>("retry-after-ms");
  server_config.write_budget_bytes =
      args.get_int<std::size_t>("write-budget-bytes");
  server_config.write_stall_timeout_ms =
      args.get_int<int>("write-stall-timeout-ms");
  const int drain_deadline_ms = args.get_int<int>("drain-deadline-ms");
  // Every flag has been read: a malformed value has failed by now, before
  // the dataset load and the training below.

  auto load_dataset = [&]() {
    if (!lenient_ingest) return Dataset::load_csv(args.get("data"));
    IngestStats ingest;
    Dataset dataset = Dataset::load_csv_lenient(args.get("data"), ingest);
    // Skip reasons land in the registry (one series per reason) so a scrape
    // after a reload shows what the last ingest dropped, not just stdout.
    metrics->counter("cs2p_ingest_rows_total", {{"outcome", "loaded"}})
        .inc(ingest.rows_loaded);
    metrics->counter("cs2p_ingest_rows_total", {{"outcome", "skipped"}})
        .inc(ingest.rows_skipped);
    const auto skip = [&](const char* reason, std::size_t n) {
      if (n > 0)
        metrics->counter("cs2p_ingest_skipped_rows_total", {{"reason", reason}})
            .inc(n);
    };
    skip("unparseable", ingest.unparseable_series);
    skip("non_finite", ingest.non_finite_samples);
    skip("negative", ingest.negative_samples);
    skip("bad_epoch", ingest.bad_epoch_seconds);
    if (ingest.rows_skipped > 0) {
      std::printf("ingest: skipped %zu/%zu rows (%zu unparseable, %zu "
                  "non-finite, %zu negative, %zu bad epoch)\n",
                  ingest.rows_skipped, ingest.rows_loaded + ingest.rows_skipped,
                  ingest.unparseable_series, ingest.non_finite_samples,
                  ingest.negative_samples, ingest.bad_epoch_seconds);
    }
    return dataset;
  };

  // Builds a model from the (possibly updated) dataset on disk; used for
  // both the initial model and every reload. `use_snapshot` is true only at
  // startup. Interval reloads pass `skip_if_unchanged`: they exist to pick
  // up new rows, so when the training split hashes to the fingerprint the
  // serving engine was built from, the retrain is skipped (returns null)
  // instead of burning a Baum-Welch pass to rebuild the same model. SIGHUP
  // retrains never skip — they rebuild state on purpose.
  std::uint64_t served_dataset_fp = 0;
  auto build_model = [&](bool use_snapshot, bool skip_if_unchanged =
                                                false) -> std::shared_ptr<Cs2pPredictorModel> {
    const Dataset dataset = load_dataset();
    auto [train, test] = dataset.split_by_day(train_days);
    (void)test;
    if (train.empty())
      throw std::runtime_error("no training sessions in " + args.get("data"));
    const std::uint64_t fp = dataset_fingerprint(train);
    if (skip_if_unchanged && fp == served_dataset_fp) {
      std::printf("reload: dataset unchanged, skipped retrain\n");
      return nullptr;
    }
    std::printf("building CS2P engine on %zu sessions...\n", train.size());
    std::string status;
    std::shared_ptr<const Cs2pEngine> engine;
    if (use_snapshot) {
      engine = load_or_train(snapshot_path, std::move(train), config, warm_up,
                             &status);
    } else {
      auto fresh = std::make_shared<Cs2pEngine>(std::move(train), config);
      if (warm_up) fresh->warm_up();
      engine = fresh;
      status = "retrained fresh engine";
      if (!snapshot_path.empty()) {
        try {
          save_snapshot(snapshot_path, *engine);
          status += "; snapshot saved to " + snapshot_path;
        } catch (const SnapshotError& e) {
          status += std::string("; snapshot save failed (") + e.what() + ")";
        }
      }
    }
    std::printf("model: %s\n", status.c_str());
    served_dataset_fp = fp;
    return std::make_shared<Cs2pPredictorModel>(std::move(engine));
  };

  // SYNC restore needs the training split (snapshot fingerprints are
  // verified against it); load it once up front when any SYNC path is on.
  std::shared_ptr<const Dataset> sync_training;
  if (accept_sync || sync_from != 0) {
    Dataset dataset = load_dataset();
    auto [train, test] = dataset.split_by_day(train_days);
    (void)test;
    sync_training = std::make_shared<const Dataset>(std::move(train));
  }

  std::shared_ptr<Cs2pPredictorModel> model;
  if (sync_from != 0) {
    try {
      PredictionClient seed(sync_from);
      const std::string bytes = seed.fetch_snapshot();
      auto engine = restore_engine_from_bytes(bytes, *sync_training, config);
      model = std::make_shared<Cs2pPredictorModel>(
          std::shared_ptr<const Cs2pEngine>(std::move(engine)));
      std::printf("model: restored %zu-byte snapshot from replica "
                  "127.0.0.1:%u\n",
                  bytes.size(), sync_from);
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "sync: fetch from 127.0.0.1:%u failed (%s), training "
                   "locally\n",
                   sync_from, e.what());
    }
  }
  if (!model) model = build_model(/*use_snapshot=*/true);

  // -- Continuous training (DESIGN.md §15) ----------------------------------
  // The trainer is declared BEFORE the server so the completion hook's
  // target outlives the serving workers that call it; a scope guard declared
  // after the server joins the trainer thread before the server (which the
  // publish hook swaps models into) can be torn down.
  std::mutex model_mutex;  // guards `model`: main loop vs trainer publish
  std::unique_ptr<ContinuousTrainer> trainer;
  if (continuous_train)
    trainer = std::make_unique<ContinuousTrainer>(model->engine_ptr(),
                                                  trainer_config);

  if (accept_sync) {
    // Decode a SYNC-shipped snapshot against our training split + config;
    // any fingerprint/parse failure throws SnapshotError and the server
    // answers SYNC_REJECTED without touching the served model.
    server_config.sync_apply =
        [sync_training, config](const std::string& bytes)
        -> std::shared_ptr<const PredictorModel> {
      auto engine = restore_engine_from_bytes(bytes, *sync_training, config);
      return std::make_shared<Cs2pPredictorModel>(
          std::shared_ptr<const Cs2pEngine>(std::move(engine)));
    };
  }
  if (trainer) {
    // Both teardown paths (BYE and TTL/drain eviction) land here — the
    // unified complete_session hook — so no completed session's observation
    // history is lost to the trainer.
    ContinuousTrainer* t = trainer.get();
    server_config.on_session_complete = [t](CompletedSession&& done) {
      t->ingest(done.features, done.start_hour, done.observations);
    };
  }

  PredictionServer server(model, server_config, port);
  std::printf("serving on 127.0.0.1:%u (SIGINT to stop, SIGHUP to reload)\n",
              server.port());
  std::printf("limits: %zu connections, %d ms idle timeout, %d ms session TTL\n",
              server_config.max_connections, server_config.idle_timeout_ms,
              server_config.session_ttl_ms);
  std::printf("serving core: %zu io thread(s), %zu session shard(s)\n",
              server.config().io_threads, server.config().session_shards);
  std::printf("overload: %zu B write budget, %d ms stall kick, "
              "drain deadline %d ms (SIGTERM)\n",
              server.config().write_budget_bytes,
              server.config().write_stall_timeout_ms, drain_deadline_ms);
  if (reload_interval_s > 0)
    std::printf("reload: retrain + hot-swap every %ld s\n", reload_interval_s);
  if (config.guardrail) std::printf("guardrail: on\n");
  if (metrics_interval_s > 0)
    std::printf("metrics: dump every %ld s\n", metrics_interval_s);
  if (trace)
    std::printf("trace: %s (sample rate %.3f)\n",
                trace->config().path.c_str(), trace->config().sample_rate);
  if (accept_sync) std::printf("sync: accepting shipped snapshots\n");
  if (!peer_ports.empty())
    std::printf("sync: pushing snapshots to %zu peer replica(s)\n",
                peer_ports.size());

  // Publish a model's snapshot bytes for SYNCFETCH pulls and push them to
  // every --peers replica. Runs at startup, after every hot-swap, and from
  // the trainer's publish hook; a failed push is that replica's loss, never
  // ours.
  auto push_snapshot_bytes = [&](const std::string& bytes) {
    server.publish_snapshot(bytes);
    for (const std::uint16_t peer_port : peer_ports) {
      try {
        PredictionClient peer(peer_port);
        peer.push_snapshot(bytes);
        std::printf("sync: pushed %zu-byte snapshot to 127.0.0.1:%u\n",
                    bytes.size(), peer_port);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "sync: push to 127.0.0.1:%u failed: %s\n",
                     peer_port, e.what());
      }
    }
  };
  auto publish_and_push = [&](const Cs2pPredictorModel& built) -> std::string {
    std::string bytes;
    try {
      bytes = serialize_engine(built.engine());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sync: serialize failed: %s\n", e.what());
      return std::string();
    }
    push_snapshot_bytes(bytes);
    return bytes;
  };
  publish_and_push(*model);

  // Joins the trainer thread on every exit path BEFORE the server (declared
  // above it) is destroyed — the publish hook below swaps models into the
  // server, so the thread must be gone first.
  struct TrainerStopGuard {
    ContinuousTrainer* trainer;
    ~TrainerStopGuard() {
      if (trainer != nullptr) trainer->stop();
    }
  } trainer_stop{trainer.get()};
  if (trainer) {
    trainer->set_publish([&](const std::shared_ptr<const Cs2pEngine>& engine,
                             const std::string& bytes) {
      auto fresh = std::make_shared<Cs2pPredictorModel>(engine);
      server.swap_model(fresh);
      {
        const std::lock_guard<std::mutex> lock(model_mutex);
        model = fresh;
      }
      push_snapshot_bytes(bytes);
      return true;
    });
    trainer->start();
    std::printf("trainer: continuous training on (reservoir %zu, canary "
                "margin %.3f nats, probation %llu ms)\n",
                trainer->config().reservoir_size,
                trainer->config().canary_margin,
                static_cast<unsigned long long>(trainer->config().probation_ms));
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_sigterm);
  std::signal(SIGHUP, handle_sighup);

  // One flush point for both sinks: metrics go to stdout, the trace tail to
  // its file. Runs on every --metrics-interval tick and (crucially) on the
  // signal path before server.stop() — a SIGINT while a connection hangs in
  // teardown must not lose the final stats or the buffered trace records.
  auto flush_telemetry = [&](bool dump_metrics) {
    if (dump_metrics) {
      const std::string exposition = metrics->scrape();
      std::fwrite(exposition.data(), 1, exposition.size(), stdout);
      std::fflush(stdout);
    }
    if (trace) trace->flush();
  };

  using Clock = std::chrono::steady_clock;
  auto last_reload = Clock::now();
  auto last_metrics = Clock::now();
  // The model currently served, read consistently against trainer swaps.
  auto current_model = [&] {
    const std::lock_guard<std::mutex> lock(model_mutex);
    return model;
  };
  auto drain_started = Clock::time_point{};
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    // Zero-downtime drain (DESIGN.md §14): SIGTERM stops accepting, answers
    // new HELLOs SHUTTING_DOWN, stamps replies kDraining so the client tier
    // migrates, and exits once the session table empties (or the deadline
    // forces the issue). SIGINT remains the immediate stop.
    if (g_drain.load() && drain_started == Clock::time_point{}) {
      drain_started = Clock::now();
      std::printf("drain: SIGTERM received, draining %zu session(s) "
                  "(deadline %d ms)\n",
                  server.session_count(), drain_deadline_ms);
      std::fflush(stdout);
      server.begin_drain();
    }
    if (drain_started != Clock::time_point{}) {
      if (server.wait_drained(0)) {
        std::printf("drain: complete, exiting\n");
        break;
      }
      if (Clock::now() - drain_started >=
          std::chrono::milliseconds(drain_deadline_ms)) {
        std::printf("drain: deadline reached with %zu session(s) remaining, "
                    "exiting\n",
                    server.session_count());
        break;
      }
    }
    if (metrics_interval_s > 0 &&
        Clock::now() - last_metrics >= std::chrono::seconds(metrics_interval_s)) {
      last_metrics = Clock::now();
      flush_telemetry(/*dump_metrics=*/true);
    }
    const bool interval_due =
        reload_interval_s > 0 &&
        Clock::now() - last_reload >= std::chrono::seconds(reload_interval_s);
    const bool manual_reload = g_reload.exchange(false);
    if (!manual_reload && !interval_due) continue;
    last_reload = Clock::now();
    try {
      // Retrain while the old model keeps serving; swap only on success.
      // Only the pure interval trigger may skip on an unchanged dataset:
      // SIGHUP is an operator order.
      auto fresh = build_model(/*use_snapshot=*/false,
                               /*skip_if_unchanged=*/interval_due && !manual_reload);
      if (!fresh) continue;  // dataset unchanged, retrain skipped
      server.swap_model(fresh);
      {
        const std::lock_guard<std::mutex> lock(model_mutex);
        model = fresh;
      }
      const std::string bytes = publish_and_push(*fresh);
      // Hand the reloaded engine to the trainer OUTSIDE model_mutex: its
      // publish hook takes model_mutex on the trainer thread while holding
      // the training lock that set_engine needs.
      if (trainer && !bytes.empty())
        trainer->set_engine(fresh->engine_ptr(), bytes);
      std::printf("hot-swap #%llu complete (%zu live sessions keep their "
                  "old model)\n",
                  static_cast<unsigned long long>(server.models_swapped()),
                  server.session_count());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "reload failed: %s (keeping current model)\n",
                   e.what());
    }
  }
  // Stop the trainer first: its summary below must be final, and the model
  // pointer must stop moving before the stats reads.
  if (trainer) {
    trainer->stop();
    const TrainerStats ts = trainer->stats();
    std::printf("trainer: %llu ingested, %llu retrains, %llu canary accepts, "
                "%llu rejects, %llu rollbacks (generation %llu)\n",
                static_cast<unsigned long long>(ts.sessions_ingested),
                static_cast<unsigned long long>(ts.retrains),
                static_cast<unsigned long long>(ts.canary_accepts),
                static_cast<unsigned long long>(ts.canary_rejects),
                static_cast<unsigned long long>(ts.rollbacks),
                static_cast<unsigned long long>(ts.generation));
  }
  // Final telemetry BEFORE teardown: stop() joins workers, and a hung
  // connection makes that wait — the stats must already be out by then.
  flush_telemetry(/*dump_metrics=*/metrics_interval_s > 0);
  std::printf("\nstopping after %llu requests (%llu model swaps)\n",
              static_cast<unsigned long long>(server.requests_handled()),
              static_cast<unsigned long long>(server.models_swapped()));
  if (config.guardrail) {
    const EngineStats engine_stats = current_model()->engine().stats();
    std::printf("guardrail: %zu guarded sessions, %zu trips, %zu recoveries, "
                "%zu drifted clusters, %llu degraded replies\n",
                engine_stats.guarded_sessions, engine_stats.guardrail_trips,
                engine_stats.guardrail_recoveries, engine_stats.clusters_drifted,
                static_cast<unsigned long long>(server.degraded_replies()));
  }
  server.stop();
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "cs2p_serve: %s\n", e.what());
  return 1;
}
