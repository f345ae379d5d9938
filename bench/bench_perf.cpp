// §5.3 / §6 — performance microbenchmarks (google-benchmark).
//
// Paper claims to verify:
//  * online prediction is "two matrix multiplication operations" and takes
//    < 10 ms on a laptop (ours is ns-scale in C++);
//  * a trained HMM occupies < 5 KB;
//  * the deployed server sustains ~500 predictions/second (Node.js; our TCP
//    service does far more).
//
// The BM_Obs* group prices the telemetry layer (DESIGN.md §11). CI divides
// BM_ObsPerRequestInstrumentation by BM_TcpObserveRoundTrip and fails the
// build if the registry work a request triggers exceeds 2% of the request it
// decorates (measured ~0.1-0.3%: tens of ns against tens of µs).

#include <benchmark/benchmark.h>

#include <memory>
#include <mutex>

#include "abr/mpc.h"
#include "bench/common.h"
#include "core/engine.h"
#include "dataset/synthetic.h"
#include "hmm/baum_welch.h"
#include "hmm/kernel.h"
#include "hmm/online_filter.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/player.h"

namespace {

using namespace cs2p;

/// Small world shared by the microbenches (built once).
struct PerfFixture {
  PerfFixture() {
    SyntheticConfig config = bench::standard_config();
    config.num_sessions = 4000;
    Dataset dataset = generate_synthetic_dataset(config);
    auto [tr, te] = dataset.split_by_day(1);
    train = std::move(tr);
    test = std::move(te);
    model = std::make_shared<Cs2pPredictorModel>(train);
    for (const auto& s : test.sessions()) {
      if (s.throughput_mbps.size() >= 40) {
        probe = &s;
        break;
      }
    }
  }
  Dataset train, test;
  std::shared_ptr<Cs2pPredictorModel> model;
  const Session* probe = nullptr;
};

PerfFixture& fixture() {
  static PerfFixture instance;
  return instance;
}

void BM_HmmPredict(benchmark::State& state) {
  auto& f = fixture();
  auto predictor = f.model->make_session(SessionContext::from(*f.probe));
  predictor->observe(f.probe->throughput_mbps[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor->predict(1));
  }
}
BENCHMARK(BM_HmmPredict);

void BM_HmmObserveAndPredict(benchmark::State& state) {
  auto& f = fixture();
  auto predictor = f.model->make_session(SessionContext::from(*f.probe));
  std::size_t t = 0;
  for (auto _ : state) {
    predictor->observe(f.probe->throughput_mbps[t % f.probe->throughput_mbps.size()]);
    benchmark::DoNotOptimize(predictor->predict(1));
    ++t;
  }
}
BENCHMARK(BM_HmmObserveAndPredict);

// -- HMM inference kernel (DESIGN.md §16) -------------------------------------
// Single-core cost of the filter on a shared SoA kernel, by model size.
// ObservePredict does one full serve step per session (observe + next-epoch
// predict); Predict isolates the PREDICT-verb hot path (no emission exp).
// items/s is predictions/s.

/// Deterministic n-state model shaped like the paper's trained clusters:
/// sticky diagonal, spread means.
GaussianHmm kernel_bench_model(std::size_t n) {
  GaussianHmm model;
  model.initial.assign(n, 1.0 / static_cast<double>(n));
  model.transition = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      model.transition(i, j) =
          i == j ? 0.7 : 0.3 / static_cast<double>(n - 1);
  model.states.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    model.states[i].mean = 1.0 + 1.5 * static_cast<double>(i);
    model.states[i].sigma = 0.3 + 0.05 * static_cast<double>(i);
  }
  return model;
}

/// A short observation cycle hitting different states (kept out of the timed
/// loop).
std::vector<double> kernel_bench_stream(const GaussianHmm& model) {
  std::vector<double> stream;
  for (std::size_t i = 0; i < 8; ++i)
    stream.push_back(model.states[i % model.num_states()].mean * 1.04);
  return stream;
}

/// One session advanced + predicted per iteration — the per-OBSERVE cost
/// of the serve path.
void BM_KernelScalarObservePredict(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto kernel = HmmKernel::create(kernel_bench_model(n));
  const std::vector<double> stream = kernel_bench_stream(kernel->model());
  OnlineHmmFilter filter(kernel);
  std::size_t t = 0;
  for (auto _ : state) {
    filter.observe(stream[t % stream.size()]);
    benchmark::DoNotOptimize(filter.predict(1));
    ++t;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["predictions/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KernelScalarObservePredict)->Arg(4)->Arg(6)->Arg(8);

/// Predict-only: the PREDICT-verb hot path — belief · P^tau from the
/// kernel's cached powers, no emission exp.
void BM_KernelScalarPredict(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto kernel = HmmKernel::create(kernel_bench_model(n));
  const std::vector<double> stream = kernel_bench_stream(kernel->model());
  OnlineHmmFilter filter(kernel);
  for (const double w : stream) filter.observe(w);
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.predict(1));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["predictions/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KernelScalarPredict)->Arg(4)->Arg(6)->Arg(8);

void BM_HmmTrainCluster(benchmark::State& state) {
  auto& f = fixture();
  std::vector<std::vector<double>> sequences;
  for (const auto& s : f.train.sessions()) {
    if (s.throughput_mbps.size() >= 10) sequences.push_back(s.throughput_mbps);
    if (sequences.size() == 40) break;
  }
  BaumWelchConfig config;
  config.num_states = static_cast<std::size_t>(state.range(0));
  config.max_iterations = 30;
  for (auto _ : state) {
    benchmark::DoNotOptimize(train_hmm(sequences, config));
  }
}
BENCHMARK(BM_HmmTrainCluster)->Arg(4)->Arg(6)->Arg(8)->Unit(benchmark::kMillisecond);

// The largest single fit of servebench's set-up: the engine's global model
// on day 0 of a 1,000-session standard world. Every session with >= 2 epochs
// is a sequence (the world stays under Cs2pConfig::max_global_sequences, so
// the engine subsamples none) and the engine's default BaumWelchConfig.
void BM_HmmTrainGlobal(benchmark::State& state) {
  SyntheticConfig world = bench::standard_config();
  world.num_sessions = 1000;
  const Dataset train = generate_synthetic_dataset(world).split_by_day(1).first;
  std::vector<std::vector<double>> sequences;
  std::size_t epochs = 0;
  for (const auto& s : train.sessions()) {
    if (s.throughput_mbps.size() < 2) continue;
    sequences.push_back(s.throughput_mbps);
    epochs += s.throughput_mbps.size();
  }
  const Cs2pConfig config;
  int iterations = 0;
  for (auto _ : state) {
    const BaumWelchResult result = train_hmm(sequences, config.hmm);
    iterations = result.iterations_run;
    benchmark::DoNotOptimize(result);
  }
  state.counters["sequences"] = static_cast<double>(sequences.size());
  state.counters["epochs"] = static_cast<double>(epochs);
  state.counters["em_iterations"] = iterations;
}
BENCHMARK(BM_HmmTrainGlobal)->Unit(benchmark::kMillisecond);

void BM_EngineSessionLookup(benchmark::State& state) {
  auto& f = fixture();
  const Cs2pEngine& engine = f.model->engine();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.session_model(f.probe->features, f.probe->start_hour));
  }
}
BENCHMARK(BM_EngineSessionLookup);

void BM_MpcDecision(benchmark::State& state) {
  auto& f = fixture();
  auto predictor = f.model->make_session(SessionContext::from(*f.probe));
  predictor->observe(f.probe->throughput_mbps[0]);
  MpcController controller;
  VideoSpec video;
  AbrState abr_state;
  abr_state.chunk_index = 5;
  abr_state.buffer_seconds = 12.0;
  abr_state.last_bitrate_index = 2;
  abr_state.last_throughput_mbps = f.probe->throughput_mbps[0];
  abr_state.predictor = predictor.get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.select_bitrate(abr_state, video));
  }
}
BENCHMARK(BM_MpcDecision)->Unit(benchmark::kMicrosecond);

void BM_TcpObserveRoundTrip(benchmark::State& state) {
  auto& f = fixture();
  static PredictionServer server(f.model);
  static PredictionClient client(server.port());
  static const SessionResponse session =
      client.hello(f.probe->features, f.probe->start_hour);
  std::size_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.observe(
        session.session_id,
        f.probe->throughput_mbps[t % f.probe->throughput_mbps.size()]));
    ++t;
  }
  state.counters["predictions/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TcpObserveRoundTrip)->Unit(benchmark::kMicrosecond);

/// Aggregate service throughput at N concurrent connections (§6: the
/// deployed engine's capacity story). Each benchmark thread is one
/// persistent client driving OBSERVE round trips against a shared server
/// serving the real CS2P model; requests/s is the aggregate rate across
/// all threads. Run at 1/8/64 to see how the serving core scales with
/// connection count (EXPERIMENTS.md records pre/post-refactor numbers).
void BM_ServerConcurrency(benchmark::State& state) {
  auto& f = fixture();
  static PredictionServer* server = [] {
    ServerConfig config;
    config.max_connections = 128;
    return new PredictionServer(fixture().model, config);
  }();
  PredictionClient client(server->port());
  const SessionResponse session =
      client.hello(f.probe->features, f.probe->start_hour);
  std::size_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.observe(
        session.session_id,
        f.probe->throughput_mbps[t % f.probe->throughput_mbps.size()]));
    ++t;
  }
  client.bye(session.session_id);
  state.counters["requests/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServerConcurrency)
    ->Threads(1)
    ->Threads(8)
    ->Threads(64)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// Goodput under overload (DESIGN.md §14): short sessions (HELLO, 8
/// OBSERVEs, BYE) from far more concurrent clients than the 2-worker server
/// is sized for. With admission control off every session is admitted and
/// they all contend; with shedding on, HELLOs past the utilization/queue
/// thresholds answer OVERLOADED (counted as `shed`, not goodput) and the
/// admitted sessions keep their latency. The claim EXPERIMENTS.md records:
/// the shedding server sustains >= 90% of its saturation goodput at ~2x
/// capacity, instead of collapsing.
void BM_GoodputUnderOverload(benchmark::State& state, bool shed) {
  auto& f = fixture();
  static PredictionServer* servers[2] = {nullptr, nullptr};
  static std::mutex init_mutex;
  {
    std::scoped_lock lock(init_mutex);
    if (servers[shed ? 1 : 0] == nullptr) {
      ServerConfig config;
      config.io_threads = 2;  // fixed capacity the client fleet overruns
      config.max_connections = 256;
      if (shed) {
        config.shed_utilization = 0.85;
        config.shed_pending_replies = 64;
        config.retry_after_ms = 5;
      }
      servers[shed ? 1 : 0] = new PredictionServer(fixture().model, config);
    }
  }
  PredictionServer& server = *servers[shed ? 1 : 0];
  PredictionClient client(server.port());
  std::uint64_t served = 0;
  std::uint64_t shed_hellos = 0;
  for (auto _ : state) {
    try {
      const SessionResponse session =
          client.hello(f.probe->features, f.probe->start_hour);
      for (int i = 0; i < 8; ++i)
        benchmark::DoNotOptimize(client.observe(
            session.session_id,
            f.probe->throughput_mbps[static_cast<std::size_t>(i) %
                                     f.probe->throughput_mbps.size()]));
      client.bye(session.session_id);
      served += 8;
    } catch (const ServerError&) {
      ++shed_hellos;  // admission refused with a retry-after hint
    }
  }
  state.counters["goodput/s"] = benchmark::Counter(
      static_cast<double>(served), benchmark::Counter::kIsRate);
  state.counters["shed_hellos"] = static_cast<double>(shed_hellos);
}
BENCHMARK_CAPTURE(BM_GoodputUnderOverload, shed_off, false)
    ->Threads(2)
    ->Threads(16)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GoodputUnderOverload, shed_on, true)
    ->Threads(2)
    ->Threads(16)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_ModelFootprint(benchmark::State& state) {
  auto& f = fixture();
  const SessionModelRef ref =
      f.model->engine().session_model(f.probe->features, f.probe->start_hour);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ref.hmm->byte_size());
  }
  state.counters["model_bytes"] = static_cast<double>(ref.hmm->byte_size());
  state.counters["serialized_bytes"] =
      static_cast<double>(serialize_hmm(*ref.hmm).size());
}
BENCHMARK(BM_ModelFootprint);

// -- Telemetry cost (DESIGN.md §11) ------------------------------------------

void BM_ObsCounterInc(benchmark::State& state) {
  static obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("bench_counter_total");
  for (auto _ : state) counter.inc();
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsCounterIncContended(benchmark::State& state) {
  static obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("bench_contended_total");
  for (auto _ : state) counter.inc();
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_ObsCounterIncContended)->Threads(8);

void BM_ObsHistogramObserve(benchmark::State& state) {
  static obs::MetricsRegistry registry;
  obs::Histogram& histogram = registry.histogram(
      "bench_latency_seconds", obs::default_latency_buckets_seconds());
  double sample = 1e-6;
  for (auto _ : state) {
    histogram.observe(sample);
    sample = sample < 1.0 ? sample * 1.7 : 1e-6;  // walk the buckets
  }
}
BENCHMARK(BM_ObsHistogramObserve);

/// Exactly the registry work one PRED request adds in net/server.cpp:
/// requests + per-verb + replies counters and the latency histogram. This is
/// the number CI holds under 2% of BM_TcpObserveRoundTrip.
void BM_ObsPerRequestInstrumentation(benchmark::State& state) {
  static obs::MetricsRegistry registry;
  obs::Counter& requests = registry.counter("bench_requests_total");
  obs::Counter& verb = registry.counter("bench_verb_requests_total",
                                        {{"verb", "observe"}});
  obs::Counter& replies = registry.counter("bench_replies_total");
  // One send and one recv per request: the unbatched worst case.
  obs::Counter& sends = registry.counter("bench_send_calls_total");
  obs::Counter& recvs = registry.counter("bench_recv_calls_total");
  obs::Histogram& latency = registry.histogram(
      "bench_request_seconds", obs::default_latency_buckets_seconds());
  for (auto _ : state) {
    requests.inc();
    verb.inc();
    replies.inc();
    sends.inc();
    recvs.inc();
    latency.observe(12e-6);
  }
}
BENCHMARK(BM_ObsPerRequestInstrumentation);

void BM_ObsTraceSampleDecision(benchmark::State& state) {
  std::uint64_t session_id = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        obs::trace_sample_decision(0x5cb29e16u, 0.01, session_id++));
  }
}
BENCHMARK(BM_ObsTraceSampleDecision);

void BM_ObsRegistryScrape(benchmark::State& state) {
  static obs::MetricsRegistry& registry = []() -> obs::MetricsRegistry& {
    static obs::MetricsRegistry r;
    // Populate to roughly the series count of a live cs2p_serve.
    for (int i = 0; i < 24; ++i)
      r.counter("bench_family_" + std::to_string(i) + "_total").inc();
    for (int i = 0; i < 6; ++i)
      r.gauge("bench_gauge_" + std::to_string(i)).set(static_cast<double>(i));
    for (int i = 0; i < 4; ++i) {
      auto& h = r.histogram("bench_hist_" + std::to_string(i) + "_seconds",
                            obs::default_latency_buckets_seconds());
      for (int j = 0; j < 100; ++j) h.observe(1e-5 * j);
    }
    return r;
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.scrape());
  }
  state.counters["scrape_bytes"] =
      static_cast<double>(registry.scrape().size());
}
BENCHMARK(BM_ObsRegistryScrape)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
