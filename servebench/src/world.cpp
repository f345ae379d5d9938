#include "world.h"

#include <string>
#include <utility>

#include "bench/common.h"
#include "common.h"
#include "util/rng.h"

namespace servebench {

using namespace cs2p;

namespace {

/// Number of global-model tuples added to the test day's feature mix.
constexpr std::size_t kUnseenTuples = 16;

}  // namespace

std::size_t clusters_trained(const World& world) {
  return world.model->engine().stats().clusters_trained;
}

World build_world(std::size_t sessions) {
  SyntheticConfig config = bench::standard_config();
  config.num_sessions = sessions;
  Dataset dataset = generate_synthetic_dataset(config);
  auto [train, test] = dataset.split_by_day(1);

  World world;
  world.train = std::move(train);
  world.test = std::move(test);

  // Sessions from networks the training day never saw: every feature value
  // is new, so the selector finds no cluster and the global model serves.
  Rng rng(config.seed ^ 0x756e7365656eULL);
  for (std::size_t k = 0; k < kUnseenTuples && !world.test.sessions().empty(); ++k) {
    Session session =
        world.test.sessions()[rng.uniform_index(world.test.sessions().size())];
    const std::string tag = "unseen" + std::to_string(k);
    session.features = SessionFeatures{tag, tag, tag, tag, tag, tag};
    world.unseen.push_back(std::move(session));
  }

  auto model = std::make_shared<Cs2pPredictorModel>(world.train);
  world.warm_up_clusters = model->engine().warm_up();
  const std::size_t after_warm_up = model->engine().stats().clusters_trained;
  for (const Session& s : world.test.sessions())
    (void)model->make_session(SessionContext::from(s));
  for (const Session& s : world.unseen)
    (void)model->make_session(SessionContext::from(s));
  world.lazy_fill_clusters = model->engine().stats().clusters_trained - after_warm_up;
  world.model = std::move(model);
  return world;
}

ServerGroup::ServerGroup(std::shared_ptr<const PredictorModel> model,
                         std::size_t count, std::size_t io_threads,
                         const std::vector<int>& cpus) {
  ServerConfig config;
  config.io_threads = io_threads;
  const std::vector<pid_t> before = list_threads();
  for (std::size_t i = 0; i < count; ++i)
    servers_.push_back(std::make_unique<PredictionServer>(model, config));
  threads_ = new_threads(before, list_threads());
  pinned_ = !cpus.empty();
  for (const pid_t tid : threads_) pinned_ = pin_thread(tid, cpus) && pinned_;
}

std::vector<std::uint16_t> ServerGroup::ports() const {
  std::vector<std::uint16_t> out;
  for (const auto& s : servers_) out.push_back(s->port());
  return out;
}

std::vector<PredictionServer*> ServerGroup::servers() const {
  std::vector<PredictionServer*> out;
  for (const auto& s : servers_) out.push_back(s.get());
  return out;
}

std::uint64_t ServerGroup::cpu_ns() const {
  std::uint64_t total = 0;
  for (const pid_t tid : threads_) total += thread_cpu_ns(tid);
  return total;
}

std::size_t ServerGroup::workers() const {
  std::size_t total = 0;
  for (const auto& s : servers_) total += s->config().io_threads;
  return total;
}

std::uint64_t ServerGroup::replies() const {
  std::uint64_t total = 0;
  for (const auto& s : servers_) total += s->replies_sent();
  return total;
}

}  // namespace servebench
