// Set-up of one run: the synthetic world generated from the seed, the
// trained CS2P model with every lazy cache the workload will touch already
// filled, and the in-process PredictionServers with their threads placed.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "dataset/dataset.h"
#include "net/server.h"

namespace servebench {

struct World {
  cs2p::Dataset train;  ///< day 0
  cs2p::Dataset test;   ///< day 1: every workload replays these sessions
  /// Test-day traces under feature values no training session has: their
  /// HELLOs are served by the global model (the paper's uncovered sessions).
  std::vector<cs2p::Session> unseen;
  std::shared_ptr<const cs2p::Cs2pPredictorModel> model;
  std::size_t warm_up_clusters = 0;  ///< cluster models warm_up() trained
  /// Cluster models the make_session pass over the workload's HELLO tuples
  /// still had to train after warm_up() — the gap warm_up() leaves.
  std::size_t lazy_fill_clusters = 0;
};

/// Generates the world (`sessions` sessions over two days, always from the
/// same seed so every run sets up and serves the same model; the run's seed
/// drives its traffic), trains the model, runs warm_up(), then calls
/// make_session once per distinct HELLO tuple of the test day so no cluster
/// trains while a workload is timed.
World build_world(std::size_t sessions);

/// Cluster models trained so far by the world's engine.
std::size_t clusters_trained(const World& world);

/// `count` PredictionServers sharing one model, each with `io_threads`
/// workers. Their threads (accept + workers) are restricted to `cpus` when
/// the machine has them, so load generator and servers never share a core.
class ServerGroup {
 public:
  ServerGroup(std::shared_ptr<const cs2p::PredictorModel> model, std::size_t count,
              std::size_t io_threads, const std::vector<int>& cpus);

  std::vector<std::uint16_t> ports() const;
  std::vector<cs2p::PredictionServer*> servers() const;
  /// CPU time all server threads have used.
  std::uint64_t cpu_ns() const;
  std::uint64_t replies() const;
  /// I/O worker threads across the group.
  std::size_t workers() const;
  bool pinned() const noexcept { return pinned_; }

 private:
  std::vector<std::unique_ptr<cs2p::PredictionServer>> servers_;
  std::vector<pid_t> threads_;
  bool pinned_ = false;
};

}  // namespace servebench
