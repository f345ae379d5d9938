// The three workloads and what each hands back: phase counts, latency
// samples, the server-side registry snapshots around the timed window, and a
// capture of its inputs for the per-layer replays.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "world.h"

namespace servebench {

/// Inputs a workload hands the per-layer replays (layers.h): the payloads it
/// sent and received, its session-table operations in send order, and the
/// sessions it drove.
struct Capture {
  enum class Verb : std::uint8_t { kHello, kObserve, kPredict, kBye };
  struct TableOp {
    Verb verb = Verb::kHello;
    std::uint32_t session = 0;  ///< index into `sessions`
  };

  std::size_t payload_limit = 0;  ///< request/reply payloads kept (0: off)
  std::size_t op_limit = 0;       ///< table ops kept (0: off)
  std::vector<std::string> requests;
  std::vector<std::string> replies;
  std::vector<TableOp> ops;
  /// Every session the workload opened, by the index TableOp refers to.
  std::vector<const cs2p::Session*> sessions;

  bool wants_payload() const noexcept {
    return requests.size() < payload_limit || replies.size() < payload_limit;
  }
  void request(std::string_view payload) {
    if (requests.size() < payload_limit) requests.emplace_back(payload);
  }
  void reply(std::string_view payload) {
    if (replies.size() < payload_limit) replies.emplace_back(payload);
  }
  void op(Verb verb, std::uint32_t session) {
    if (ops.size() < op_limit) ops.push_back(TableOp{verb, session});
  }
};

/// Server registries (summed over the group), CPU clocks and the engine's
/// training counter at one instant.
struct Snapshot {
  std::map<std::string, double> series;
  double utilization = 0.0;  ///< mean worker utilization gauge
  std::uint64_t server_cpu_ns = 0;
  std::uint64_t process_cpu_ns = 0;
  std::size_t clusters_trained = 0;

  double get(const std::string& key) const {
    const auto it = series.find(key);
    return it == series.end() ? 0.0 : it->second;
  }
};

Snapshot take_snapshot(const ServerGroup& group, const World& world);

/// Throughput of a server group sampled in slices of a closed-loop window.
/// Both figures are the upper quartile over slices, so slices in which a
/// shared host withheld the CPUs do not set them.
class SliceMeter {
 public:
  explicit SliceMeter(const ServerGroup& group) : group_(group) { sample(); }
  /// Closes the current slice.
  void sample();
  /// Replies per second of server-thread CPU time, times the group's worker
  /// count: the throughput the workers sustain when they have their CPUs to
  /// themselves.
  double cpu_capacity() const;
  /// Server-thread CPU time per reply, the lower quartile over slices.
  double cpu_us_per_reply() const;
  /// Replies per wall-clock second.
  double wall_rate() const;

 private:
  struct Point {
    std::int64_t at_ns = 0;
    std::uint64_t replies = 0;
    std::uint64_t cpu_ns = 0;
  };
  const ServerGroup& group_;
  std::vector<Point> points_;
};

/// Length of one SliceMeter slice.
inline constexpr std::int64_t kSliceNs = 100'000'000;

/// What one pass of a workload measured.
struct WorkloadRun {
  std::vector<Phase> phases;
  Samples observe_us;   ///< OBSERVE latency (open loop: from the due time)
  Samples hello_us;
  Samples predict_us;
  Samples decision_us;  ///< mpc-pilot: OBSERVE + the next select_bitrate
  Samples late_us;      ///< open loop: send time minus due time
  Samples pred_err;     ///< |forecast - next sample| / next sample
  double goodput_rps = 0.0;
  double capacity_rps = 0.0;       ///< SliceMeter::cpu_capacity() of the closed loop
  double capacity_wall_rps = 0.0;  ///< SliceMeter::wall_rate() of the closed loop
  /// SliceMeter::cpu_us_per_reply() of the fixed-load phase (pilot: of its
  /// closed loop).
  double cpu_us_per_reply = 0.0;
  double chunks_per_s = 0.0;
  double qoe_mean = 0.0;
  std::size_t qoe_sessions = 0;
  std::uint64_t failovers = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t mismatches = 0;
  std::vector<std::string> mismatch_notes;
  /// Registry snapshots around the timed window; `before`..`after`.
  Snapshot before;
  Snapshot after;
  double utilization = 0.0;  ///< sampled at the end of the fixed-load phase
  /// Peak RSS once the workload's live sessions are open: the end of the
  /// fixed-load phase, or the start of the pilot (two live sessions). Later
  /// the benchmark's own records grow with however fast the host let it run.
  double rss_mb = 0.0;
  Tracer tracer;             ///< merged spans of the pass (traced runs)

  void mismatch(const std::string& what) {
    ++mismatches;
    if (mismatch_notes.size() < 5) mismatch_notes.push_back(what);
  }
};

struct RunOptions {
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::vector<int> generator_cpus;  ///< one CPU per load thread
};

/// stream-steady: ~16k live sessions replaying test-day traces over 4
/// connections; an open-loop Poisson phase at a fixed rate, then a
/// closed-loop saturation phase with 32 requests in flight per connection.
WorkloadRun run_stream(const World& world, const ServerGroup& group,
                       const RunOptions& options, Capture& capture);

/// session-churn: open-loop session arrivals, each HELLO, 4-8 OBSERVEs, one
/// PREDICT at horizon 5, BYE; then a closed-loop phase of 32 concurrent
/// sessions per connection.
WorkloadRun run_churn(const World& world, const ServerGroup& group,
                      const RunOptions& options, Capture& capture);

/// mpc-pilot: closed-loop players (simulate_playback + MpcController +
/// RemoteSessionPredictor) sharing one ReplicaSet over the group's servers.
/// `sessions` are split round-robin over `options.generator_cpus.size()`
/// player threads (at least one); each thread cycles through its list until
/// `options.seconds` pass, or plays it once when `one_pass` is set.
WorkloadRun run_pilot(const World& world, const ServerGroup& group,
                      const std::vector<const cs2p::Session*>& sessions,
                      const RunOptions& options, bool one_pass, Capture& capture);

/// mpc-pilot's saturation phase: the pilot's request mix (HELLO; per chunk
/// one OBSERVE and PREDICTs at horizons 2-5; BYE) over raw connections to
/// every server of the group, 32 requests in flight per connection, each
/// session pinned to one connection. Sets run.capacity_rps and
/// run.capacity_wall_rps, appends its phase, and adds what its oracle finds.
void saturate_pilot_mix(const World& world, const ServerGroup& group,
                        const std::vector<const cs2p::Session*>& sessions,
                        const RunOptions& options, WorkloadRun& run);

/// The fixed pilot session list: test-day sessions long enough for the
/// whole video, above the lowest rung, served by their own cluster.
std::vector<const cs2p::Session*> pilot_sessions(const World& world, std::uint64_t seed,
                                                 std::size_t count);

}  // namespace servebench
