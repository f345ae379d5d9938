// Per-layer metrics of the traced run, measured from outside the program:
// registry diffs of the servers across the timed window, and replays of the
// workload's captured inputs through each module's public functions
// (net/wire, net/session_table, core/engine).
#pragma once

#include "common.h"
#include "workload.h"

namespace servebench {

/// net.server.*, process.* and core.engine.lazy_trains from the registry
/// snapshots and CPU clocks around the run's timed window.
void report_server_layer(const WorkloadRun& run, Report& report);

/// Mean OBSERVE+PREDICT items per batched round in the run's timed window
/// (at least 1): the width the engine and table replays use.
double batch_width(const WorkloadRun& run);

/// net.wire.*: captured payloads through parse_request, serialize_response,
/// encode_frame and parse_response.
void report_wire_layer(const Capture& capture, Report& report);

/// net.session_table.*: the captured HELLO/OBSERVE/PREDICT/BYE sequence
/// through emplace, with_sessions (groups of `width` ids) and erase on a
/// standalone table.
void report_table_layer(const Capture& capture, double width, Report& report);

/// core.engine.*: session_model and make_session over the captured HELLO
/// tuples; observe_batch and predict_batch at `width` over the captured
/// sessions' traces. batch_kernel_share compares the kernel time per reply
/// with the server's request time in `run`.
void report_engine_layer(const World& world, const Capture& capture, double width,
                         const WorkloadRun& run, Report& report);

/// net.replica_set.*, net.client.reconnects and abr.mpc.compute_us from a
/// pilot pass (the live mpc-pilot run, or a one-pass replay of test-day
/// sessions for the workloads that do not use the client path).
void report_client_layer(const WorkloadRun& pilot, Report& report);

}  // namespace servebench
