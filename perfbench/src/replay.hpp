#pragma once

#include "exp/scenario.hpp"
#include "exp/simulation.hpp"
#include "spans.hpp"

/// \file replay.hpp
/// Traced replay of exp::run_simulation. It calls each layer's public
/// functions in run_simulation's order, with a span around each call, and
/// collects work counts from call results, layer getters and an attached
/// MetricsRegistry. It reproduces run_simulation's results bit for bit on
/// the option set the workloads use (checked by the fidelity comparison in
/// main.cpp); any other option set is rejected.

namespace perfbench {

/// Work counts summed over the replayed ticks.
struct LayerCounts {
  double ticks = 0, rebuild_ticks = 0;
  double entries_moved = 0, transfer_hops = 0, priced_pairs = 0, unreachable = 0;
  double retx = 0, lossy_packets = 0, failed_transfers = 0;
  double moved_nodes = 0, bridges = 0, changed_ticks = 0, full_rescan_ticks = 0;
  double link_events = 0;
  double dirty_vertices = 0, reseeds = 0;
  double migrations = 0, reorg_events = 0;
  double table_builds = 0;
  double session_packets = 0, session_lost = 0, session_misrouted = 0;
  double handover_started = 0, handover_timeouts = 0, handover_retries = 0;
  double query_lookups = 0, query_hits = 0;
  double connect_attempts = 0;

  void add(const LayerCounts& o);
};

struct ReplayResult {
  /// The outputs the fidelity check compares with run_simulation's:
  /// phi_rate, gamma_rate, ticks, plus query_* and session_* when enabled,
  /// named as in RunMetrics.
  manet::exp::RunMetrics outputs;
  LayerCounts counts;
  double wall_s = 0.0;  ///< whole replay, set-up included
};

/// Replays one run_simulation(config, options) call into \p rec. Throws
/// std::invalid_argument for options the replay does not reproduce.
ReplayResult replay_simulation(const manet::exp::ScenarioConfig& config,
                               const manet::exp::RunOptions& options, SpanRecorder& rec);

}  // namespace perfbench
