#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "exp/simulation.hpp"

/// \file workloads.hpp
/// The benchmark's workloads. A workload is a set of scenarios generated from
/// the command-line seed (same seed, same scenarios), one RunOptions, and how
/// each workload call fans out (one run_simulation call, or run_replications
/// on a worker pool). The simulator only ever sees the generated configs and
/// options.
///
/// Why a set: the cost of a run depends on its deployment (hierarchy shape,
/// routing detours), by up to 2x between seeds on faulted_sessions. Timing
/// several deployments per benchmark run keeps one unlucky draw from moving
/// the run's median.

namespace perfbench {

struct Workload {
  std::string name;
  /// One config per deployment; duration = the measured window.
  std::vector<manet::exp::ScenarioConfig> scenarios;
  manet::exp::RunOptions options;     ///< tracing always off
  manet::Size replications = 1;       ///< > 1: run_replications on a pool
  manet::Size pool_threads = 1;       ///< replication pool size
};

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Worker threads one workload call keeps busy (stamped into every result).
manet::Size threads_used(const Workload& w);

}  // namespace perfbench
