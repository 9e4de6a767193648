#include "workloads.hpp"

#include <stdexcept>

#include "common/rng.hpp"

namespace perfbench {

namespace {

using manet::exp::MobilityKind;
using manet::exp::RadiusPolicy;
using manet::exp::ScenarioConfig;

/// The paper scenario of the repository's benches (bench::paper_scenario()),
/// pinned here so that edits to the experiment benches never change what
/// this benchmark measures: RWP, density 1, mean degree 12, warm-up 15 s.
ScenarioConfig paper_scenario() {
  ScenarioConfig cfg;
  cfg.density = 1.0;
  cfg.mu = 1.0;
  cfg.radius_policy = RadiusPolicy::kMeanDegree;
  cfg.target_degree = 12.0;
  cfg.warmup = 15.0;
  return cfg;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"rwp_25k", "campaign_4k", "faulted_sessions",
                                                 "static_query"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  ScenarioConfig cfg = paper_scenario();
  manet::Size scenarios = 4;
  if (name == "rwp_25k") {
    // ROADMAP headline regime: pricing, hierarchy diff and unit-disk
    // augmentation all carry real churn at n = 25 000 under RWP.
    cfg.n = 25000;
    cfg.duration = 3.0;
    w.options.threads = 4;
  } else if (name == "campaign_4k") {
    // How every experiment bench and `manet_sim --sweep` drive the
    // simulator: sequential runs fanned out over a replication pool.
    cfg.n = 4096;
    cfg.duration = 20.0;
    w.options.threads = 1;
    w.replications = 4;
    w.pool_threads = 4;
  } else if (name == "faulted_sessions") {
    // The E29 vehicular cell: ARQ-gated pricing plus the session and
    // handover-FSM planes reading the LM while handoff writes it.
    // Its run cost varies most between deployments, so it times more of
    // them, with shorter windows.
    cfg.n = 4096;
    cfg.mu = 0.2;
    cfg.duration = 4.0;
    scenarios = 8;
    cfg.sessions = true;
    cfg.fault.loss = 0.1;
    cfg.fault.crash_rate = 0.01;
    cfg.fault.mean_downtime = 5.0;
    w.options.threads = 4;
    w.options.measure_hops = false;
    w.options.track_states = false;
  } else if (name == "static_query") {
    // Every topology, hierarchy and pricing stage is gated off: the query
    // plane does all the tick work and set-up is a large share of the run.
    cfg.n = 25000;
    cfg.mobility = MobilityKind::kStatic;
    cfg.duration = 30.0;
    w.options.threads = 4;
    w.options.query_load = 1000000;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  const std::uint64_t base = manet::common::derive_seed(20020415, seed);
  for (manet::Size i = 0; i < scenarios; ++i) {
    cfg.seed = manet::common::derive_seed(base, i);
    w.scenarios.push_back(cfg);
  }
  return w;
}

manet::Size threads_used(const Workload& w) {
  return w.replications > 1 ? w.pool_threads * w.options.threads : w.options.threads;
}

}  // namespace perfbench
