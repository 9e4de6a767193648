/// Bit-identity of the sharded parallel tick (RunOptions::threads,
/// RunOptions::shards) against the default run: threads=1, shards=0, whose
/// executor runs one shard inline on the calling thread.
///
/// The contract (sim/shard.hpp): the shard topology is chosen at run start
/// (resolve_shard_count; --shards, 0 = auto from the worker count), every
/// per-shard output is merged in shard index order, and boundary work is
/// owned by exactly one shard — so every run product (flattened RunMetrics,
/// trace stream, metrics registry) must be byte-identical at *any* shard
/// count x *any* thread count. The suite pins shards {1, 4, 16, 64} x
/// threads {1, 2, 8} for the faulted-sessions and query-serving regimes.
/// Like the golden fixtures, the config uses a dyadic tick (0.5) so float
/// accumulation is order-exact and byte-identity is a meaningful contract.
///
/// The only permitted difference: parallel runs additionally publish par.*
/// telemetry counters (sharded-work accounting) that the default run never
/// creates. Those are excluded when comparing default vs parallel and
/// compared in full between parallel runs: every par.* counter is a sum of
/// per-item work over shards, so the totals are invariant to BOTH the
/// thread count and the shard count.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/metrics.hpp"
#include "exp/montecarlo.hpp"
#include "exp/simulation.hpp"
#include "sim/trace.hpp"

using namespace manet;

namespace {

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

exp::ScenarioConfig base_config() {
  exp::ScenarioConfig cfg;
  cfg.n = 96;
  cfg.density = 1.0;
  cfg.mu = 1.0;
  cfg.radius_policy = exp::RadiusPolicy::kMeanDegree;
  cfg.target_degree = 12.0;
  cfg.tick = 0.5;  // dyadic — see file comment
  cfg.warmup = 2.0;
  cfg.duration = 6.0;
  cfg.seed = 424242;
  return cfg;
}

/// Faults + long-lived sessions: covers the ARQ-attached regime where batch
/// pricing must stay inert (the per-transfer RNG stream is order-sensitive)
/// while unit-disk and link diffing still shard.
exp::ScenarioConfig faulted_sessions_config() {
  auto cfg = base_config();
  cfg.fault.loss = 0.05;
  cfg.fault.crash_rate = 0.02;
  cfg.fault.mean_downtime = 3.0;
  cfg.sessions = true;
  return cfg;
}

std::string serialize(const exp::RunMetrics& metrics) {
  std::string out;
  for (const auto& [name, value] : metrics.values) {
    out += name + '=' + fmt(value) + '\n';
  }
  return out;
}

std::string serialize(const sim::TraceSink& sink) {
  std::string out;
  for (const auto& e : sink.snapshot()) {
    out += fmt(e.t);
    out += ' ';
    out += sim::to_string(e.type);
    out += " k=" + std::to_string(e.level);
    out += " a=" + std::to_string(e.a);
    out += " b=" + std::to_string(e.b);
    out += " v=" + fmt(e.value);
    out += '\n';
  }
  out += "seen=" + std::to_string(sink.seen()) + '\n';
  return out;
}

/// alloc.* exists only under MANET_PROFILE_ALLOC; par.* exists only when an
/// executor is attached (skip_par excludes it for seq-vs-par comparisons).
std::string serialize(const common::MetricsRegistry& registry, bool skip_par) {
  std::string out;
  for (const auto& entry : registry.entries()) {
    if (entry.name.rfind("alloc.", 0) == 0) continue;
    if (skip_par && entry.name.rfind("par.", 0) == 0) continue;
    switch (entry.kind) {
      case common::MetricsRegistry::Entry::Kind::kCounter:
        out += "C " + entry.name + " " + std::to_string(entry.counter->value());
        break;
      case common::MetricsRegistry::Entry::Kind::kGauge:
        out += "G " + entry.name + " " + fmt(entry.gauge->value());
        break;
      case common::MetricsRegistry::Entry::Kind::kRateMeter:
        out += "R " + entry.name + " " + std::to_string(entry.rate_meter->total());
        break;
      case common::MetricsRegistry::Entry::Kind::kHistogram:
        out += "H " + entry.name + " " + std::to_string(entry.histogram->count()) +
               " " + fmt(entry.histogram->sum()) + " " + fmt(entry.histogram->max_seen());
        break;
    }
    out += '\n';
  }
  return out;
}

struct Products {
  std::string metrics;
  std::string trace;
  std::string registry;       ///< par.* excluded (comparable to sequential)
  std::string registry_full;  ///< par.* included (parallel-vs-parallel)
};

Products run_with_threads(const exp::ScenarioConfig& cfg, Size threads,
                          Size query_load = 0, Size shards = 0) {
  exp::RunOptions opts;
  opts.run_gls = true;
  opts.track_registration = true;
  opts.measure_routing = true;
  opts.threads = threads;
  opts.shards = shards;
  opts.query_load = query_load;
  common::MetricsRegistry registry;
  sim::TraceSink trace;
  opts.metrics = &registry;
  opts.trace = &trace;
  const auto metrics = exp::run_simulation(cfg, opts);
  return Products{serialize(metrics), serialize(trace),
                  serialize(registry, /*skip_par=*/true),
                  serialize(registry, /*skip_par=*/false)};
}

/// The full ISSUE-pinned topology sweep: shards {1, 4, 16, 64} x threads
/// {1, 2, 8}, every cell compared against the default run (threads=1,
/// shards=0: no pool, one inline shard, no par.* telemetry). par.* is
/// excluded against the default run; between parallel cells even par.* must
/// agree (workload sums).
void expect_shard_count_identity(const exp::ScenarioConfig& cfg,
                                 Size query_load = 0) {
  const auto seq = run_with_threads(cfg, 1, query_load, 0);
  std::string par_registry_full;  // from the first parallel cell
  for (const Size shards : {Size{1}, Size{4}, Size{16}, Size{64}}) {
    for (const Size threads : {Size{1}, Size{2}, Size{8}}) {
      const auto par = run_with_threads(cfg, threads, query_load, shards);
      const std::string cell = " at shards=" + std::to_string(shards) +
                               " threads=" + std::to_string(threads);
      EXPECT_EQ(seq.metrics, par.metrics) << "RunMetrics diverged" << cell;
      EXPECT_EQ(seq.trace, par.trace) << "trace stream diverged" << cell;
      EXPECT_EQ(seq.registry, par.registry) << "registry diverged" << cell;
      EXPECT_NE(par.registry_full, par.registry)
          << "no par.* telemetry" << cell << " — executor not attached?";
      if (par_registry_full.empty()) {
        par_registry_full = par.registry_full;
      } else {
        EXPECT_EQ(par_registry_full, par.registry_full)
            << "par.* telemetry depends on the topology" << cell;
      }
    }
  }
}

void expect_thread_identity(const exp::ScenarioConfig& cfg) {
  const auto seq = run_with_threads(cfg, 1);
  const auto par2 = run_with_threads(cfg, 2);
  const auto par8 = run_with_threads(cfg, 8);

  EXPECT_EQ(seq.metrics, par2.metrics) << "RunMetrics diverged at threads=2";
  EXPECT_EQ(seq.metrics, par8.metrics) << "RunMetrics diverged at threads=8";
  EXPECT_EQ(seq.trace, par2.trace) << "trace stream diverged at threads=2";
  EXPECT_EQ(seq.trace, par8.trace) << "trace stream diverged at threads=8";
  EXPECT_EQ(seq.registry, par2.registry) << "registry diverged at threads=2";
  EXPECT_EQ(seq.registry, par8.registry) << "registry diverged at threads=8";
  // Between two parallel runs even the par.* telemetry must agree: the
  // sharded workload accounting is a pure function of the (fixed) shard
  // decomposition, never of the worker count.
  EXPECT_EQ(par2.registry_full, par8.registry_full)
      << "par.* telemetry depends on the thread count";
  EXPECT_NE(par2.registry_full, par2.registry)
      << "parallel run published no par.* telemetry — executor not attached?";
}

TEST(ShardedTick, FaultFreeRunIsThreadCountInvariant) {
  expect_thread_identity(base_config());
}

TEST(ShardedTick, FaultedSessionsRunIsThreadCountInvariant) {
  expect_thread_identity(faulted_sessions_config());
}

TEST(ShardedTick, QueryServingRunIsThreadCountInvariant) {
  // The query plane (RunOptions::query_load, lm::QueryEngine) serves its
  // deterministic lookup stream over the same canonical shard slices in the
  // sequential and parallel paths, so query_lookups / query_hits /
  // query_digest must be byte-identical at every thread count.
  const auto cfg = base_config();
  const auto seq = run_with_threads(cfg, 1, /*query_load=*/512);
  const auto par2 = run_with_threads(cfg, 2, /*query_load=*/512);
  const auto par8 = run_with_threads(cfg, 8, /*query_load=*/512);
  EXPECT_NE(seq.metrics.find("query_digest"), std::string::npos)
      << "query plane was not enabled";
  EXPECT_EQ(seq.metrics, par2.metrics) << "query metrics diverged at threads=2";
  EXPECT_EQ(seq.metrics, par8.metrics) << "query metrics diverged at threads=8";
  EXPECT_EQ(seq.trace, par2.trace);
  EXPECT_EQ(seq.registry, par2.registry);
}

TEST(ShardedTick, FaultedSessionsRunIsShardCountInvariant) {
  // Tentpole acceptance sweep (runtime-tunable topology): the ARQ-attached
  // faulted + sessions regime across the full shards x threads grid.
  expect_shard_count_identity(faulted_sessions_config());
}

TEST(ShardedTick, QueryServingRunIsShardCountInvariant) {
  // The query plane slices its lookup stream over the RESOLVED shard count
  // and folds per-shard digests with a commutative sum, so query_lookups /
  // query_hits / query_digest are invariant to the partitioning too.
  expect_shard_count_identity(base_config(), /*query_load=*/512);
}

TEST(ShardedTick, ExplicitShardsOnOneWorkerMatchesSequential) {
  // threads=1 + shards>0 runs four shards inline on the calling thread (no
  // pool); it must still match the default one-inline-shard run
  // bit-for-bit.
  const auto cfg = base_config();
  const auto seq = run_with_threads(cfg, 1);
  const auto par = run_with_threads(cfg, 1, 0, /*shards=*/4);
  EXPECT_EQ(seq.metrics, par.metrics);
  EXPECT_EQ(seq.trace, par.trace);
  EXPECT_EQ(seq.registry, par.registry);
  EXPECT_NE(par.registry_full, par.registry)
      << "shards>0 on one worker should still attach the executor";
}

TEST(ShardedTick, HardwareConcurrencyMatchesSequential) {
  const auto cfg = base_config();
  const auto seq = run_with_threads(cfg, 1);
  const auto par = run_with_threads(cfg, 0);  // 0 = hardware concurrency
  EXPECT_EQ(seq.metrics, par.metrics);
  EXPECT_EQ(seq.trace, par.trace);
  EXPECT_EQ(seq.registry, par.registry);
}

}  // namespace
