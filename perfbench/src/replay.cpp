#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "cluster/diff.hpp"
#include "cluster/hierarchy_builder.hpp"
#include "cluster/repair.hpp"
#include "cluster/stability.hpp"
#include "cluster/state_chain.hpp"
#include "common/hash.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "exp/session_bridge.hpp"
#include "graph/bfs.hpp"
#include "lm/address.hpp"
#include "lm/database.hpp"
#include "lm/query_engine.hpp"
#include "lm/reliable.hpp"
#include "net/link_tracker.hpp"
#include "net/lossy_channel.hpp"
#include "net/unit_disk.hpp"
#include "routing/table.hpp"
#include "sim/fault.hpp"
#include "sim/shard.hpp"

namespace perfbench {

using namespace manet;

void LayerCounts::add(const LayerCounts& o) {
  ticks += o.ticks;
  rebuild_ticks += o.rebuild_ticks;
  entries_moved += o.entries_moved;
  transfer_hops += o.transfer_hops;
  priced_pairs += o.priced_pairs;
  unreachable += o.unreachable;
  retx += o.retx;
  lossy_packets += o.lossy_packets;
  failed_transfers += o.failed_transfers;
  moved_nodes += o.moved_nodes;
  bridges += o.bridges;
  changed_ticks += o.changed_ticks;
  full_rescan_ticks += o.full_rescan_ticks;
  link_events += o.link_events;
  dirty_vertices += o.dirty_vertices;
  reseeds += o.reseeds;
  migrations += o.migrations;
  reorg_events += o.reorg_events;
  table_builds += o.table_builds;
  session_packets += o.session_packets;
  session_lost += o.session_lost;
  session_misrouted += o.session_misrouted;
  handover_started += o.handover_started;
  handover_timeouts += o.handover_timeouts;
  handover_retries += o.handover_retries;
  query_lookups += o.query_lookups;
  query_hits += o.query_hits;
  connect_attempts += o.connect_attempts;
}

namespace {

/// The handoff engine's (owner, level) -> server table, read through its
/// public current_server(). Two consecutive censuses give the set of
/// distinct (old, new) server pairs a handoff update has to price.
struct ServerCensus {
  Level top = 0;
  std::vector<NodeId> servers;  ///< [owner * width + (k - 2)]

  Size width() const { return top >= lm::kFirstServedLevel ? top - 1 : 0; }

  void take(const lm::HandoffEngine& engine, Size n) {
    top = engine.top_level();
    const Size w = width();
    servers.resize(n * w);
    for (NodeId v = 0; v < n; ++v) {
      for (Size i = 0; i < w; ++i) {
        servers[v * w + i] =
            engine.current_server(v, static_cast<Level>(i) + lm::kFirstServedLevel);
      }
    }
  }
  NodeId at(NodeId v, Level k) const {
    return servers[v * width() + (k - lm::kFirstServedLevel)];
  }
};

/// Distinct unordered (from, to) pairs between two censuses, with the same
/// branch structure as the engine's batch pricing pre-scan: an owner that
/// gains a level transfers from itself, one that loses a level back to
/// itself.
Size distinct_pairs(const ServerCensus& before, const ServerCensus& after, Size n,
                    std::vector<std::uint64_t>& keys) {
  keys.clear();
  const Level max_top = std::max(before.top, after.top);
  for (NodeId v = 0; v < n; ++v) {
    for (Level k = lm::kFirstServedLevel; k <= max_top; ++k) {
      const bool had = k <= before.top;
      const bool has = k <= after.top;
      if (!had && !has) continue;
      const NodeId from = had ? before.at(v, k) : v;
      const NodeId to = has ? after.at(v, k) : v;
      if (from == to) continue;
      keys.push_back((static_cast<std::uint64_t>(std::min(from, to)) << 32) |
                     std::max(from, to));
    }
  }
  std::sort(keys.begin(), keys.end());
  return static_cast<Size>(std::unique(keys.begin(), keys.end()) - keys.begin());
}

/// run_simulation's sampled h_k measurement (mean level-0 hops between two
/// members of one level-k cluster), reproduced draw for draw.
double measure_hk(const cluster::Hierarchy& h, const graph::Graph& g, Level k, Size pairs,
                  common::Xoshiro256& rng, graph::BfsScratch& bfs) {
  double sum = 0.0;
  Size measured = 0;
  const Size n_clusters = h.cluster_count(k);
  for (Size attempt = 0; attempt < pairs * 4 && measured < pairs; ++attempt) {
    const auto c = static_cast<NodeId>(common::uniform_index(rng, n_clusters));
    const auto& members = h.members0(k, c);
    if (members.size() < 2) continue;
    const NodeId u = members[common::uniform_index(rng, members.size())];
    const NodeId v = members[common::uniform_index(rng, members.size())];
    if (u == v) continue;
    bfs.run(g, u);
    const auto hops = bfs.hops_to(v);
    if (hops == graph::kUnreachable) continue;
    sum += hops;
    ++measured;
  }
  return measured > 0 ? sum / static_cast<double>(measured) : 0.0;
}

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("replay does not reproduce ") + what);
}

}  // namespace

ReplayResult replay_simulation(const exp::ScenarioConfig& config,
                               const exp::RunOptions& options, SpanRecorder& rec) {
  require(options.incremental_tick && options.localized_repair, "the full-rebuild tick");
  require(config.cluster_algo == exp::ClusterAlgo::kAlca, "non-ALCA election");
  require(!options.run_gls && !options.track_registration, "GLS or registration tracking");
  require(options.metrics == nullptr && options.trace == nullptr, "caller-attached hooks");

  ReplayResult result;
  LayerCounts& c = result.counts;
  common::MetricsRegistry registry;
  const double replay_start = rec.now();
  const int setup_span = rec.open("exp.setup", -1);

  // --- Set-up, as in run_simulation: connected draw with retries, the
  // initial hierarchy, layer construction, warm-up. ---
  exp::ScenarioConfig cfg = config;
  std::unique_ptr<exp::Scenario> scenario;
  auto materialize = [&] {
    const Scope s(rec, "exp.setup.materialize", -1);
    scenario = std::make_unique<exp::Scenario>(exp::Scenario::materialize(cfg));
    c.connect_attempts += 1;
  };
  net::UnitDiskBuilder disk(cfg.tx_radius(), /*ensure_connected=*/true);
  graph::Graph g0;
  auto build_disk = [&] {
    const Scope s(rec, "net.unit_disk.build", -1);
    g0 = disk.build(scenario->mobility->positions());
  };
  materialize();
  build_disk();
  bool raw_connected = disk.last_augmented_edges() == 0;
  for (int attempt = 1; attempt < cfg.connect_attempts && !raw_connected; ++attempt) {
    cfg.seed = common::derive_seed(config.seed,
                                   0xFACE0000ULL + static_cast<unsigned long long>(attempt));
    materialize();
    build_disk();
    raw_connected = disk.last_augmented_edges() == 0;
  }

  cluster::HierarchyOptions hopts;
  hopts.geometric_links = cfg.geometric_links;
  hopts.beta = cfg.link_beta;
  hopts.tx_radius = cfg.tx_radius();
  hopts.max_levels = cfg.max_levels;
  cluster::HierarchyBuilder builder(std::make_shared<cluster::Alca>(), hopts);
  cluster::Hierarchy hier;
  {
    const Scope s(rec, "cluster.builder.build", -1);
    hier = builder.build(g0, scenario->ids, scenario->mobility->positions());
  }
  cluster::HierarchyRepairer repairer(hopts);

  lm::HandoffEngine handoff(cfg.handoff);
  handoff.set_metrics(&registry);

  std::unique_ptr<common::ThreadPool> tick_pool;
  std::unique_ptr<sim::ShardExecutor> tick_shards;
  if (options.threads != 1 || options.shards != 0) {
    tick_pool = std::make_unique<common::ThreadPool>(options.threads);
    tick_shards = std::make_unique<sim::ShardExecutor>(
        *tick_pool, sim::resolve_shard_count(options.shards, tick_pool->thread_count()));
    disk.set_parallel(tick_shards.get());
    handoff.set_parallel(tick_shards.get());
  }
  const int par_threads = tick_pool ? static_cast<int>(tick_pool->thread_count()) : 1;
  cluster::StateChainTracker states;
  cluster::HeadLifetimeTracker tenures;

  const bool faulted = cfg.fault.enabled();
  const Time horizon = cfg.warmup + cfg.duration;
  std::unique_ptr<sim::FaultInjector> injector;
  std::unique_ptr<net::LossyChannel> channel;
  std::unique_ptr<lm::ReliableTransfer> arq;
  std::unique_ptr<common::Xoshiro256> probe_rng;
  std::vector<std::uint8_t> down, prev_down;
  if (faulted) {
    injector = std::make_unique<sim::FaultInjector>(cfg.fault, cfg.n, cfg.warmup, horizon,
                                                    common::derive_seed(cfg.seed, 0xFA017));
    channel =
        std::make_unique<net::LossyChannel>(cfg.fault, common::derive_seed(cfg.seed, 0xC4A2));
    arq = std::make_unique<lm::ReliableTransfer>(*channel, cfg.fault.retry_budget,
                                                 cfg.fault.arq_timeout, cfg.fault.arq_backoff);
    probe_rng = std::make_unique<common::Xoshiro256>(common::derive_seed(cfg.seed, 0x9B0B));
    down.assign(cfg.n, 0);
    prev_down.assign(cfg.n, 0);
    handoff.set_resilience(arq.get(), &down);
  }
  std::unique_ptr<lm::HandoverManager> handover;
  std::unique_ptr<traffic::SessionWorkload> sessions;
  std::unique_ptr<exp::LmSessionLocator> locator;
  std::unique_ptr<routing::RoutingTables> session_tables;
  if (cfg.sessions) {
    lm::HandoverFsmConfig hocfg = cfg.handover;
    if (hocfg.signal_loss < 0.0) hocfg.signal_loss = faulted ? cfg.fault.loss : 0.0;
    handover =
        std::make_unique<lm::HandoverManager>(hocfg, common::derive_seed(cfg.seed, 0x480F5));
    handover->set_down(faulted ? &down : nullptr);
    handover->set_metrics(&registry);
    handoff.set_handover_observer(handover.get());
    sessions = std::make_unique<traffic::SessionWorkload>(cfg.session,
                                                          common::derive_seed(cfg.seed, 0x5E55));
    sessions->set_metrics(&registry);
    locator = std::make_unique<exp::LmSessionLocator>(handoff, handover.get(),
                                                      faulted ? &down : nullptr);
  }
  std::unique_ptr<lm::QueryEngine> query_engine;
  std::vector<Size> query_shard_hits;
  std::vector<std::uint64_t> query_shard_digests;
  Size query_lookups = 0, query_hits = 0;
  std::uint64_t query_digest = 0x9E3779B97F4A7C15ULL;
  const Size query_shards = tick_shards != nullptr ? tick_shards->shard_count() : 1;
  if (options.query_load > 0) {
    query_engine = std::make_unique<lm::QueryEngine>(cfg.handoff.select);
    query_shard_hits.assign(query_shards, 0);
    query_shard_digests.assign(query_shards, 0);
  }

  auto refresh_down = [&](Time t) {
    const auto& pos = scenario->mobility->positions();
    for (NodeId v = 0; v < cfg.n; ++v) {
      down[v] =
          (injector->crashed(v, t) || injector->in_outage(pos[v].x, pos[v].y, t)) ? 1 : 0;
    }
  };
  graph::Graph eff;
  std::vector<graph::Edge> strip_scratch;
  bool eff_valid = false;
  auto strip_down = [&](const graph::Graph& gin, bool dirty) -> const graph::Graph* {
    bool any = false;
    for (const auto f : down) any = any || f != 0;
    if (!any) return &gin;
    if (dirty || !eff_valid) {
      strip_scratch.clear();
      for (const auto& e : gin.edges()) {
        if (down[e.first] == 0 && down[e.second] == 0) strip_scratch.push_back(e);
      }
      eff.assign(gin.vertex_count(), strip_scratch);
      eff_valid = true;
    }
    return &eff;
  };

  const auto warmup_ticks = static_cast<Size>(std::floor(cfg.warmup / cfg.tick + 1e-9));
  {
    const Scope s(rec, "mobility.warmup", -1);
    for (Size i = 1; i <= warmup_ticks; ++i) {
      scenario->mobility->advance_to(static_cast<Time>(i) * cfg.tick);
    }
  }
  const graph::Graph* g = nullptr;
  {
    const Scope s(rec, "net.unit_disk.build", -1);
    g = &disk.update(scenario->mobility->positions());
  }
  const Time t0 = cfg.warmup;
  if (faulted) {
    const Scope s(rec, "sim.fault.refresh", -1);
    refresh_down(t0);
    g = strip_down(*g, /*dirty=*/true);
  }
  {
    const Scope s(rec, "cluster.builder.build", -1);
    hier = builder.build(*g, scenario->ids, scenario->mobility->positions());
  }
  {
    const Scope s(rec, "lm.handoff.prime", -1);
    handoff.prime(hier, t0);
  }
  handoff.set_fast_pricing(true);
  bool prev_bridged = disk.last_augmented_edges() > 0;
  if (faulted) {
    const Scope s(rec, "lm.handoff.fault", -1);
    prev_down = down;
    for (NodeId v = 0; v < cfg.n; ++v) {
      if (down[v] != 0) handoff.on_node_down(v, t0);
    }
  }
  net::LinkTracker links(*g, t0);
  links.set_metrics(&registry);
  if (tick_shards) links.set_parallel(tick_shards.get());
  if (options.track_states) {
    const Scope s(rec, "cluster.states.observe", -1);
    states.observe(hier, cfg.tick);
    tenures.observe(hier, t0);
  }
  const Size audit_every =
      faulted ? std::max<Size>(1, static_cast<Size>(std::lround(cfg.fault.audit_period /
                                                                cfg.tick)))
              : 0;
  rec.close(setup_span);

  // --- Measured window: run_simulation's tick, one span per layer call. ---
  cluster::Hierarchy next;
  cluster::HierarchyDelta delta;
  net::LinkDelta link_delta;
  ServerCensus census_before, census_after;
  std::vector<std::uint64_t> pair_keys;
  census_before.take(handoff, cfg.n);
  const auto total_ticks = static_cast<Size>(std::floor(cfg.duration / cfg.tick + 1e-9));
  for (Size ticks = 0; ticks < total_ticks; ++ticks) {
    const int tick = static_cast<int>(ticks);
    const Time now = t0 + static_cast<Time>(ticks + 1) * cfg.tick;
    const int tick_span = rec.open("exp.tick", tick);
    {
      const Scope s(rec, "mobility.advance", tick);
      scenario->mobility->advance_to(now);
    }
    {
      const Scope s(rec, "net.unit_disk.update", tick, par_threads);
      g = &disk.update(scenario->mobility->positions());
    }
    const bool topo_changed = disk.changed();
    const bool pos_moved = disk.last_moved_nodes() > 0;
    const bool bridged = disk.last_augmented_edges() > 0;
    c.moved_nodes += static_cast<double>(disk.last_moved_nodes());
    c.bridges += static_cast<double>(disk.last_augmented_edges());
    c.changed_ticks += topo_changed ? 1 : 0;
    c.full_rescan_ticks += disk.last_full_rescan() ? 1 : 0;

    bool mask_changed = false;
    if (faulted) {
      const Scope s(rec, "sim.fault.refresh", tick);
      std::swap(prev_down, down);
      refresh_down(now);
      mask_changed = down != prev_down;
      g = strip_down(*g, topo_changed || mask_changed);
    }

    const bool rebuild = topo_changed || mask_changed || (pos_moved && cfg.geometric_links);
    if (rebuild) {
      const Scope s(rec, "cluster.repair", tick);
      bool any_down = false;
      if (faulted) {
        for (const auto f : down) any_down = any_down || f != 0;
      }
      const bool delta_exact = !mask_changed && !bridged && !prev_bridged && !any_down;
      repairer.repair(*g, disk.links_up(), disk.links_down(), scenario->ids,
                      scenario->mobility->positions(), hier, next, delta_exact);
      for (const auto& level : repairer.stats().levels) {
        c.dirty_vertices += static_cast<double>(level.dirty_vertices);
      }
    }
    prev_bridged = bridged;
    const cluster::Hierarchy& hnow = rebuild ? next : hier;
    c.rebuild_ticks += rebuild ? 1 : 0;

    {
      const Scope s(rec, "net.link_tracker.update", tick, par_threads);
      if (rebuild) {
        links.update_into(*g, now, link_delta);
      } else {
        links.advance_unchanged(now);
      }
    }
    {
      const Scope s(rec, "lm.handoff.update", tick, par_threads);
      const auto r = rebuild ? handoff.update(hnow, *g, now) : handoff.advance_unchanged(now);
      c.entries_moved += static_cast<double>(r.entries_moved);
      c.transfer_hops += static_cast<double>(r.phi_packets + r.gamma_packets);
    }
    if (faulted) {
      const Scope s(rec, "lm.handoff.fault", tick);
      for (NodeId v = 0; v < cfg.n; ++v) {
        if (down[v] != 0 && prev_down[v] == 0) {
          handoff.on_node_down(v, now);
        } else if (down[v] == 0 && prev_down[v] != 0) {
          handoff.on_node_up(*g, v, now);
        }
      }
      if ((ticks + 1) % audit_every == 0) {
        handoff.audit_repair(*g, now);
        handoff.query_probe(*probe_rng, cfg.fault.probe_pairs);
      }
    }

    if (options.track_events && rebuild) {
      {
        const Scope s(rec, "cluster.diff", tick);
        cluster::diff_hierarchies(hier, next, delta);
      }
      c.migrations += static_cast<double>(delta.migrations.size());
      c.reorg_events += static_cast<double>(delta.events.size());
    }
    if (rebuild) hier = std::move(next);

    if (cfg.sessions) {
      {
        const Scope s(rec, "lm.handover.tick", tick);
        handover->tick(now);
      }
      if (rebuild || session_tables == nullptr) {
        const Scope s(rec, "routing.tables.build", tick);
        session_tables = std::make_unique<routing::RoutingTables>(*g, hier);
        c.table_builds += 1;
      }
      traffic::SessionWorkload::TickContext sctx;
      sctx.tables = session_tables.get();
      sctx.locator = locator.get();
      sctx.down = faulted ? &down : nullptr;
      sctx.node_count = cfg.n;
      sctx.now = now;
      sctx.dt = cfg.tick;
      const Scope s(rec, "traffic.sessions.tick", tick);
      sessions->tick_sessions(sctx);
    }
    if (query_engine) {
      {
        const Scope s(rec, "lm.query.publish", tick);
        query_engine->publish(hier, handoff.database(), now);
      }
      const std::uint64_t tick_base =
          static_cast<std::uint64_t>(ticks) * static_cast<std::uint64_t>(options.query_load);
      auto serve_shard = [&](Size shard) {
        const auto [begin, end] =
            sim::ShardExecutor::slice(options.query_load, shard, query_shards);
        Size hits = 0;
        std::uint64_t digest = 0;
        for (Size q = begin; q < end; ++q) {
          const std::uint64_t gq = tick_base + q;
          const auto owner = static_cast<NodeId>((gq * 2654435761ULL) % cfg.n);
          const Level k = lm::kFirstServedLevel + static_cast<Level>(gq % 3);
          const lm::QueryResult r = query_engine->lookup(owner, k);
          hits += r.found ? 1 : 0;
          const std::uint64_t answer = (static_cast<std::uint64_t>(r.server) << 32) ^
                                       r.version ^ (r.found ? 1ULL : 0ULL);
          digest += common::mix64(gq ^ common::mix64(answer));
        }
        query_shard_hits[shard] = hits;
        query_shard_digests[shard] = digest;
      };
      {
        const Scope s(rec, "lm.query.lookup", tick, par_threads);
        if (tick_shards) {
          tick_shards->for_each_shard(serve_shard);
        } else {
          serve_shard(0);
        }
      }
      Size tick_hits = 0;
      for (Size shard = 0; shard < query_shards; ++shard) {
        tick_hits += query_shard_hits[shard];
        query_digest += query_shard_digests[shard];
      }
      query_hits += tick_hits;
      query_lookups += options.query_load;
    }
    if (options.track_states) {
      const Scope s(rec, "cluster.states.observe", tick);
      states.observe(hier, cfg.tick);
      tenures.observe(hier, now);
    }
    rec.close(tick_span);

    // Outside the tick span: the priced-pair census is the benchmark's own
    // work and must not count against the tick.
    if (rebuild) {
      census_after.take(handoff, cfg.n);
      c.priced_pairs +=
          static_cast<double>(distinct_pairs(census_before, census_after, cfg.n, pair_keys));
      std::swap(census_before, census_after);
    }
    c.ticks += 1;
  }

  // --- Flatten: the end-of-run work run_simulation does before returning
  // (the part of it that costs time; its outputs join the fidelity check). ---
  auto& out = result.outputs;
  {
    const Scope flatten(rec, "exp.flatten", -1);
    if (options.track_states) {
      const auto p = states.p_profile();
      for (Level k = 0; k < p.size(); ++k) out.set("p_state1." + std::to_string(k), p[k]);
    }
    if (options.measure_hops) {
      const Scope s(rec, "exp.flatten.measure_hops", -1);
      common::Xoshiro256 hop_rng(common::derive_seed(cfg.seed, 0xB0F5));
      graph::BfsScratch bfs;
      for (Level k = 1; k <= hier.top_level(); ++k) {
        out.set("h_k." + std::to_string(k),
                measure_hk(hier, *g, k, options.hop_sample_pairs, hop_rng, bfs));
      }
    }
    const auto loads = handoff.database().load_vector();
    out.set("load_gini", lm::load_stats(loads).gini);
    double map_sum = 0.0;
    for (NodeId v = 0; v < cfg.n; ++v) {
      map_sum += static_cast<double>(lm::hierarchical_map_size(hier, v));
    }
    out.set("map_size", map_sum / static_cast<double>(cfg.n));
    if (faulted) {
      handoff.audit_repair(*g, horizon);
      out.set("query_success_rate", handoff.query_probe(*probe_rng, cfg.fault.probe_pairs));
    }
    if (cfg.sessions) sessions->finish(horizon);
  }
  result.wall_s = rec.now() - replay_start;

  out.set("ticks", c.ticks);
  out.set("phi_rate", handoff.phi_rate());
  out.set("gamma_rate", handoff.gamma_rate());
  c.unreachable = static_cast<double>(handoff.unreachable_transfers());
  if (faulted) {
    const auto& resil = handoff.resilience();
    c.retx = static_cast<double>(resil.phi_retx + resil.gamma_retx);
    c.lossy_packets = static_cast<double>(channel->packets_sent());
    c.failed_transfers = static_cast<double>(resil.failed_transfers);
  }
  c.link_events = static_cast<double>(links.total_events());
  c.reseeds = static_cast<double>(repairer.stats().reseeds);
  if (cfg.sessions) {
    const auto& ss = sessions->stats();
    out.set("session_delivered", static_cast<double>(ss.packets_delivered));
    out.set("session_lost", static_cast<double>(ss.packets_lost));
    c.session_packets = static_cast<double>(ss.packets_offered);
    c.session_lost = static_cast<double>(ss.packets_lost);
    c.session_misrouted = static_cast<double>(ss.packets_misrouted);
    c.handover_started = static_cast<double>(registry.counter("lm.handover.started").value());
    c.handover_timeouts = static_cast<double>(registry.counter("lm.handover.timeouts").value());
    c.handover_retries = static_cast<double>(registry.counter("lm.handover.retries").value());
  }
  if (query_engine) {
    out.set("query_digest", static_cast<double>(query_digest & 0xFFFFFFFFULL));
    c.query_lookups = static_cast<double>(query_lookups);
    c.query_hits = static_cast<double>(query_hits);
  }
  return result;
}

}  // namespace perfbench
