#include "traffic/sessions.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cluster/hierarchy_builder.hpp"
#include "common/rng.hpp"
#include "geom/region.hpp"
#include "net/unit_disk.hpp"

namespace manet::traffic {
namespace {

struct World {
  graph::Graph g{0};
  cluster::Hierarchy h;
  Size n = 0;
};

World make(Size n, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  const auto disk = geom::DiskRegion::with_density(n, 1.0);
  std::vector<geom::Vec2> pts(n);
  for (auto& p : pts) p = disk.sample(rng);
  net::UnitDiskBuilder builder(2.2, true);
  World w;
  w.g = builder.build(pts);
  w.h = cluster::HierarchyBuilder().build(w.g);
  w.n = n;
  return w;
}

TEST(Sessions, GeneratesExpectedVolume) {
  const auto w = make(200, 1);
  const routing::RoutingTables tables(w.g, w.h);
  SessionConfig cfg;
  cfg.sessions_per_node_per_sec = 0.5;
  cfg.packets_per_session = 5;
  SessionWorkload workload(cfg, 2);
  for (int t = 0; t < 40; ++t) workload.tick(tables, w.n, 1.0);
  const auto& stats = workload.stats();
  // Expected sessions: 0.5 * 200 * 40 = 4000; Poisson CI is tight here.
  EXPECT_NEAR(static_cast<double>(stats.sessions), 4000.0, 300.0);
  EXPECT_DOUBLE_EQ(stats.window, 40.0);
  EXPECT_EQ(stats.undeliverable, 0u);
  EXPECT_GT(stats.data_transmissions, 0u);
}

TEST(Sessions, RateScalesWithPacketTrainLength) {
  const auto w = make(150, 3);
  const routing::RoutingTables tables(w.g, w.h);
  SessionConfig small_cfg, big_cfg;
  small_cfg.packets_per_session = 2;
  big_cfg.packets_per_session = 20;
  SessionWorkload small_load(small_cfg, 4), big_load(big_cfg, 4);  // same seed: same pairs
  for (int t = 0; t < 20; ++t) {
    small_load.tick(tables, w.n, 1.0);
    big_load.tick(tables, w.n, 1.0);
  }
  EXPECT_EQ(big_load.stats().data_transmissions,
            10 * small_load.stats().data_transmissions);
}

TEST(Sessions, MeanTransmissionsMatchPathScale) {
  const auto w = make(300, 5);
  const routing::RoutingTables tables(w.g, w.h);
  SessionConfig cfg;
  cfg.packets_per_session = 10;
  SessionWorkload workload(cfg, 6);
  for (int t = 0; t < 20; ++t) workload.tick(tables, w.n, 1.0);
  const double per_session = workload.stats().mean_transmissions_per_session();
  // 10 packets x typical path of a 300-node disk (a few to ~20 hops).
  EXPECT_GT(per_session, 10.0);
  EXPECT_LT(per_session, 400.0);
}

TEST(Sessions, Deterministic) {
  const auto w = make(120, 7);
  const routing::RoutingTables tables(w.g, w.h);
  SessionWorkload a(SessionConfig{}, 8), b(SessionConfig{}, 8);
  for (int t = 0; t < 10; ++t) {
    a.tick(tables, w.n, 1.0);
    b.tick(tables, w.n, 1.0);
  }
  EXPECT_EQ(a.stats().sessions, b.stats().sessions);
  EXPECT_EQ(a.stats().data_transmissions, b.stats().data_transmissions);
}

TEST(Sessions, FewerThanTwoNodesSkipsTheTickInsteadOfAborting) {
  // Regression: crash faults can shrink the alive set below 2; this used to
  // trip MANET_CHECK and abort the whole run.
  const auto w = make(50, 9);
  const routing::RoutingTables tables(w.g, w.h);
  SessionWorkload workload(SessionConfig{}, 10);
  workload.tick(tables, 1, 1.0);
  workload.tick(tables, 0, 1.0);
  EXPECT_EQ(workload.stats().skipped_ticks, 2u);
  EXPECT_EQ(workload.stats().sessions, 0u);
  EXPECT_DOUBLE_EQ(workload.stats().window, 0.0);

  SessionWorkload long_lived(SessionConfig{}, 10);
  SessionWorkload::TickContext ctx;
  ctx.tables = &tables;
  ctx.node_count = 1;
  ctx.now = 1.0;
  long_lived.tick_sessions(ctx);
  EXPECT_EQ(long_lived.stats().skipped_ticks, 1u);

  // Back above the threshold the workload resumes normally.
  workload.tick(tables, w.n, 1.0);
  EXPECT_DOUBLE_EQ(workload.stats().window, 1.0);
}

/// Scripted resolution: every destination resolves the same way, so the
/// continuity accounting is exactly predictable.
struct FixedLocator : LocatorView {
  LocateOutcome outcome;
  LocateOutcome locate(NodeId /*dst*/) override { return outcome; }
};

TEST(Sessions, LongLivedSessionsPersistAndDeliver) {
  const auto w = make(150, 11);
  const routing::RoutingTables tables(w.g, w.h);
  SessionConfig cfg;
  cfg.sessions_per_node_per_sec = 0.1;
  cfg.mean_duration = 6.0;
  cfg.packets_per_sec = 2.0;
  SessionWorkload workload(cfg, 12);
  SessionWorkload::TickContext ctx;
  ctx.tables = &tables;
  ctx.node_count = w.n;
  ctx.dt = 1.0;
  for (int t = 1; t <= 30; ++t) {
    ctx.now = t;
    workload.tick_sessions(ctx);
  }
  workload.finish(31.0);
  const auto& stats = workload.stats();
  EXPECT_GT(stats.sessions, 0u);
  EXPECT_GT(stats.packets_offered, stats.sessions);  // sessions outlive a tick
  // Idealized resolution (no locator) + connected graph: everything delivers.
  EXPECT_EQ(stats.packets_delivered, stats.packets_offered);
  EXPECT_EQ(stats.packets_misrouted, 0u);
  EXPECT_EQ(stats.packets_lost, 0u);
  EXPECT_EQ(stats.interruptions, 0u);
  // No window ever closed -> the quantile is *absent* (quiet NaN, the
  // repo-wide sentinel), not a 0.0 that would pollute aggregates.
  EXPECT_TRUE(std::isnan(workload.interruption_quantile(0.99)));
}

TEST(Sessions, ResolutionMissOpensAnInterruptionWindowAndFreshCloses) {
  const auto w = make(100, 13);
  const routing::RoutingTables tables(w.g, w.h);
  SessionConfig cfg;
  cfg.sessions_per_node_per_sec = 0.2;
  cfg.mean_duration = 100.0;  // sessions span the whole test
  cfg.packets_per_sec = 1.0;
  SessionWorkload workload(cfg, 14);
  FixedLocator locator;
  SessionWorkload::TickContext ctx;
  ctx.tables = &tables;
  ctx.locator = &locator;
  ctx.node_count = w.n;
  ctx.dt = 1.0;

  locator.outcome = LocateOutcome{LocateResult::kFresh, 0, kInvalidNode};
  ctx.now = 1.0;
  workload.tick_sessions(ctx);
  ASSERT_GT(workload.live_sessions(), 0u);
  EXPECT_EQ(workload.stats().interruptions, 0u);

  // Every resolution misses for 3 ticks: a window opens for each live
  // session (sessions expiring mid-outage close theirs at their natural end).
  locator.outcome = LocateOutcome{LocateResult::kMiss, kInvalidNode, kInvalidNode};
  const Size live = workload.live_sessions();
  for (int t = 2; t <= 4; ++t) {
    ctx.now = t;
    workload.tick_sessions(ctx);
  }
  EXPECT_GT(workload.stats().packets_lost, 0u);

  // Resolution recovers: every still-open window closes. Sessions that
  // survived the whole outage report windows of >= 3 s.
  locator.outcome = LocateOutcome{LocateResult::kFresh, 0, kInvalidNode};
  ctx.now = 5.0;
  workload.tick_sessions(ctx);
  EXPECT_GE(workload.stats().interruptions, live);
  EXPECT_GE(workload.interruption_quantile(1.0), 3.0);
  EXPECT_GT(workload.stats().interruption_time, 0.0);
}

TEST(Sessions, StaleResolutionMisroutesThroughTheHolder) {
  const auto w = make(100, 15);
  const routing::RoutingTables tables(w.g, w.h);
  SessionConfig cfg;
  cfg.sessions_per_node_per_sec = 0.2;
  cfg.mean_duration = 50.0;
  cfg.packets_per_sec = 1.0;
  SessionWorkload workload(cfg, 16);
  FixedLocator locator;
  locator.outcome = LocateOutcome{LocateResult::kStaleHit, 7, 7};
  SessionWorkload::TickContext ctx;
  ctx.tables = &tables;
  ctx.locator = &locator;
  ctx.node_count = w.n;
  ctx.dt = 1.0;
  for (int t = 1; t <= 10; ++t) {
    ctx.now = t;
    workload.tick_sessions(ctx);
  }
  const auto& stats = workload.stats();
  ASSERT_GT(stats.packets_offered, 0u);
  // Destination 7's own packets resolve holder == dst and route directly;
  // everything else chases the stale holder first.
  EXPECT_GT(stats.packets_misrouted, 0u);
  EXPECT_GT(stats.misroute_extra, 0u);
  EXPECT_GT(stats.misroute_rate(), 0.5);
  // Misrouted packets still arrive (both legs route on a connected graph).
  EXPECT_EQ(stats.packets_delivered, stats.packets_offered);
  EXPECT_EQ(stats.interruptions, 0u);
}

TEST(Sessions, DownEndpointsLosePacketsWithoutRouting) {
  const auto w = make(80, 17);
  const routing::RoutingTables tables(w.g, w.h);
  SessionConfig cfg;
  cfg.sessions_per_node_per_sec = 0.3;
  cfg.mean_duration = 50.0;
  SessionWorkload workload(cfg, 18);
  std::vector<std::uint8_t> down(w.n, 1);  // everyone dark
  SessionWorkload::TickContext ctx;
  ctx.tables = &tables;
  ctx.down = &down;
  ctx.node_count = w.n;
  ctx.dt = 1.0;
  ctx.now = 1.0;
  workload.tick_sessions(ctx);
  // Dark endpoints are never admitted, so no sessions and no packets.
  EXPECT_EQ(workload.stats().sessions, 0u);
  EXPECT_EQ(workload.stats().packets_offered, 0u);

  // Admission draws were consumed anyway, so the arrival stream stays
  // aligned: once everyone is back up the workload admits sessions again,
  // and a mirror that never saw down nodes admits strictly more (only the
  // dark first tick differs).
  SessionWorkload mirror(cfg, 18);
  SessionWorkload::TickContext mirror_ctx = ctx;
  mirror_ctx.down = nullptr;
  mirror.tick_sessions(mirror_ctx);
  std::fill(down.begin(), down.end(), 0);  // everyone back up
  for (int t = 2; t <= 6; ++t) {
    ctx.now = t;
    mirror_ctx.now = t;
    workload.tick_sessions(ctx);
    mirror.tick_sessions(mirror_ctx);
  }
  EXPECT_GT(workload.stats().sessions, 0u);
  EXPECT_GT(mirror.stats().sessions, workload.stats().sessions);
}

/// Scripted resolution that counts its calls.
struct CountingLocator : LocatorView {
  LocateOutcome outcome{LocateResult::kFresh, 0, kInvalidNode};
  Size calls = 0;
  LocateOutcome locate(NodeId /*dst*/) override {
    ++calls;
    return outcome;
  }
};

TEST(Sessions, ResolvesEachLiveSessionOncePerTick) {
  const auto w = make(120, 19);
  const routing::RoutingTables tables(w.g, w.h);
  SessionConfig cfg;
  cfg.sessions_per_node_per_sec = 0.2;
  cfg.mean_duration = 5.0;
  cfg.packets_per_sec = 4.0;
  SessionWorkload workload(cfg, 20);
  CountingLocator locator;
  SessionWorkload::TickContext ctx;
  ctx.tables = &tables;
  ctx.locator = &locator;
  ctx.node_count = w.n;
  ctx.dt = 1.0;
  Size resolved = 0;
  for (int t = 1; t <= 12; ++t) {
    ctx.now = t;
    const Size before = locator.calls;
    workload.tick_sessions(ctx);
    // Four packets per session, one locate() per live session.
    EXPECT_EQ(locator.calls - before, workload.live_sessions()) << "tick " << t;
    resolved += workload.live_sessions();
  }
  ASSERT_GT(resolved, 0u);
  EXPECT_EQ(workload.stats().packets_offered, 4 * resolved);
}

/// Runs \p ticks ticks of a workload at \p packets_per_sec packets per
/// one-second tick; from tick \p dark_from on, every even node is down.
SessionStats run_at_rate(const routing::RoutingTables& tables, Size n, LocatorView* locator,
                         double packets_per_sec, int ticks, int dark_from) {
  SessionConfig cfg;
  cfg.sessions_per_node_per_sec = 0.15;
  cfg.mean_duration = 6.0;
  cfg.packets_per_sec = packets_per_sec;
  SessionWorkload workload(cfg, 22);
  std::vector<std::uint8_t> down(n, 0);
  SessionWorkload::TickContext ctx;
  ctx.tables = &tables;
  ctx.locator = locator;
  ctx.down = &down;
  ctx.node_count = n;
  ctx.dt = 1.0;
  for (int t = 1; t <= ticks; ++t) {
    if (t == dark_from) {
      for (Size v = 0; v < n; v += 2) down[v] = 1;
    }
    ctx.now = t;
    workload.tick_sessions(ctx);
  }
  workload.finish(ticks + 1.0);
  return workload.stats();
}

TEST(Sessions, PacketStatsScaleExactlyWithPacketsPerTick) {
  // Every packet of a session meets the same fate within a tick, so four
  // packets per tick must account exactly four times what one does, for
  // each resolution outcome and for dark endpoints; session-level stats
  // (admissions, interruption windows) must not move at all.
  const auto w = make(140, 21);
  const routing::RoutingTables tables(w.g, w.h);
  struct Case {
    const char* name;
    LocateOutcome outcome;
    int dark_from;
  };
  const Case cases[] = {
      {"fresh", {LocateResult::kFresh, 0, kInvalidNode}, 1000},
      {"stale", {LocateResult::kStaleHit, 7, 7}, 1000},
      {"miss", {LocateResult::kMiss, kInvalidNode, kInvalidNode}, 1000},
      {"down", {LocateResult::kFresh, 0, kInvalidNode}, 6},
  };
  for (const auto& c : cases) {
    CountingLocator locator;
    locator.outcome = c.outcome;
    const auto one = run_at_rate(tables, w.n, &locator, 1.0, 12, c.dark_from);
    const auto four = run_at_rate(tables, w.n, &locator, 4.0, 12, c.dark_from);
    SCOPED_TRACE(c.name);
    ASSERT_GT(one.packets_offered, 0u);
    EXPECT_EQ(four.sessions, one.sessions);
    EXPECT_EQ(four.packets_offered, 4 * one.packets_offered);
    EXPECT_EQ(four.packets_delivered, 4 * one.packets_delivered);
    EXPECT_EQ(four.packets_misrouted, 4 * one.packets_misrouted);
    EXPECT_EQ(four.packets_lost, 4 * one.packets_lost);
    EXPECT_EQ(four.undeliverable, 4 * one.undeliverable);
    EXPECT_EQ(four.recovered, 4 * one.recovered);
    EXPECT_EQ(four.data_transmissions, 4 * one.data_transmissions);
    EXPECT_EQ(four.misroute_extra, 4 * one.misroute_extra);
    EXPECT_EQ(four.interruptions, one.interruptions);
    EXPECT_EQ(four.interruption_time, one.interruption_time);
  }
  // Each case actually exercised its outcome.
  CountingLocator stale;
  stale.outcome = cases[1].outcome;
  EXPECT_GT(run_at_rate(tables, w.n, &stale, 1.0, 12, 1000).packets_misrouted, 0u);
  CountingLocator fresh;
  const auto dark = run_at_rate(tables, w.n, &fresh, 1.0, 12, 6);
  EXPECT_GT(dark.packets_lost, 0u);
  EXPECT_GT(dark.packets_delivered, 0u);
}

TEST(Poisson, MeanAndVarianceMatch) {
  common::Xoshiro256 rng(9);
  for (const double lambda : {0.5, 4.0, 100.0}) {
    double sum = 0.0, sum2 = 0.0;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i) {
      const auto k = static_cast<double>(common::poisson(rng, lambda));
      sum += k;
      sum2 += k * k;
    }
    const double mean = sum / draws;
    const double var = sum2 / draws - mean * mean;
    EXPECT_NEAR(mean, lambda, lambda * 0.05 + 0.05) << "lambda " << lambda;
    EXPECT_NEAR(var, lambda, lambda * 0.15 + 0.1) << "lambda " << lambda;
  }
}

}  // namespace
}  // namespace manet::traffic
