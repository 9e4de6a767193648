#include "routing/table.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cluster/hierarchy_builder.hpp"
#include "common/rng.hpp"
#include "geom/region.hpp"
#include "graph/bfs.hpp"
#include "net/unit_disk.hpp"

namespace manet::routing {
namespace {

struct World {
  std::vector<geom::Vec2> pts;
  graph::Graph g{0};
  cluster::Hierarchy h;
};

World make(Size n, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  const auto disk = geom::DiskRegion::with_density(n, 1.0);
  World w;
  w.pts.resize(n);
  for (auto& p : w.pts) p = disk.sample(rng);
  net::UnitDiskBuilder builder(2.2, true);
  w.g = builder.build(w.pts);
  w.h = cluster::HierarchyBuilder().build(w.g);
  return w;
}

TEST(RoutingTables, EveryPairIsDeliverable) {
  const auto w = make(250, 1);
  const RoutingTables tables(w.g, w.h);
  common::Xoshiro256 rng(2);
  for (int i = 0; i < 300; ++i) {
    const auto u = static_cast<NodeId>(common::uniform_index(rng, 250));
    const auto v = static_cast<NodeId>(common::uniform_index(rng, 250));
    const auto routed = tables.route(u, v);
    EXPECT_TRUE(routed.delivered) << u << " -> " << v;
    EXPECT_EQ(routed.path.front(), u);
    EXPECT_EQ(routed.path.back(), v);
  }
}

TEST(RoutingTables, PathsFollowGraphEdges) {
  const auto w = make(200, 3);
  const RoutingTables tables(w.g, w.h);
  common::Xoshiro256 rng(4);
  for (int i = 0; i < 100; ++i) {
    const auto u = static_cast<NodeId>(common::uniform_index(rng, 200));
    const auto v = static_cast<NodeId>(common::uniform_index(rng, 200));
    const auto routed = tables.route(u, v);
    for (Size hop = 1; hop < routed.path.size(); ++hop) {
      EXPECT_TRUE(w.g.has_edge(routed.path[hop - 1], routed.path[hop]))
          << "phantom edge in path " << u << " -> " << v;
    }
  }
}

TEST(RoutingTables, SelfRouteIsTrivial) {
  const auto w = make(120, 5);
  const RoutingTables tables(w.g, w.h);
  const auto routed = tables.route(7, 7);
  EXPECT_TRUE(routed.delivered);
  EXPECT_EQ(routed.path, (std::vector<NodeId>{7}));
  EXPECT_EQ(tables.next_hop(7, 7), 7u);
}

TEST(RoutingTables, NextHopIsNeighborOrSelf) {
  const auto w = make(200, 6);
  const RoutingTables tables(w.g, w.h);
  for (NodeId u = 0; u < 200; u += 7) {
    for (NodeId v = 0; v < 200; v += 11) {
      if (u == v) continue;
      const NodeId hop = tables.next_hop(u, v);
      if (hop != kInvalidNode) {
        EXPECT_TRUE(w.g.has_edge(u, hop)) << u << " -> " << v;
      }
    }
  }
}

TEST(RoutingTables, TableSizeIsFarBelowFlatRouting) {
  const auto w = make(600, 7);
  const RoutingTables tables(w.g, w.h);
  // Flat routing keeps n-1 entries; hierarchical must be much smaller.
  EXPECT_LT(tables.mean_table_size(), 120.0);
  EXPECT_GT(tables.mean_table_size(), 2.0);
}

TEST(RoutingTables, TableSizeGrowsSlowlyWithN) {
  const auto small = make(200, 8);
  const auto large = make(1600, 9);
  const double t_small = RoutingTables(small.g, small.h).mean_table_size();
  const double t_large = RoutingTables(large.g, large.h).mean_table_size();
  // 8x the nodes must cost far less than 8x the table (log-like growth).
  EXPECT_LT(t_large, 3.0 * t_small);
}

TEST(RoutingTables, EntriesPointToSiblingClusters) {
  const auto w = make(300, 10);
  const RoutingTables tables(w.g, w.h);
  for (NodeId v = 0; v < 300; v += 13) {
    for (const auto& entry : tables.entries(v)) {
      // The entry's target cluster must share v's cluster one level up...
      const Level parent_level = entry.level + 1;
      ASSERT_LE(parent_level, w.h.top_level());
      // ...and must not be v's own branch.
      EXPECT_NE(w.h.ancestor(v, entry.level), entry.target);
      EXPECT_NE(entry.next_hop, kInvalidNode);
      EXPECT_GT(entry.distance, 0u);
    }
  }
}

TEST(MeasureStretch, ReportsSaneNumbers) {
  const auto w = make(400, 11);
  const RoutingTables tables(w.g, w.h);
  const auto stats = measure_stretch(tables, w.g, 150, 12);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_GT(stats.sampled_pairs, 100u);
  EXPECT_GE(stats.mean_stretch, 1.0);
  EXPECT_LT(stats.mean_stretch, 2.5);
  EXPECT_GE(stats.max_stretch, stats.mean_stretch);
  EXPECT_GE(stats.mean_hier_hops, stats.mean_shortest_hops);
}

TEST(MeasureStretch, RecoveriesAreRare) {
  const auto w = make(400, 13);
  const RoutingTables tables(w.g, w.h);
  const auto stats = measure_stretch(tables, w.g, 200, 14);
  EXPECT_LT(stats.recoveries, stats.sampled_pairs / 4);
}

TEST(MeasureStretch, ShortestHopsMatchFullBfs) {
  // Replay the sampler's draws with the same seed and recompute every
  // shortest distance with a full single-source BFS: the mean must agree
  // bit for bit with the sampler's pair queries.
  const auto w = make(400, 15);
  const RoutingTables tables(w.g, w.h);
  const Size pairs = 150;
  const std::uint64_t seed = 16;
  const auto stats = measure_stretch(tables, w.g, pairs, seed);

  common::Xoshiro256 rng(seed);
  RoutingTables::Scratch scratch;
  Size sampled = 0, failures = 0;
  double short_sum = 0.0;
  for (Size draws = 0; sampled + failures < pairs && draws < 64 * pairs; ++draws) {
    const auto u = static_cast<NodeId>(common::uniform_index(rng, 400));
    const auto v = static_cast<NodeId>(common::uniform_index(rng, 400));
    if (u == v) continue;
    const auto shortest = graph::bfs_hops(w.g, u)[v];
    if (shortest == graph::kUnreachable) continue;
    if (!tables.route(u, v, scratch).delivered) {
      ++failures;
      continue;
    }
    short_sum += shortest;
    ++sampled;
  }
  ASSERT_EQ(stats.sampled_pairs, sampled);
  ASSERT_EQ(stats.failures, failures);
  ASSERT_GT(sampled, 0u);
  EXPECT_EQ(stats.mean_shortest_hops, short_sum / static_cast<double>(sampled));
}

TEST(MeasureStretch, EdgelessGraphTerminatesWithNoPairs) {
  // Regression: unreachable draws never count toward the requested pairs,
  // so a graph without a single connected pair used to spin forever.
  const graph::Graph g(6, std::vector<graph::Edge>{});
  const auto h = cluster::HierarchyBuilder().build(g);
  const RoutingTables tables(g, h);
  const auto stats = measure_stretch(tables, g, 50, 3);
  EXPECT_EQ(stats.sampled_pairs, 0u);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_EQ(stats.mean_stretch, 0.0);
}

TEST(RoutingTables, TinyNetworks) {
  // 2 nodes: single level-1 cluster, direct intra-cluster route.
  const graph::Graph g(2, std::vector<graph::Edge>{{0, 1}});
  const auto h = cluster::HierarchyBuilder().build(g);
  const RoutingTables tables(g, h);
  const auto routed = tables.route(0, 1);
  EXPECT_TRUE(routed.delivered);
  EXPECT_EQ(routed.path.size(), 2u);
}

}  // namespace
}  // namespace manet::routing
