#include "lm/chlm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cluster/hierarchy_builder.hpp"
#include "common/rng.hpp"
#include "geom/region.hpp"
#include "graph/bfs.hpp"
#include "graph/components.hpp"
#include "lm/address.hpp"
#include "lm/server_select.hpp"
#include "net/unit_disk.hpp"

namespace manet::lm {
namespace {

struct Fixture {
  std::vector<geom::Vec2> pts;
  graph::Graph g{0};
  cluster::Hierarchy h;
};

Fixture make(Size n, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  const auto disk = geom::DiskRegion::with_density(n, 1.0);
  Fixture f;
  f.pts.resize(n);
  for (auto& p : f.pts) p = disk.sample(rng);
  net::UnitDiskBuilder builder(2.2, true);
  f.g = builder.build(f.pts);
  f.h = cluster::HierarchyBuilder().build(f.g);
  return f;
}

TEST(Chlm, RebuildPopulatesAllServedLevels) {
  const auto f = make(300, 1);
  ChlmService service;
  service.rebuild(f.h);
  ASSERT_GE(service.top_level(), 2u);
  const Size expected = f.g.vertex_count() * service.served_levels();
  EXPECT_EQ(service.database().total_entries(), expected);
}

TEST(Chlm, ServerOfMatchesDatabaseContents) {
  const auto f = make(250, 2);
  ChlmService service;
  service.rebuild(f.h, 7.0);
  for (NodeId owner = 0; owner < f.g.vertex_count(); owner += 5) {
    for (Level k = kFirstServedLevel; k <= service.top_level(); ++k) {
      const NodeId server = service.server_of(owner, k);
      ASSERT_NE(server, kInvalidNode);
      const auto* rec = service.database().find(server, owner, k);
      ASSERT_NE(rec, nullptr);
      EXPECT_DOUBLE_EQ(rec->updated, 7.0);
    }
  }
}

TEST(Chlm, OutOfRangeLevelsReturnInvalid) {
  const auto f = make(200, 3);
  ChlmService service;
  service.rebuild(f.h);
  EXPECT_EQ(service.server_of(0, 0), kInvalidNode);
  EXPECT_EQ(service.server_of(0, 1), kInvalidNode);
  EXPECT_EQ(service.server_of(0, service.top_level() + 1), kInvalidNode);
}

TEST(Chlm, EntriesPerNodeIsLogarithmic) {
  // Paper Section 3.2: each node serves Theta(log|V|) peers on average.
  const auto small = make(200, 4);
  ChlmService s1;
  s1.rebuild(small.h);
  const double e_small = static_cast<double>(s1.database().total_entries()) / 200.0;

  const auto large = make(1600, 5);
  ChlmService s2;
  s2.rebuild(large.h);
  const double e_large = static_cast<double>(s2.database().total_entries()) / 1600.0;

  EXPECT_GT(e_large, e_small);          // grows with n ...
  EXPECT_LT(e_large, e_small * 3.0);    // ... but far slower than 8x
  EXPECT_LT(e_large, 15.0);             // absolute sanity: ~L-1 entries
}

TEST(Chlm, QueryCostZeroForSelf) {
  const auto f = make(150, 6);
  ChlmService service;
  service.rebuild(f.h);
  EXPECT_EQ(service.query_cost(f.h, f.g, 3, 3), 0u);
}

TEST(Chlm, QueryCostBoundedByNetworkScale) {
  const auto f = make(300, 7);
  ChlmService service;
  service.rebuild(f.h);
  graph::BfsScratch bfs;
  common::Xoshiro256 rng(8);
  double total_query = 0.0, total_direct = 0.0;
  int samples = 0;
  for (int i = 0; i < 60; ++i) {
    const auto u = static_cast<NodeId>(common::uniform_index(rng, 300));
    const auto v = static_cast<NodeId>(common::uniform_index(rng, 300));
    if (u == v) continue;
    const auto cost = service.query_cost(f.h, f.g, u, v);
    bfs.run(f.g, u);
    const auto direct = bfs.hops_to(v);
    ASSERT_NE(direct, graph::kUnreachable);
    total_query += static_cast<double>(cost);
    total_direct += direct;
    EXPECT_GE(cost + 2, static_cast<PacketCount>(0));
    ++samples;
  }
  ASSERT_GT(samples, 30);
  // The paper argues query cost is the same order as the direct hop count;
  // allow a generous constant factor.
  EXPECT_LT(total_query, 6.0 * total_direct + 10.0 * samples);
}

TEST(Chlm, QueryCostMatchesPerLegBfs) {
  // Every leg of the probe chain is an exact hop count: recompute each one
  // with a full single-source BFS and compare the totals pair by pair.
  const auto f = make(400, 11);
  ASSERT_TRUE(graph::is_connected(f.g));
  ChlmService service;
  service.rebuild(f.h);
  const auto leg = [&](NodeId from, NodeId to) -> PacketCount {
    const auto hops = graph::bfs_hops(f.g, from)[to];
    EXPECT_NE(hops, graph::kUnreachable);
    return hops;
  };
  common::Xoshiro256 rng(12);
  Size probed = 0;
  for (int i = 0; i < 200; ++i) {
    const auto u = static_cast<NodeId>(common::uniform_index(rng, 400));
    const auto v = static_cast<NodeId>(common::uniform_index(rng, 400));
    const Level shared = lowest_common_level(f.h, u, v);
    PacketCount expected = 0;
    if (u != v && shared <= 1) {
      expected = leg(u, v);
    } else if (u != v) {
      NodeId cursor = u;
      for (Level k = kFirstServedLevel; k <= shared && k <= service.top_level(); ++k) {
        const NodeId probe =
            select_server_in(f.h, f.h.ancestor(u, k), k, v, ServerSelectConfig{});
        expected += leg(cursor, probe);
        cursor = probe;
      }
      expected += leg(cursor, v);
      ++probed;
    }
    EXPECT_EQ(service.query_cost(f.h, f.g, u, v), expected) << u << " -> " << v;
  }
  EXPECT_GT(probed, 100u);  // the probe chain, not only direct routes
}

TEST(Chlm, QueryCostDisconnectedSharedClusterDies) {
  // A pair inside one level-1 cluster routes directly; on a graph where the
  // pair is disconnected that leg must die like the probe legs do, not
  // report kUnreachable as a packet count.
  const auto f = make(200, 13);
  ChlmService service;
  service.rebuild(f.h);
  NodeId u = kInvalidNode, v = kInvalidNode;
  for (NodeId c = 0; c < f.h.cluster_count(1) && u == kInvalidNode; ++c) {
    const auto& members = f.h.members0(1, c);
    if (members.size() >= 2) {
      u = members[0];
      v = members[1];
    }
  }
  ASSERT_NE(u, kInvalidNode);
  ASSERT_LE(lowest_common_level(f.h, u, v), 1u);
  const graph::Graph edgeless(f.g.vertex_count(), std::vector<graph::Edge>{});
  EXPECT_DEATH(service.query_cost(f.h, edgeless, u, v), "disconnected graph");
}

TEST(Chlm, RebuildIsIdempotent) {
  const auto f = make(200, 9);
  ChlmService a, b;
  a.rebuild(f.h);
  b.rebuild(f.h);
  for (NodeId owner = 0; owner < 200; owner += 7) {
    for (Level k = kFirstServedLevel; k <= a.top_level(); ++k) {
      EXPECT_EQ(a.server_of(owner, k), b.server_of(owner, k));
    }
  }
}

TEST(Chlm, ServedLevelsZeroForFlatHierarchy) {
  // A 2-node network aggregates in one level: no level-2 servers exist.
  const graph::Graph g(2, std::vector<graph::Edge>{{0, 1}});
  const auto h = cluster::HierarchyBuilder().build(g);
  ChlmService service;
  service.rebuild(h);
  EXPECT_EQ(service.served_levels(), 0u);
  EXPECT_EQ(service.database().total_entries(), 0u);
}

}  // namespace
}  // namespace manet::lm
