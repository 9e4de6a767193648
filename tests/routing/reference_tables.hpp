#pragma once

#include <vector>

#include "cluster/hierarchy.hpp"
#include "common/check.hpp"
#include "graph/bfs.hpp"
#include "graph/graph.hpp"
#include "lm/address.hpp"
#include "routing/table.hpp"

/// \file reference_tables.hpp
/// Reference oracle for routing::RoutingTables: the plain construction the
/// production tables must reproduce entry for entry. Every (parent, child)
/// pair allocates a fresh n-sized distance array, any member cut off inside
/// the parent's induced subgraph triggers an unscreened full-graph
/// multi-source BFS, and route() switches to recovery with a full BFS from
/// the destination. Slow by design; tests only.

namespace manet::routing::testing {

class ReferenceTables {
 public:
  ReferenceTables(const graph::Graph& g, const cluster::Hierarchy& h) : g_(&g), h_(&h) {
    const Size n = g.vertex_count();
    MANET_CHECK(h.level(0).vertex_count() == n);
    tables_.resize(n);
    std::vector<std::uint32_t> membership(n, 0xFFFFFFFFu);
    for (Level parent_level = 1; parent_level <= h.top_level(); ++parent_level) {
      const Level child_level = parent_level - 1;
      for (NodeId parent = 0; parent < h.cluster_count(parent_level); ++parent) {
        const auto& children = h.children(parent_level, parent);
        if (children.size() < 2) continue;
        const auto& parent_members = h.members0(parent_level, parent);
        for (const NodeId v : parent_members) membership[v] = parent;

        for (const NodeId child : children) {
          const auto& targets = h.members0(child_level, child);
          std::vector<std::uint32_t> dist(n, graph::kUnreachable);
          std::vector<NodeId> queue;
          for (const NodeId s : targets) {
            dist[s] = 0;
            queue.push_back(s);
          }
          for (Size head = 0; head < queue.size(); ++head) {
            const NodeId u = queue[head];
            for (const NodeId w : g.neighbors(u)) {
              if (membership[w] != parent || dist[w] != graph::kUnreachable) continue;
              dist[w] = dist[u] + 1;
              queue.push_back(w);
            }
          }

          std::vector<std::uint32_t> global_dist;
          for (const NodeId v : parent_members) {
            if (dist[v] != graph::kUnreachable) continue;
            global_dist = graph::bfs_hops_multi(g, targets);
            break;
          }

          for (const NodeId v : parent_members) {
            const auto& field = dist[v] != graph::kUnreachable ? dist : global_dist;
            const std::uint32_t dv = field[v];
            if (dv == 0 || dv == graph::kUnreachable) continue;
            NodeId hop = kInvalidNode;
            for (const NodeId w : g.neighbors(v)) {
              if (field[w] == dv - 1 && (hop == kInvalidNode || w < hop)) hop = w;
            }
            MANET_CHECK(hop != kInvalidNode);
            tables_[v].push_back(RouteEntry{child_level, child, hop, dv});
          }
        }
        for (const NodeId v : parent_members) membership[v] = 0xFFFFFFFFu;
      }
    }
  }

  const std::vector<RouteEntry>& entries(NodeId v) const { return tables_[v]; }

  NodeId next_hop(NodeId u, NodeId dest) const {
    if (u == dest) return u;
    const Level shared = lm::lowest_common_level(*h_, u, dest);
    const NodeId target = h_->ancestor(dest, shared - 1);
    for (const auto& entry : tables_[u]) {
      if (entry.level == shared - 1 && entry.target == target) return entry.next_hop;
    }
    return kInvalidNode;
  }

  RoutingTables::RouteResult route(NodeId u, NodeId dest) const {
    RoutingTables::RouteResult result;
    result.path.push_back(u);
    const Size guard = 4 * tables_.size() + 8;
    std::vector<bool> visited(tables_.size(), false);
    visited[u] = true;
    NodeId cur = u;
    bool recovery = false;
    std::vector<std::uint32_t> recovery_field;
    while (cur != dest && result.path.size() < guard) {
      NodeId hop = kInvalidNode;
      if (!recovery) {
        hop = next_hop(cur, dest);
        if (hop == kInvalidNode || visited[hop]) {
          recovery = true;
          result.recovered = true;
          recovery_field = graph::bfs_hops(*g_, dest);
        }
      }
      if (recovery) {
        const std::uint32_t dc = recovery_field[cur];
        if (dc == graph::kUnreachable || dc == 0) break;
        for (const NodeId w : g_->neighbors(cur)) {
          if (recovery_field[w] == dc - 1 && (hop == kInvalidNode || w < hop)) hop = w;
        }
      }
      if (hop == kInvalidNode || hop == cur) break;
      result.path.push_back(hop);
      visited[hop] = true;
      cur = hop;
    }
    result.delivered = cur == dest;
    return result;
  }

 private:
  const graph::Graph* g_;
  const cluster::Hierarchy* h_;
  std::vector<std::vector<RouteEntry>> tables_;
};

}  // namespace manet::routing::testing
