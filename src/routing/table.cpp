#include "routing/table.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "graph/bfs.hpp"
#include "graph/components.hpp"
#include "lm/address.hpp"

namespace manet::routing {

RoutingTables::RoutingTables(const graph::Graph& g, const cluster::Hierarchy& h)
    : g_(&g), h_(&h) {
  const Size n = g.vertex_count();
  MANET_CHECK(h.level(0).vertex_count() == n);
  tables_.resize(n);

  // For every cluster c at every level L-1 .. 0: BFS toward c's members
  // *restricted to the parent cluster's induced subgraph*, so that forwarded
  // packets stay inside the cluster whose address prefix they have already
  // matched — this is what keeps strict hierarchical routing loop-free (a
  // path that left the parent would raise the longest-matched prefix again
  // and could oscillate). Members cut off inside the induced subgraph fall
  // back to the global shortest-path field. Both distance arrays are reused
  // across clusters and reset through their BFS queues, so peak memory
  // stays O(n).
  //
  // Fallback rule: a cut-off member in a component holding none of c's
  // members gets no entry toward c (the global field cannot reach it —
  // typically a crashed node that fault stripping isolated while geometric
  // level-k links keep it in a multi-member cluster). The global sweep runs
  // only when some cut-off member shares a component with a target, and
  // stops once the last such member is discovered: every node at distance
  // dv - 1 of such a member v is final by then, which is all the next-hop
  // scan reads; nodes the sweep never reached read as unreachable.
  const std::vector<std::uint32_t> component = graph::component_labels(g);
  std::vector<std::uint32_t> target_component(n, 0);  // == stamp: holds a target
  std::uint32_t stamp = 0;
  std::vector<std::uint32_t> membership(n, 0xFFFFFFFFu);  // node -> parent cluster id
  std::vector<std::uint32_t> dist(n, graph::kUnreachable);    // induced field
  std::vector<std::uint32_t> global(n, graph::kUnreachable);  // fallback field
  std::vector<NodeId> next(n, kInvalidNode);  // induced next hop, valid where dist is
  std::vector<std::uint8_t> wanted(n, 0);  // cut-off member the fallback must reach
  std::vector<NodeId> queue, global_queue;

  for (Level parent_level = 1; parent_level <= h.top_level(); ++parent_level) {
    const Level child_level = parent_level - 1;
    for (NodeId parent = 0; parent < h.cluster_count(parent_level); ++parent) {
      const auto& children = h.children(parent_level, parent);
      if (children.size() < 2) continue;  // no siblings, no entries
      const auto& parent_members = h.members0(parent_level, parent);
      for (const NodeId v : parent_members) membership[v] = parent;

      for (const NodeId child : children) {
        const auto& targets = h.members0(child_level, child);

        // Multi-source BFS over the induced subgraph of parent_members. Every
        // edge from distance d to d + 1 passes through the loop, so it also
        // settles each reached member's next hop: the smallest-id neighbor
        // strictly closer to the target (deterministic tie-break).
        queue.clear();
        for (const NodeId s : targets) {
          dist[s] = 0;
          queue.push_back(s);
        }
        for (Size head = 0; head < queue.size(); ++head) {
          const NodeId u = queue[head];
          for (const NodeId w : g.neighbors(u)) {
            if (membership[w] != parent) continue;
            if (dist[w] == graph::kUnreachable) {
              dist[w] = dist[u] + 1;
              next[w] = u;
              queue.push_back(w);
            } else if (dist[w] == dist[u] + 1 && u < next[w]) {
              next[w] = u;
            }
          }
        }

        // Component-screened fallback for members the induced subgraph
        // cannot reach (cluster membership is not always level-0 contiguous).
        ++stamp;
        for (const NodeId s : targets) target_component[component[s]] = stamp;
        Size need = 0;
        for (const NodeId v : parent_members) {
          if (dist[v] != graph::kUnreachable || target_component[component[v]] != stamp) continue;
          wanted[v] = 1;
          ++need;
        }
        global_queue.clear();
        if (need > 0) {
          for (const NodeId s : targets) {
            global[s] = 0;
            global_queue.push_back(s);
          }
          for (Size head = 0; need > 0 && head < global_queue.size(); ++head) {
            const NodeId u = global_queue[head];
            for (const NodeId w : g.neighbors(u)) {
              if (global[w] != graph::kUnreachable) continue;
              global[w] = global[u] + 1;
              global_queue.push_back(w);
              if (wanted[w] != 0) {
                wanted[w] = 0;
                --need;
              }
            }
          }
        }

        for (const NodeId v : parent_members) {
          if (dist[v] == 0) continue;  // v inside the target cluster
          if (dist[v] != graph::kUnreachable) {
            tables_[v].push_back(RouteEntry{child_level, child, next[v], dist[v]});
            continue;
          }
          const std::uint32_t dv = global[v];
          if (dv == graph::kUnreachable) continue;  // no target in v's component
          NodeId hop = kInvalidNode;  // same tie-break over the fallback field
          for (const NodeId w : g.neighbors(v)) {
            if (global[w] == dv - 1 && (hop == kInvalidNode || w < hop)) hop = w;
          }
          MANET_CHECK(hop != kInvalidNode);
          tables_[v].push_back(RouteEntry{child_level, child, hop, dv});
        }
        for (const NodeId v : queue) dist[v] = graph::kUnreachable;
        for (const NodeId v : global_queue) global[v] = graph::kUnreachable;
      }
      for (const NodeId v : parent_members) membership[v] = 0xFFFFFFFFu;
    }
  }
}

const std::vector<RouteEntry>& RoutingTables::entries(NodeId v) const {
  MANET_CHECK(v < tables_.size());
  return tables_[v];
}

double RoutingTables::mean_table_size() const {
  if (tables_.empty()) return 0.0;
  Size total = 0;
  for (const auto& t : tables_) total += t.size();
  return static_cast<double>(total) / static_cast<double>(tables_.size());
}

const RouteEntry* RoutingTables::find_entry(NodeId u, Level level, NodeId cluster) const {
  for (const auto& entry : tables_[u]) {
    if (entry.level == level && entry.target == cluster) return &entry;
  }
  return nullptr;
}

NodeId RoutingTables::next_hop(NodeId u, NodeId dest) const {
  MANET_CHECK(u < tables_.size() && dest < tables_.size());
  if (u == dest) return u;
  // Lowest level where u and dest share a cluster; the packet heads for the
  // destination's cluster one level below the shared one.
  const Level shared = lm::lowest_common_level(*h_, u, dest);
  MANET_CHECK(shared >= 1);
  const NodeId target = h_->ancestor(dest, shared - 1);
  const RouteEntry* entry = find_entry(u, shared - 1, target);
  return entry != nullptr ? entry->next_hop : kInvalidNode;
}

void RoutingTables::recovery_sweep(NodeId dest, NodeId cur, NodeId revisit,
                                   Scratch& s) const {
  // Forwarding from cur reads only nodes one hop closer to dest than the
  // node it stands on, and BFS finalizes every node at distance d - 1 before
  // it discovers the first node at distance d. So the sweep may stop once
  // the nodes the packet can stand on next are discovered: cur, and the
  // revisited hop the switch step may step onto (see route()). Nodes never
  // reached read as unreachable, exactly as a full sweep reads other
  // components.
  auto found = [&](NodeId v) { return v == kInvalidNode || s.dist[v] != graph::kUnreachable; };
  s.dist[dest] = 0;
  s.queue.push_back(dest);
  for (Size head = 0; head < s.queue.size() && !(found(cur) && found(revisit)); ++head) {
    const NodeId u = s.queue[head];
    for (const NodeId w : g_->neighbors(u)) {
      if (s.dist[w] != graph::kUnreachable) continue;
      s.dist[w] = s.dist[u] + 1;
      s.queue.push_back(w);
    }
  }
}

const RoutingTables::RouteResult& RoutingTables::route(NodeId u, NodeId dest,
                                                       Scratch& s) const {
  const Size n = tables_.size();
  MANET_CHECK(u < n && dest < n);
  // Undo the previous route's marks through its touched lists.
  for (const NodeId v : s.result.path) s.visited[v] = 0;
  for (const NodeId v : s.queue) s.dist[v] = graph::kUnreachable;
  s.queue.clear();
  if (s.visited.size() < n) {
    s.visited.assign(n, 0);
    s.dist.assign(n, graph::kUnreachable);
  }

  RouteResult& result = s.result;
  result.path.clear();
  result.path.push_back(u);
  result.delivered = false;
  result.recovered = false;
  const Size guard = 4 * n + 8;
  s.visited[u] = 1;

  NodeId cur = u;
  bool recovery = false;
  while (cur != dest && result.path.size() < guard) {
    NodeId hop = kInvalidNode;
    if (!recovery) {
      hop = next_hop(cur, dest);
      // A revisit means a fallback entry oscillated; switch to recovery.
      if (hop == kInvalidNode || s.visited[hop] != 0) {
        recovery = true;
        result.recovered = true;
        recovery_sweep(dest, cur, hop, s);
      }
    }
    if (recovery) {
      const std::uint32_t dc = s.dist[cur];
      if (dc == graph::kUnreachable || dc == 0) break;
      // Switch-step quirk: on the tick that enters recovery, `hop` still
      // holds the revisited node, so this smallest-id scan starts from it
      // rather than from kInvalidNode. The packet steps back onto that
      // already-visited node unless a strictly closer neighbor has a smaller
      // id. Outputs (and the golden fixtures) depend on it; starting the
      // scan from kInvalidNode is left for a change that re-records them.
      for (const NodeId w : g_->neighbors(cur)) {
        if (s.dist[w] == dc - 1 && (hop == kInvalidNode || w < hop)) hop = w;
      }
    }
    if (hop == kInvalidNode || hop == cur) break;
    result.path.push_back(hop);
    s.visited[hop] = 1;
    cur = hop;
  }
  result.delivered = cur == dest;
  return result;
}

StretchStats measure_stretch(const RoutingTables& tables, const graph::Graph& g, Size pairs,
                             std::uint64_t seed) {
  StretchStats stats;
  common::Xoshiro256 rng(seed);
  graph::BfsPairScratch bfs;
  RoutingTables::Scratch scratch;
  const Size n = g.vertex_count();
  if (n < 2) return stats;

  double stretch_sum = 0.0;
  double hier_sum = 0.0;
  double short_sum = 0.0;
  // Self and unreachable draws do not count toward \p pairs, so the draw
  // count is capped; far above what any connected snapshot needs.
  const Size max_draws = 64 * pairs;
  for (Size draws = 0; stats.sampled_pairs + stats.failures < pairs && draws < max_draws;
       ++draws) {
    const auto u = static_cast<NodeId>(common::uniform_index(rng, n));
    const auto v = static_cast<NodeId>(common::uniform_index(rng, n));
    if (u == v) continue;
    const auto shortest = bfs.hops(g, u, v);
    if (shortest == graph::kUnreachable) continue;

    const auto& routed = tables.route(u, v, scratch);
    if (!routed.delivered) {
      ++stats.failures;
      continue;
    }
    if (routed.recovered) ++stats.recoveries;
    const double hier = static_cast<double>(routed.path.size() - 1);
    const double stretch = hier / static_cast<double>(shortest);
    stretch_sum += stretch;
    hier_sum += hier;
    short_sum += shortest;
    stats.max_stretch = std::max(stats.max_stretch, stretch);
    ++stats.sampled_pairs;
  }
  if (stats.sampled_pairs > 0) {
    const auto m = static_cast<double>(stats.sampled_pairs);
    stats.mean_stretch = stretch_sum / m;
    stats.mean_hier_hops = hier_sum / m;
    stats.mean_shortest_hops = short_sum / m;
  }
  return stats;
}

}  // namespace manet::routing
