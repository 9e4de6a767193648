#pragma once

#include <utility>
#include <vector>

#include "cluster/hierarchy.hpp"
#include "graph/graph.hpp"

/// \file table.hpp
/// Strict hierarchical routing (paper Section 2.1, after Steenstrup [14] and
/// Kleinrock & Kamoun [7]).
///
/// Each node keeps, for every level k of its ancestor chain, one routing
/// entry per *sibling* cluster of its level-(k-1) cluster inside its level-k
/// cluster: the next hop on a shortest level-0 path toward the nearest
/// member of that sibling. Forwarding a packet reads only the destination's
/// hierarchical address: at node u, find the lowest level j where u and the
/// destination share a cluster, look up u's entry for the destination's
/// level-(j-1) cluster, and hand the packet to that next hop. No packet is
/// forced through clusterheads, exactly as the paper stresses.
///
/// Table size is Theta(sum_k alpha_k) = Theta(log|V|) entries per node —
/// the Kleinrock-Kamoun saving over the flat Theta(|V|) table — at the cost
/// of bounded path stretch; both are measured by bench_routing (E16/E17).

namespace manet::routing {

/// One routing entry: toward cluster `target` (dense index at `level`),
/// leave via `next_hop` (level-0 dense vertex); `distance` is the hop count
/// to the nearest member of the target cluster.
struct RouteEntry {
  Level level = 0;          ///< cluster level of the target
  NodeId target = 0;        ///< dense cluster index at `level`
  NodeId next_hop = kInvalidNode;
  std::uint32_t distance = 0;
};

/// All routing state for the network under one hierarchy snapshot.
class RoutingTables {
 public:
  /// Build tables for every node. Cost: one multi-source BFS per cluster
  /// per level over its parent's induced subgraph, plus one component
  /// labelling — O(L * |V| + sum_k |V_k| * |E|) worst case, fine at the
  /// scales this library targets.
  RoutingTables(const graph::Graph& g, const cluster::Hierarchy& h);

  /// Entries held by node \p v (its "hierarchical map" worth of routes).
  const std::vector<RouteEntry>& entries(NodeId v) const;

  /// Number of entries at node \p v; Theta(log n) is the claim under test.
  Size table_size(NodeId v) const { return entries(v).size(); }

  double mean_table_size() const;

  /// Next hop at node \p u for a packet addressed to \p dest. Returns u
  /// itself when u == dest. kInvalidNode signals a routing failure (cannot
  /// happen on a connected snapshot; surfaced for tests).
  NodeId next_hop(NodeId u, NodeId dest) const;

  struct RouteResult {
    std::vector<NodeId> path;  ///< nodes visited, inclusive of both ends
    bool delivered = false;
    bool recovered = false;  ///< loop detected; finished via recovery mode
  };

  /// Reusable route() workspace, in the style of net::HopOracle::Scratch:
  /// path marks, the bounded recovery sweep and the result buffer, each
  /// reset through what the previous route touched. Callers that route many
  /// packets keep one (one per thread); route() is const on the tables, so
  /// distinct Scratch instances may route concurrently.
  struct Scratch {
    std::vector<std::uint8_t> visited;  ///< on the path (reset through result.path)
    std::vector<std::uint32_t> dist;    ///< recovery hops to dest, kUnreachable if unswept
    std::vector<NodeId> queue;          ///< recovery sweep order (resets dist)
    RouteResult result;
  };

  /// Trace the full path u -> dest. Hierarchical forwarding is loop-free as
  /// long as every hop stays inside the longest-matched cluster; entries
  /// that had to fall back to global shortest-path fields (non-contiguous
  /// cluster memberships) can oscillate — on the first revisit the packet
  /// switches to recovery mode (pure shortest-path forwarding), like the
  /// route-repair fallback of SURAN/MMWN-class protocols. The returned
  /// reference lives in \p scratch until its next route() call.
  const RouteResult& route(NodeId u, NodeId dest, Scratch& scratch) const;

  /// Same, with a throwaway scratch (one-off queries and tests).
  RouteResult route(NodeId u, NodeId dest) const {
    Scratch scratch;
    route(u, dest, scratch);
    return std::move(scratch.result);
  }

  const cluster::Hierarchy& hierarchy() const { return *h_; }

 private:
  /// Locate the entry at node u targeting (level, cluster).
  const RouteEntry* find_entry(NodeId u, Level level, NodeId cluster) const;

  /// Recovery field: BFS from \p dest into \p s, stopped once \p cur and
  /// \p revisit (kInvalidNode = none) are both discovered.
  void recovery_sweep(NodeId dest, NodeId cur, NodeId revisit, Scratch& s) const;

  const graph::Graph* g_;
  const cluster::Hierarchy* h_;
  std::vector<std::vector<RouteEntry>> tables_;  ///< per node
};

/// Path-stretch statistics of hierarchical routing vs shortest paths.
struct StretchStats {
  double mean_stretch = 0.0;  ///< mean over sampled pairs of hier/shortest
  double max_stretch = 0.0;
  double mean_hier_hops = 0.0;
  double mean_shortest_hops = 0.0;
  Size sampled_pairs = 0;
  Size recoveries = 0;  ///< pairs that needed the recovery fallback
  Size failures = 0;    ///< pairs undeliverable even with recovery
};

/// Sample \p pairs random connected (src, dst) pairs and compare path
/// lengths. Draws are capped at 64 * \p pairs, so a graph with few or no
/// connected pairs (an edgeless one) returns short instead of spinning.
StretchStats measure_stretch(const RoutingTables& tables, const graph::Graph& g, Size pairs,
                             std::uint64_t seed);

}  // namespace manet::routing
