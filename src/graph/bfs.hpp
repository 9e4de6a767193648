#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"

/// \file bfs.hpp
/// Breadth-first search utilities. Hop counts on the level-0 graph are the
/// library's packet-transmission metric: one LM entry moved from node a to
/// node b costs hops(a, b) transmissions (strict hierarchical routing
/// forwards along shortest paths, paper Section 2.1).

namespace manet::graph {

/// Hop distance marker for unreachable vertices.
inline constexpr std::uint32_t kUnreachable = 0xFFFFFFFFu;

/// Single-source BFS: hop counts from \p source to every vertex.
std::vector<std::uint32_t> bfs_hops(const Graph& g, NodeId source);

/// Multi-source BFS: hop count to the *nearest* of \p sources.
std::vector<std::uint32_t> bfs_hops_multi(const Graph& g, std::span<const NodeId> sources);

/// Reusable BFS workspace: avoids reallocating the frontier and distance
/// arrays when many full sweeps run against graphs of the same size (the
/// sampled hop statistics run one per source). A caller that needs one
/// distance per search uses BfsPairScratch instead.
class BfsScratch {
 public:
  /// Runs BFS from \p source and returns a view of the internal distance
  /// array, valid until the next run() call.
  std::span<const std::uint32_t> run(const Graph& g, NodeId source);

  /// Distance from the last run's source to \p v.
  std::uint32_t hops_to(NodeId v) const;

 private:
  std::vector<std::uint32_t> dist_;
  std::vector<NodeId> queue_;
};

/// Reusable single-pair hop query via bidirectional BFS.
///
/// The handoff/GLS/registration pricing loops and the h_k, stretch and
/// query-cost samplers ask for hops(u, v) between specific endpoint pairs —
/// typically nearby cluster heads or same-cluster members — and a full
/// single-source sweep per query is O(V + E) regardless of how close v is.
/// This scratch expands the smaller of two level-synchronized frontiers
/// (one rooted at each endpoint) and stops as soon as the best meeting
/// distance can no longer improve, which costs O(paths of length <= L/2)
/// around each endpoint instead of the whole graph.
///
/// Exactness: candidates best = min(ds(w) + dt(w)) are recorded whenever a
/// node w receives its second stamp, and the search only returns best once
/// best <= radius_s + radius_t. Any true shortest path of length L has a
/// node at distance radius_s from u and L - radius_s <= radius_t from v, so
/// it was doubly stamped and recorded; hence best == L exactly — callers
/// (and the paper's packet accounting) see values identical to a full BFS,
/// bit for bit.
///
/// Distance arrays are epoch-stamped, so repeated queries clear nothing.
class BfsPairScratch {
 public:
  /// Exact hop distance between \p u and \p v (kUnreachable when they are
  /// in different components).
  std::uint32_t hops(const Graph& g, NodeId u, NodeId v);

 private:
  std::vector<std::uint32_t> mark_s_, mark_t_;  ///< epoch stamps per side
  std::vector<std::uint32_t> ds_, dt_;          ///< valid where stamped
  std::vector<NodeId> frontier_s_, frontier_t_, next_;
  std::uint32_t epoch_ = 0;
};

}  // namespace manet::graph
