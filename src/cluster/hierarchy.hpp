#pragma once

#include <span>
#include <vector>

#include "cluster/election.hpp"
#include "geom/vec2.hpp"
#include "graph/graph.hpp"

/// \file hierarchy.hpp
/// The clustered hierarchy (paper Fig. 1): level-0 is the physical topology;
/// level-k nodes are the clusterheads elected at level k-1; level-k links
/// connect clusterheads whose member clusters are adjacent in the level-(k-1)
/// topology (two clusterheads are "1 level-k hop" apart exactly when such a
/// link exists, matching the paper's Section 5.2 event definitions).
///
/// A Hierarchy is an immutable snapshot. Mobile experiments rebuild the
/// snapshot at every sampling tick and feed consecutive snapshots to the
/// differ (cluster/diff.hpp) and the LM handoff engine (lm/handoff.hpp).

namespace manet::cluster {

/// Hierarchy assembly configuration, shared by every producer
/// (HierarchyBuilder, HierarchyRepairer).
struct HierarchyOptions {
  /// Hard cap on clustered levels above level 0 (safety bound; the natural
  /// termination is aggregation to a single vertex). 32 >> log2 of any n
  /// this library targets.
  Level max_levels = 32;

  /// Level-k (k >= 1) link model. When false, two clusterheads are linked
  /// iff their member clusters are adjacent in the level-(k-1) topology —
  /// the naive graph-contraction rule. That rule is hair-triggered under
  /// mobility (a single boundary link flips cluster adjacency), which
  /// violates the paper's cluster-dynamics model: Section 5.3.1 requires a
  /// level-k link to persist until the heads drift apart by Theta(h_k), and
  /// eq. (7) writes the threshold explicitly as Theta(R_TX * sqrt(c_k)).
  /// When true (and level-0 positions are supplied), level-k links connect
  /// heads within beta * R_TX * sqrt(mean c_k) meters — the geometric
  /// hysteresis the analysis assumes.
  bool geometric_links = false;
  double beta = 1.0;       ///< link-range multiplier for geometric links
  double tx_radius = 1.0;  ///< R_TX used by the geometric threshold
};

/// One level of the hierarchy. Vertices are dense [0, |V_k|); `ids` maps
/// them back to *original* level-0 node identifiers, which is what election
/// compares and what cross-snapshot diffing keys on.
struct LevelView {
  graph::Graph topo;          ///< G_k = (V_k, E_k)
  std::vector<NodeId> ids;    ///< dense vertex -> original node id
  std::vector<NodeId> node0;  ///< dense vertex -> level-0 dense vertex of the head

  /// Election run on this level (produces level k+1). Empty (no heads) for
  /// the terminal level.
  ElectionResult election;

  /// For each dense vertex: dense index *at level k+1* of the cluster it
  /// belongs to; kInvalidNode on the terminal level.
  std::vector<NodeId> parent;

  Size vertex_count() const { return topo.vertex_count(); }
};

class Hierarchy {
 public:
  /// Number of levels including level 0. A fully aggregated hierarchy over a
  /// connected graph ends with a single top-level vertex.
  Size level_count() const { return levels_.size(); }

  /// Highest level index (L in the paper when fully aggregated).
  Level top_level() const { return static_cast<Level>(levels_.size() - 1); }

  const LevelView& level(Level k) const;

  /// Number of level-k clusters == |V_k|.
  Size cluster_count(Level k) const { return level(k).vertex_count(); }

  /// Dense vertex index at level k of the level-k cluster containing level-0
  /// node v (ancestor chain). ancestor(v, 0) == v.
  NodeId ancestor(NodeId v, Level k) const;

  /// Original node id of v's level-k clusterhead.
  NodeId ancestor_id(NodeId v, Level k) const;

  /// Level-(k-1) dense vertices belonging to level-k cluster c (children).
  const std::vector<NodeId>& children(Level k, NodeId cluster) const;

  /// Level-0 node ids belonging to level-k cluster c.
  const std::vector<NodeId>& members0(Level k, NodeId cluster) const;

  /// Hierarchical address of v: original head ids from the top level down to
  /// v itself, e.g. {100, 85, 68, 63} for node 63 in the paper's Fig. 1.
  std::vector<NodeId> address(NodeId v) const;

  /// Aggregation ratio alpha_k = |V_{k-1}| / |V_k| (paper Section 1.1).
  double alpha(Level k) const;

  /// Aggregation factor c_k = |V| / |V_k| (paper eq. (2)).
  double aggregation(Level k) const;

 private:
  friend class HierarchyBuilder;
  friend class HierarchyRepairer;

  // Assembly (paper Section 2.1), the one path every producer takes:
  // reset() installs level 0; then, per level k, the producer writes
  // level(k).election by its own means and calls promote(k); seal() closes
  // the terminal level. Producers differ only in how they elect.

  /// Clear the snapshot and install level 0: topology \p g, ids \p ids
  /// (identity when empty), singleton member sets, identity ancestors.
  void reset(const graph::Graph& g, std::span<const NodeId> ids);

  /// Promote the clusterheads of level k's election to level k+1: dense
  /// reindex and parent pointers, level-(k+1) ids/node0, level-(k+1) links
  /// (eq. (7) geometric threshold or contraction, per \p options) and the
  /// children/member/ancestor rollups. Returns false — with level k's
  /// election cleared, leaving k the terminal level — when the election
  /// aggregates nothing (every vertex heads itself).
  bool promote(Level k, const HierarchyOptions& options,
               std::span<const geom::Vec2> positions);

  /// Mark the last level terminal: no parent for any of its vertices.
  void seal();

  std::vector<LevelView> levels_;
  /// ancestor_[k][v] for level-0 node v; ancestor_[0] is identity.
  std::vector<std::vector<NodeId>> ancestor_;
  /// children_[k][c]: level-(k-1) dense vertices of level-k cluster c.
  std::vector<std::vector<std::vector<NodeId>>> children_;
  /// members0_[k][c]: level-0 nodes of level-k cluster c.
  std::vector<std::vector<std::vector<NodeId>>> members0_;
};

}  // namespace manet::cluster
