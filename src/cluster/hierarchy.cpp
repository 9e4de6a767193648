#include "cluster/hierarchy.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"

namespace manet::cluster {

void Hierarchy::reset(const graph::Graph& g, std::span<const NodeId> ids) {
  const Size n = g.vertex_count();
  MANET_CHECK(n > 0);
  levels_.clear();
  ancestor_.clear();
  children_.clear();
  members0_.clear();

  LevelView base;
  base.topo = g;
  if (ids.empty()) {
    base.ids.resize(n);
    for (NodeId v = 0; v < n; ++v) base.ids[v] = v;
  } else {
    MANET_CHECK_MSG(ids.size() == n, "id assignment size mismatch");
    base.ids.assign(ids.begin(), ids.end());
  }
  base.node0.resize(n);
  for (NodeId v = 0; v < n; ++v) base.node0[v] = v;
  levels_.push_back(std::move(base));

  children_.emplace_back();  // children_[0] unused
  members0_.emplace_back(n);
  for (NodeId v = 0; v < n; ++v) members0_[0][v] = {v};
  ancestor_.emplace_back(n);
  for (NodeId v = 0; v < n; ++v) ancestor_[0][v] = v;
}

bool Hierarchy::promote(Level k, const HierarchyOptions& options,
                        std::span<const geom::Vec2> positions) {
  MANET_CHECK(k + 1 == levels_.size());
  const Size n = levels_[0].vertex_count();
  LevelView& cur = levels_[k];
  const auto& heads = cur.election.clusterheads;
  const Size n_next = heads.size();
  if (n_next == cur.vertex_count()) {
    // No aggregation (every vertex self-heads; edgeless or fully stalled
    // level): level k is terminal and records no election.
    cur.election = ElectionResult{};
    return false;
  }

  // Dense reindex: level-k head vertex -> level-(k+1) vertex.
  std::vector<NodeId> promoted(cur.vertex_count(), kInvalidNode);
  for (Size i = 0; i < n_next; ++i) promoted[heads[i]] = static_cast<NodeId>(i);
  cur.parent.resize(cur.vertex_count());
  for (NodeId u = 0; u < cur.vertex_count(); ++u) {
    cur.parent[u] = promoted[cur.election.head_of[u]];
    MANET_CHECK(cur.parent[u] != kInvalidNode);
  }

  LevelView next;
  next.ids.resize(n_next);
  next.node0.resize(n_next);
  for (Size i = 0; i < n_next; ++i) {
    next.ids[i] = cur.ids[heads[i]];
    next.node0[i] = cur.node0[heads[i]];
  }

  // Level-(k+1) links.
  std::vector<graph::Edge> next_edges;
  if (options.geometric_links) {
    // Geometric hysteresis (paper eq. (7)): heads within
    // beta * R_TX * sqrt(mean aggregation) of one another are neighbors.
    MANET_CHECK_MSG(positions.size() == n,
                    "geometric level-k links need level-0 node positions");
    const double mean_ck = static_cast<double>(n) / static_cast<double>(n_next);
    const double range = options.beta * options.tx_radius * std::sqrt(mean_ck);
    const double range2 = range * range;
    for (NodeId a = 0; a < n_next; ++a) {
      const geom::Vec2 pa = positions[next.node0[a]];
      for (NodeId b = a + 1; b < n_next; ++b) {
        if (geom::distance2(pa, positions[next.node0[b]]) <= range2) {
          next_edges.emplace_back(a, b);
        }
      }
    }
  } else {
    // Graph contraction: clusters adjacent in the level-k topology.
    for (const auto& [a, b] : cur.topo.edges()) {
      NodeId pa = cur.parent[a];
      NodeId pb = cur.parent[b];
      if (pa == pb) continue;
      if (pa > pb) std::swap(pa, pb);
      next_edges.emplace_back(pa, pb);
    }
    std::sort(next_edges.begin(), next_edges.end());
    next_edges.erase(std::unique(next_edges.begin(), next_edges.end()), next_edges.end());
  }
  next.topo = graph::Graph(n_next, next_edges);

  // Rollups by linear bucket placement: ascending scans land every bucket's
  // entries already sorted.
  std::vector<std::vector<NodeId>> children(n_next);
  for (NodeId u = 0; u < cur.vertex_count(); ++u) children[cur.parent[u]].push_back(u);
  std::vector<NodeId> anc(n);
  for (NodeId v = 0; v < n; ++v) anc[v] = cur.parent[ancestor_[k][v]];
  std::vector<std::vector<NodeId>> members(n_next);
  for (NodeId v = 0; v < n; ++v) members[anc[v]].push_back(v);

  children_.push_back(std::move(children));
  members0_.push_back(std::move(members));
  ancestor_.push_back(std::move(anc));
  levels_.push_back(std::move(next));
  return true;
}

void Hierarchy::seal() {
  LevelView& top = levels_.back();
  top.parent.assign(top.vertex_count(), kInvalidNode);
}

const LevelView& Hierarchy::level(Level k) const {
  MANET_CHECK(k < levels_.size());
  return levels_[k];
}

NodeId Hierarchy::ancestor(NodeId v, Level k) const {
  MANET_CHECK(k < ancestor_.size());
  MANET_CHECK(v < ancestor_[k].size());
  return ancestor_[k][v];
}

NodeId Hierarchy::ancestor_id(NodeId v, Level k) const {
  return level(k).ids[ancestor(v, k)];
}

const std::vector<NodeId>& Hierarchy::children(Level k, NodeId cluster) const {
  MANET_CHECK(k >= 1 && k < levels_.size());
  MANET_CHECK(cluster < children_[k].size());
  return children_[k][cluster];
}

const std::vector<NodeId>& Hierarchy::members0(Level k, NodeId cluster) const {
  MANET_CHECK(k < levels_.size());
  MANET_CHECK(cluster < members0_[k].size());
  return members0_[k][cluster];
}

std::vector<NodeId> Hierarchy::address(NodeId v) const {
  std::vector<NodeId> out;
  out.reserve(level_count());
  for (Level k = top_level();; --k) {
    out.push_back(ancestor_id(v, k));
    if (k == 0) break;
  }
  return out;
}

double Hierarchy::alpha(Level k) const {
  MANET_CHECK(k >= 1 && k < levels_.size());
  return static_cast<double>(levels_[k - 1].vertex_count()) /
         static_cast<double>(levels_[k].vertex_count());
}

double Hierarchy::aggregation(Level k) const {
  MANET_CHECK(k < levels_.size());
  return static_cast<double>(levels_[0].vertex_count()) /
         static_cast<double>(levels_[k].vertex_count());
}

}  // namespace manet::cluster
