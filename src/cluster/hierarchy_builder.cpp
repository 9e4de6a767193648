#include "cluster/hierarchy_builder.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace manet::cluster {

HierarchyBuilder::HierarchyBuilder(Options options)
    : algorithm_(std::make_shared<Alca>()), options_(options) {}

HierarchyBuilder::HierarchyBuilder(std::shared_ptr<const ElectionAlgorithm> algorithm,
                                   Options options)
    : algorithm_(std::move(algorithm)), options_(options) {
  MANET_CHECK(algorithm_ != nullptr);
}

Hierarchy HierarchyBuilder::build(const graph::Graph& g, std::span<const NodeId> ids,
                                  std::span<const geom::Vec2> positions) const {
  Hierarchy h;
  h.reset(g, ids);
  if (!ids.empty()) {
    auto sorted = h.level(0).ids;
    std::sort(sorted.begin(), sorted.end());
    MANET_CHECK_MSG(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
                    "node ids must be unique");
  }
  for (Level k = 0; k < options_.max_levels && h.cluster_count(k) > 1; ++k) {
    LevelView& cur = h.levels_[k];
    cur.election = algorithm_->elect(cur.topo, cur.ids);
    if (!h.promote(k, options_, positions)) break;
  }
  h.seal();
  return h;
}

}  // namespace manet::cluster
