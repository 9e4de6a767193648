#pragma once

#include <memory>

#include "cluster/alca.hpp"
#include "cluster/hierarchy.hpp"
#include "geom/vec2.hpp"

/// \file hierarchy_builder.hpp
/// Recursive construction of the clustered hierarchy (paper Section 2.1):
/// run the election on level k, promote the clusterheads to level k+1,
/// connect two level-(k+1) vertices when their level-k clusters are adjacent
/// (or, with geometric links, when the heads are within the eq. (7) range),
/// and repeat until the topology stops aggregating (single vertex, or no
/// reduction — the latter happens only on degenerate/disconnected levels).
/// Everything but the election is Hierarchy's own assembly, shared with
/// HierarchyRepairer.

namespace manet::cluster {

class HierarchyBuilder {
 public:
  using Options = HierarchyOptions;

  /// Uses ALCA election (the paper's assumption) unless an alternative
  /// algorithm is supplied.
  explicit HierarchyBuilder(Options options = {});
  explicit HierarchyBuilder(std::shared_ptr<const ElectionAlgorithm> algorithm,
                            Options options = {});

  /// Build the full hierarchy over \p g. \p ids assigns the (unique) node
  /// identifiers that drive elections; pass an empty span to use the
  /// identity assignment id(v) = v. \p positions (level-0 node coordinates)
  /// are required when Options::geometric_links is set and ignored
  /// otherwise.
  Hierarchy build(const graph::Graph& g, std::span<const NodeId> ids = {},
                  std::span<const geom::Vec2> positions = {}) const;

  const ElectionAlgorithm& algorithm() const { return *algorithm_; }

 private:
  std::shared_ptr<const ElectionAlgorithm> algorithm_;
  Options options_;
};

}  // namespace manet::cluster
