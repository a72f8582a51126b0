#pragma once

#include <cstddef>
#include <vector>

#include "sag/graph/graph.h"

namespace sag::graph {

/// A rooted tree (or forest) expressed as a parent array:
/// parent[v] == v marks a root. Built from MST output; MBMC roots the
/// upper-tier relay tree at the base stations.
class RootedTree {
public:
    /// Wraps an existing parent array (parent[root] == root). Throws when a
    /// cycle is detected.
    explicit RootedTree(std::vector<std::size_t> parent);

    std::size_t size() const { return parent_.size(); }
    std::size_t parent(std::size_t v) const { return parent_[v]; }
    bool is_root(std::size_t v) const { return parent_[v] == v; }
    const std::vector<std::size_t>& children(std::size_t v) const { return children_[v]; }

    /// Vertices ordered so every parent precedes its children.
    const std::vector<std::size_t>& topological_order() const { return topo_; }

    /// Depth of `v` (root has depth 0).
    std::size_t depth(std::size_t v) const;

private:
    std::vector<std::size_t> parent_;
    std::vector<std::vector<std::size_t>> children_;
    std::vector<std::size_t> topo_;
};

}  // namespace sag::graph
