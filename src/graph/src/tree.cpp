#include "sag/graph/tree.h"

#include <stdexcept>

namespace sag::graph {

RootedTree::RootedTree(std::vector<std::size_t> parent)
    : parent_(std::move(parent)), children_(parent_.size()) {
    const std::size_t n = parent_.size();
    for (std::size_t v = 0; v < n; ++v) {
        if (parent_[v] >= n) throw std::out_of_range("parent index out of range");
        if (parent_[v] != v) children_[parent_[v]].push_back(v);
    }
    // Topological order by repeated child expansion from the roots; if some
    // vertex is never reached the parent array contained a cycle.
    topo_.reserve(n);
    for (std::size_t v = 0; v < n; ++v) {
        if (parent_[v] == v) topo_.push_back(v);
    }
    for (std::size_t i = 0; i < topo_.size(); ++i) {
        for (const std::size_t c : children_[topo_[i]]) topo_.push_back(c);
    }
    if (topo_.size() != n) throw std::invalid_argument("parent array contains a cycle");
}

std::size_t RootedTree::depth(std::size_t v) const {
    std::size_t d = 0;
    while (!is_root(v)) {
        v = parent_[v];
        ++d;
    }
    return d;
}

}  // namespace sag::graph
