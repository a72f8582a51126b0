#pragma once

#include <cstddef>
#include <vector>

namespace sag::graph {

/// Weighted undirected edge between vertex indices.
struct Edge {
    std::size_t u = 0;
    std::size_t v = 0;
    double weight = 0.0;

    bool operator==(const Edge& o) const = default;
};

/// Simple undirected weighted graph over vertices 0..n-1, stored as both an
/// edge list and an adjacency list. Vertices are indices into whatever
/// external entity array the caller maintains (SSs, RSs, BSs).
class Graph {
public:
    explicit Graph(std::size_t vertex_count = 0);

    std::size_t vertex_count() const { return adj_.size(); }

    /// Adds an undirected edge; self-loops are rejected (throws).
    void add_edge(std::size_t u, std::size_t v, double weight = 1.0);

    /// The endpoint of edge `e` (in add_edge order) that is not `v`.
    std::size_t other_end(std::size_t e, std::size_t v) const;

    /// Connected components as vertex-index lists (BFS).
    std::vector<std::vector<std::size_t>> connected_components() const;

private:
    std::vector<Edge> edges_;
    std::vector<std::vector<std::size_t>> adj_;
};

}  // namespace sag::graph
