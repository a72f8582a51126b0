#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

namespace sag::graph {

/// Prim's algorithm with a binary heap over arcs supplied on demand.
/// `arcs(u, relax)` is called once per vertex u, as u joins the tree, and
/// calls `relax(v, weight)` for the arcs u -> v it offers; an arc not
/// offered weighs +infinity. The tree grows from `root` by the outside
/// vertex of least key, ties to the lower index, and a key drops only on a
/// strictly lighter arc, so on the same weights the result is exactly the
/// parent array of the O(n^2) dense-matrix Prim, ties included. Costs
/// O((n + a) log n) for a offered arcs. Returns the parent of each vertex
/// in the tree rooted at `root` (parent[root] == root); unreachable
/// vertices keep parent == themselves.
template <typename Arcs>
std::vector<std::size_t> prim_mst(std::size_t n, std::size_t root, Arcs&& arcs) {
    if (root >= n) throw std::out_of_range("prim root out of range");
    std::vector<std::size_t> parent(n);
    std::iota(parent.begin(), parent.end(), std::size_t{0});
    std::vector<double> best(n, std::numeric_limits<double>::infinity());
    std::vector<bool> in_tree(n, false);
    using Entry = std::pair<double, std::size_t>;  // (key, vertex)
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    std::size_t u = root;
    const auto relax = [&](std::size_t v, double weight) {
        if (v >= n) throw std::out_of_range("prim arc endpoint out of range");
        if (in_tree[v] || !(weight < best[v])) return;
        best[v] = weight;
        parent[v] = u;
        heap.emplace(weight, v);
    };
    best[root] = 0.0;
    heap.emplace(0.0, root);
    while (!heap.empty()) {
        u = heap.top().second;
        heap.pop();
        if (in_tree[u]) continue;  // stale entry: u joined at a lower key
        in_tree[u] = true;
        arcs(u, relax);
    }
    return parent;
}

}  // namespace sag::graph
