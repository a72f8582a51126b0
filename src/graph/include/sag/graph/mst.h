#pragma once

#include <cstddef>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace sag::graph {

/// Prim's algorithm with an indexed binary heap over arcs supplied on
/// demand. `arcs(u, relax)` is called once per vertex u, as u joins the
/// tree, and calls `relax(v, weight)` for the arcs u -> v it offers; an
/// arc not offered weighs +infinity. The tree grows from `root` by the
/// outside vertex of least key, ties to the lower index, and a key drops
/// only on a strictly lighter arc, so on the same weights the result is
/// exactly the parent array of the O(n^2) dense-matrix Prim, ties
/// included. The heap holds each outside vertex of finite key once,
/// ordered by (key, vertex); a lighter arc decreases its key in place.
/// Costs O(n log n + a) plus O(log n) per key decrease, for a offered
/// arcs, in O(n) memory. Returns the parent of each vertex in the tree
/// rooted at `root` (parent[root] == root); unreachable vertices keep
/// parent == themselves.
template <typename Arcs>
std::vector<std::size_t> prim_mst(std::size_t n, std::size_t root, Arcs&& arcs) {
    if (root >= n) throw std::out_of_range("prim root out of range");
    constexpr std::size_t kUnkeyed = static_cast<std::size_t>(-1);
    constexpr std::size_t kInTree = static_cast<std::size_t>(-2);
    std::vector<std::size_t> parent(n);
    std::iota(parent.begin(), parent.end(), std::size_t{0});
    std::vector<double> key(n, std::numeric_limits<double>::infinity());
    std::vector<std::size_t> at(n, kUnkeyed);  // heap position, or a state
    std::vector<std::size_t> heap;
    heap.reserve(n);
    const auto before = [&](std::size_t a, std::size_t b) {
        return key[a] < key[b] || (key[a] == key[b] && a < b);
    };
    const auto place = [&](std::size_t i, std::size_t v) {
        heap[i] = v;
        at[v] = i;
    };
    const auto sift_up = [&](std::size_t i) {
        const std::size_t v = heap[i];
        while (i > 0 && before(v, heap[(i - 1) / 2])) {
            place(i, heap[(i - 1) / 2]);
            i = (i - 1) / 2;
        }
        place(i, v);
    };
    const auto sift_down = [&](std::size_t i) {
        const std::size_t v = heap[i];
        for (std::size_t c = 2 * i + 1; c < heap.size(); c = 2 * i + 1) {
            if (c + 1 < heap.size() && before(heap[c + 1], heap[c])) ++c;
            if (!before(heap[c], v)) break;
            place(i, heap[c]);
            i = c;
        }
        place(i, v);
    };
    std::size_t u = root;
    const auto relax = [&](std::size_t v, double weight) {
        if (v >= n) throw std::out_of_range("prim arc endpoint out of range");
        if (at[v] == kInTree || !(weight < key[v])) return;
        key[v] = weight;
        parent[v] = u;
        if (at[v] == kUnkeyed) {
            at[v] = heap.size();
            heap.push_back(v);
        }
        sift_up(at[v]);
    };
    key[root] = 0.0;
    heap.push_back(root);
    at[root] = 0;
    while (!heap.empty()) {
        u = heap.front();
        at[u] = kInTree;
        const std::size_t last = heap.back();
        heap.pop_back();
        if (!heap.empty()) {
            heap.front() = last;
            sift_down(0);
        }
        arcs(u, relax);
    }
    return parent;
}

}  // namespace sag::graph
