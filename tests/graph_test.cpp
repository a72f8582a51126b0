#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>

#include <gtest/gtest.h>

#include "sag/graph/mst.h"
#include "sag/graph/steiner.h"

namespace sag::graph {
namespace {

/// Reference: the textbook O(n^2) Prim over a full weight matrix
/// (weights[i][j], symmetric, +infinity for "no edge"). graph::prim_mst
/// must return exactly its parent array, ties included.
std::vector<std::size_t> prim_dense_oracle(const std::vector<std::vector<double>>& weights,
                                           std::size_t root) {
    const std::size_t n = weights.size();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<std::size_t> parent(n);
    std::iota(parent.begin(), parent.end(), std::size_t{0});
    std::vector<double> best(n, kInf);
    std::vector<bool> in_tree(n, false);
    best[root] = 0.0;

    for (std::size_t it = 0; it < n; ++it) {
        std::size_t u = n;
        double u_cost = kInf;
        for (std::size_t v = 0; v < n; ++v) {
            if (!in_tree[v] && best[v] < u_cost) {
                u = v;
                u_cost = best[v];
            }
        }
        if (u == n) break;  // remaining vertices unreachable
        in_tree[u] = true;
        for (std::size_t v = 0; v < n; ++v) {
            if (!in_tree[v] && weights[u][v] < best[v]) {
                best[v] = weights[u][v];
                parent[v] = u;
            }
        }
    }
    return parent;
}

/// graph::prim_mst offering every finite entry of row u of the matrix.
std::vector<std::size_t> prim_over(const std::vector<std::vector<double>>& w,
                                   std::size_t root) {
    return prim_mst(w.size(), root, [&](std::size_t u, auto&& relax) {
        for (std::size_t v = 0; v < w.size(); ++v) {
            if (std::isfinite(w[u][v])) relax(v, w[u][v]);
        }
    });
}

TEST(PrimTest, MatchesDenseOracle) {
    // Small integer weights (many ties, some negative), missing edges and
    // isolated vertices: the parent arrays must be equal, ties included.
    constexpr double inf = std::numeric_limits<double>::infinity();
    std::mt19937_64 rng(7);
    for (int trial = 0; trial < 2000; ++trial) {
        const std::size_t n = 1 + rng() % 12;
        const std::uint64_t missing = rng() % 4;  // out of 4
        std::vector<std::vector<double>> w(n, std::vector<double>(n, inf));
        std::vector<bool> isolated(n);
        for (std::size_t v = 0; v < n; ++v) isolated[v] = rng() % 8 == 0;
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) {
                if (isolated[i] || isolated[j] || rng() % 4 < missing) continue;
                w[i][j] = w[j][i] = static_cast<double>(rng() % 6) - 1.0;
            }
        }
        const std::size_t root = rng() % n;
        EXPECT_EQ(prim_over(w, root), prim_dense_oracle(w, root)) << "trial " << trial;
    }
}

TEST(PrimTest, MatchesDenseOracleOnDeepHeaps) {
    // Up to ~300 vertices put 7-8 levels in the heap, so decrease-key
    // sifts up and the pops sift down through many levels, under the
    // same ties as above (weights in {-1, ..., 4}) and missing edges.
    constexpr double inf = std::numeric_limits<double>::infinity();
    std::mt19937_64 rng(11);
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t n = 100 + rng() % 201;
        const std::uint64_t missing = rng() % 8;  // out of 8
        std::vector<std::vector<double>> w(n, std::vector<double>(n, inf));
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) {
                if (rng() % 8 < missing) continue;
                w[i][j] = w[j][i] = static_cast<double>(rng() % 6) - 1.0;
            }
        }
        const std::size_t root = rng() % n;
        EXPECT_EQ(prim_over(w, root), prim_dense_oracle(w, root))
            << "trial " << trial << ", n " << n;
    }
}

TEST(PrimTest, UnreachableVertexStaysRootless) {
    constexpr double inf = std::numeric_limits<double>::infinity();
    std::vector<std::vector<double>> w{{inf, 1.0, inf},
                                       {1.0, inf, inf},
                                       {inf, inf, inf}};
    const auto parent = prim_over(w, 0);
    EXPECT_EQ(parent[0], 0u);
    EXPECT_EQ(parent[1], 0u);
    EXPECT_EQ(parent[2], 2u);  // disconnected: parent == self
}

TEST(PrimTest, RejectsBadInput) {
    const auto none = [](std::size_t, auto&&) {};
    EXPECT_THROW((void)prim_mst(2, 5, none), std::out_of_range);
    const auto past_end = [](std::size_t, auto&& relax) { relax(2, 1.0); };
    EXPECT_THROW((void)prim_mst(2, 0, past_end), std::out_of_range);
}

TEST(SteinerTest, ShortSegmentNeedsNoRelays) {
    EXPECT_TRUE(steinerize_segment({0, 0}, {5, 0}, 10.0).empty());
    EXPECT_EQ(steiner_section_count({0, 0}, {5, 0}, 10.0), 1u);
}

TEST(SteinerTest, ExactMultipleDoesNotOverSplit) {
    // Length 30 with hop 10 -> exactly 3 sections, 2 interior points.
    const auto pts = steinerize_segment({0, 0}, {30, 0}, 10.0);
    ASSERT_EQ(pts.size(), 2u);
    EXPECT_NEAR(pts[0].x, 10.0, 1e-9);
    EXPECT_NEAR(pts[1].x, 20.0, 1e-9);
}

TEST(SteinerTest, SectionsAreEqualAndWithinHop) {
    const geom::Vec2 a{3.0, -7.0}, b{81.0, 44.0};
    const double hop = 13.0;
    const auto pts = steinerize_segment(a, b, hop);
    EXPECT_EQ(pts.size() + 1, steiner_section_count(a, b, hop));
    geom::Vec2 prev = a;
    double first = -1.0;
    for (const auto& p : pts) {
        const double seg = geom::distance(prev, p);
        EXPECT_LE(seg, hop + 1e-9);
        if (first < 0.0) first = seg;
        EXPECT_NEAR(seg, first, 1e-9);  // equal sections
        prev = p;
    }
    EXPECT_LE(geom::distance(prev, b), hop + 1e-9);
}

TEST(SteinerTest, RejectsNonPositiveHop) {
    EXPECT_THROW((void)steinerize_segment({0, 0}, {1, 0}, 0.0), std::invalid_argument);
}

/// Property: for random segments, steinerization uses the minimum number
/// of relays: ceil(len/hop) - 1.
class SteinerProperty : public ::testing::TestWithParam<double> {};

TEST_P(SteinerProperty, RelayCountIsMinimum) {
    std::mt19937_64 rng(17);
    std::uniform_real_distribution<double> coord(-400.0, 400.0);
    const double hop = GetParam();
    for (int trial = 0; trial < 100; ++trial) {
        const geom::Vec2 a{coord(rng), coord(rng)}, b{coord(rng), coord(rng)};
        const auto pts = steinerize_segment(a, b, hop);
        const double len = geom::distance(a, b);
        const auto expect =
            static_cast<std::size_t>(std::max(std::ceil(len / hop - 1e-9), 1.0)) - 1;
        EXPECT_EQ(pts.size(), expect) << "len=" << len << " hop=" << hop;
    }
}

INSTANTIATE_TEST_SUITE_P(HopLengths, SteinerProperty,
                         ::testing::Values(10.0, 30.0, 40.0, 75.0, 200.0));

}  // namespace
}  // namespace sag::graph
