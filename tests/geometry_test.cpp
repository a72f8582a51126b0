#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sag/geometry/circle.h"
#include "sag/geometry/grid.h"
#include "sag/geometry/region.h"
#include "sag/geometry/sweep.h"
#include "sag/geometry/vec2.h"

namespace sag::geom {
namespace {

/// True when `p` lies on the boundary of `c` within `eps`.
bool on_circle(const Circle& c, const Vec2& p, double eps) {
    return std::abs(distance(c.center, p) - c.radius) <= eps;
}

/// True when the closed disks of `a` and `b` share a point.
bool disks_overlap(const Circle& a, const Circle& b) {
    return distance(a.center, b.center) <= a.radius + b.radius;
}

TEST(Vec2Test, ArithmeticOperators) {
    const Vec2 a{1.0, 2.0}, b{3.0, -4.0};
    EXPECT_EQ(a + b, (Vec2{4.0, -2.0}));
    EXPECT_EQ(a - b, (Vec2{-2.0, 6.0}));
    EXPECT_EQ(a * 2.0, (Vec2{2.0, 4.0}));
    EXPECT_EQ(2.0 * a, (Vec2{2.0, 4.0}));
    EXPECT_EQ(b / 2.0, (Vec2{1.5, -2.0}));
}

TEST(Vec2Test, CompoundAssignment) {
    Vec2 v{1.0, 1.0};
    v += {2.0, 3.0};
    EXPECT_EQ(v, (Vec2{3.0, 4.0}));
    v -= {1.0, 1.0};
    EXPECT_EQ(v, (Vec2{2.0, 3.0}));
    v *= 2.0;
    EXPECT_EQ(v, (Vec2{4.0, 6.0}));
}

TEST(Vec2Test, NormAndDistance) {
    const Vec2 v{3.0, 4.0};
    EXPECT_DOUBLE_EQ(v.norm(), 5.0);
    EXPECT_DOUBLE_EQ(v.norm_sq(), 25.0);
    EXPECT_DOUBLE_EQ(distance({0.0, 0.0}, v), 5.0);
    EXPECT_DOUBLE_EQ(distance_sq({1.0, 1.0}, {4.0, 5.0}), 25.0);
}

TEST(Vec2Test, NormalizedUnitLength) {
    const Vec2 v{3.0, 4.0};
    EXPECT_NEAR(v.normalized().norm(), 1.0, 1e-12);
    // Zero vector normalizes to a deterministic unit vector, not NaN.
    EXPECT_EQ((Vec2{0.0, 0.0}).normalized(), (Vec2{1.0, 0.0}));
}

TEST(Vec2Test, LerpEndpointsAndMidpoint) {
    const Vec2 a{0.0, 0.0}, b{10.0, -6.0};
    EXPECT_EQ(lerp(a, b, 0.0), a);
    EXPECT_EQ(lerp(a, b, 1.0), b);
    EXPECT_EQ(lerp(a, b, 0.5), (Vec2{5.0, -3.0}));
}

TEST(CircleTest, ContainsInteriorBoundaryExterior) {
    const Circle c{{0.0, 0.0}, 5.0};
    EXPECT_TRUE(c.contains({1.0, 1.0}));
    EXPECT_TRUE(c.contains({5.0, 0.0}));            // boundary
    EXPECT_TRUE(c.contains({5.0 + 1e-10, 0.0}));    // inside eps slack
    EXPECT_FALSE(c.contains({5.1, 0.0}));
}

TEST(CircleIntersectionTest, DisjointCirclesNoIntersection) {
    EXPECT_TRUE(circle_intersections({{0, 0}, 1.0}, {{10, 0}, 2.0}).empty());
}

TEST(CircleIntersectionTest, ContainedCircleNoIntersection) {
    EXPECT_TRUE(circle_intersections({{0, 0}, 10.0}, {{1, 0}, 2.0}).empty());
}

TEST(CircleIntersectionTest, ConcentricCirclesNoIntersection) {
    EXPECT_TRUE(circle_intersections({{0, 0}, 2.0}, {{0, 0}, 2.0}).empty());
    EXPECT_TRUE(circle_intersections({{0, 0}, 2.0}, {{0, 0}, 3.0}).empty());
}

TEST(CircleIntersectionTest, ExternallyTangentSinglePoint) {
    const auto pts = circle_intersections({{0, 0}, 2.0}, {{5, 0}, 3.0});
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_NEAR(pts[0].x, 2.0, 1e-9);
    EXPECT_NEAR(pts[0].y, 0.0, 1e-9);
}

TEST(CircleIntersectionTest, InternallyTangentSinglePoint) {
    const auto pts = circle_intersections({{0, 0}, 5.0}, {{2, 0}, 3.0});
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_NEAR(pts[0].x, 5.0, 1e-9);
}

TEST(CircleIntersectionTest, TwoPointsSymmetricAboutCenterLine) {
    const Circle a{{0, 0}, 5.0}, b{{6, 0}, 5.0};
    const auto pts = circle_intersections(a, b);
    ASSERT_EQ(pts.size(), 2u);
    EXPECT_NEAR(pts[0].x, 3.0, 1e-9);
    EXPECT_NEAR(pts[1].x, 3.0, 1e-9);
    EXPECT_NEAR(pts[0].y, -pts[1].y, 1e-9);
    EXPECT_NEAR(pts[0].y * pts[0].y, 16.0, 1e-6);  // 5^2 - 3^2
}

/// Property sweep: intersection points of random circle pairs lie on both
/// boundaries.
class CircleIntersectionProperty : public ::testing::TestWithParam<int> {};

TEST_P(CircleIntersectionProperty, PointsLieOnBothCircles) {
    std::mt19937_64 rng(GetParam());
    std::uniform_real_distribution<double> coord(-100.0, 100.0);
    std::uniform_real_distribution<double> radius(1.0, 60.0);
    for (int trial = 0; trial < 100; ++trial) {
        const Circle a{{coord(rng), coord(rng)}, radius(rng)};
        const Circle b{{coord(rng), coord(rng)}, radius(rng)};
        for (const Vec2& p : circle_intersections(a, b)) {
            EXPECT_TRUE(on_circle(a, p, 1e-5)) << "on a, trial " << trial;
            EXPECT_TRUE(on_circle(b, p, 1e-5)) << "on b, trial " << trial;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CircleIntersectionProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(RectTest, GeometryAccessors) {
    const Rect r{{-10.0, -20.0}, {30.0, 20.0}};
    EXPECT_DOUBLE_EQ(r.width(), 40.0);
    EXPECT_DOUBLE_EQ(r.height(), 40.0);
    EXPECT_EQ(r.center(), (Vec2{10.0, 0.0}));
    EXPECT_TRUE(r.contains({0.0, 0.0}));
    EXPECT_TRUE(r.contains({30.0, 20.0}));
    EXPECT_FALSE(r.contains({31.0, 0.0}));
}

TEST(RectTest, CenteredSquareMatchesPaperAxes) {
    const Rect r = Rect::centered_square(600.0);
    EXPECT_EQ(r.min, (Vec2{-300.0, -300.0}));
    EXPECT_EQ(r.max, (Vec2{300.0, 300.0}));
}

TEST(GridTest, CountsAndContainment) {
    const Rect field = Rect::centered_square(100.0);
    const auto centers = grid_centers(field, 10.0);
    EXPECT_EQ(centers.size(), 100u);
    for (const Vec2& p : centers) EXPECT_TRUE(field.contains(p));
}

TEST(GridTest, NonDividingCellSizeCoversWholeField) {
    const Rect field = Rect::centered_square(100.0);
    const auto centers = grid_centers(field, 30.0);  // 100/30 -> 4 cells/axis
    EXPECT_EQ(centers.size(), 16u);
    for (const Vec2& p : centers) EXPECT_TRUE(field.contains(p));
    // Every field point is within half a cell diagonal of some center.
    std::mt19937_64 rng(99);
    std::uniform_real_distribution<double> coord(-50.0, 50.0);
    const double max_gap = 30.0 * std::sqrt(2.0) / 2.0 + 1e-9;
    for (int trial = 0; trial < 200; ++trial) {
        const Vec2 q{coord(rng), coord(rng)};
        double best = 1e18;
        for (const Vec2& p : centers) best = std::min(best, distance(p, q));
        EXPECT_LE(best, max_gap);
    }
}

TEST(GridTest, RejectsNonPositiveCellSize) {
    const Rect field = Rect::centered_square(10.0);
    EXPECT_THROW((void)grid_centers(field, 0.0), std::invalid_argument);
    EXPECT_THROW((void)grid_centers(field, -1.0), std::invalid_argument);
}

TEST(RegionTest, SingleDiskReturnsPointInside) {
    const Circle disks[] = {{{3.0, 4.0}, 2.0}};
    const auto p = common_point_of_disks(disks);
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(disks[0].contains(*p, 1e-6));
}

TEST(RegionTest, EmptyFamilyIsTriviallyCommon) {
    EXPECT_TRUE(common_point_of_disks({}).has_value());
}

TEST(RegionTest, TwoOverlappingDisks) {
    const Circle disks[] = {{{0, 0}, 5.0}, {{6, 0}, 5.0}};
    const auto p = common_point_of_disks(disks);
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(disks[0].contains(*p, 1e-6));
    EXPECT_TRUE(disks[1].contains(*p, 1e-6));
}

TEST(RegionTest, DisjointDisksHaveNoCommonPoint) {
    const Circle disks[] = {{{0, 0}, 1.0}, {{10, 0}, 1.0}};
    EXPECT_FALSE(common_point_of_disks(disks).has_value());
}

TEST(RegionTest, ThreeDisksSharingLensCorner) {
    // Three unit-ish disks arranged so the intersection is small but real.
    const Circle disks[] = {{{0, 0}, 2.0}, {{3, 0}, 2.0}, {{1.5, 2.0}, 2.0}};
    const auto p = common_point_of_disks(disks);
    ASSERT_TRUE(p.has_value());
    for (const Circle& d : disks) EXPECT_TRUE(d.contains(*p, 1e-6));
}

TEST(RegionTest, ThreePairwiseOverlappingButNoCommonPoint) {
    // Classic Helly counterexample: pairwise lenses, empty triple.
    const Circle disks[] = {{{0, 0}, 1.05}, {{2, 0}, 1.05}, {{1, 1.7}, 1.05}};
    EXPECT_TRUE(disks_overlap(disks[0], disks[1]));
    EXPECT_TRUE(disks_overlap(disks[0], disks[2]));
    EXPECT_TRUE(disks_overlap(disks[1], disks[2]));
    EXPECT_FALSE(common_point_of_disks(disks).has_value());
}

TEST(RegionTest, DeepestPointOfConcentricFamilyIsCenter) {
    const Circle disks[] = {{{5, 5}, 3.0}, {{5, 5}, 2.0}, {{5, 5}, 1.0}};
    const auto w = deepest_point_of_disks(disks);
    EXPECT_LE(w.violation, -0.9);  // ~ -1 (deepest point = common center)
    EXPECT_NEAR(w.point.x, 5.0, 0.1);
    EXPECT_NEAR(w.point.y, 5.0, 0.1);
}

/// Property: whenever all random disks contain a known witness point, the
/// solver must find some common point.
class RegionProperty : public ::testing::TestWithParam<int> {};

TEST_P(RegionProperty, FindsCommonPointWhenWitnessExists) {
    std::mt19937_64 rng(GetParam());
    std::uniform_real_distribution<double> coord(-50.0, 50.0);
    std::uniform_real_distribution<double> extra(0.1, 30.0);
    for (int trial = 0; trial < 60; ++trial) {
        const Vec2 witness{coord(rng), coord(rng)};
        std::vector<Circle> disks;
        for (int i = 0; i < 6; ++i) {
            const Vec2 center{coord(rng), coord(rng)};
            disks.push_back({center, distance(center, witness) + extra(rng)});
        }
        const auto p = common_point_of_disks(disks);
        ASSERT_TRUE(p.has_value()) << "trial " << trial;
        for (const Circle& d : disks) {
            EXPECT_TRUE(d.contains(*p, 1e-5)) << "trial " << trial;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionProperty, ::testing::Values(11, 22, 33, 44));

// ---- Neighbour sweep ------------------------------------------------------

using Pairs = std::vector<std::pair<std::size_t, std::size_t>>;

Pairs sweep_pairs(std::span<const Circle> disks) {
    return near_pairs(disks, sweep_index(disks));
}

std::vector<std::size_t> window(std::span<const Circle> disks, double x, double reach) {
    const SweepIndex index = sweep_index(disks);
    const std::span<const std::size_t> w = x_window(disks, index, x, reach);
    return {w.begin(), w.end()};
}

TEST(SweepTest, EmptyInput) {
    const SweepIndex index = sweep_index({});
    EXPECT_TRUE(index.by_x.empty());
    EXPECT_TRUE(near_pairs({}, index).empty());
    EXPECT_TRUE(x_window({}, index, 0.0, 100.0).empty());
}

TEST(SweepTest, PairsEachReportedOnceSorted) {
    // Given out of x order: the pairs still come back as ascending (i < j).
    const Circle disks[] = {{{6, 0}, 1.75}, {{0, 0}, 1.75}, {{3, 0}, 1.75}};
    EXPECT_EQ(sweep_index(disks).by_x, (std::vector<std::size_t>{1, 2, 0}));
    EXPECT_EQ(sweep_pairs(disks), (Pairs{{0, 2}, {1, 2}}));
}

TEST(SweepTest, InclusiveBoundary) {
    // 0 and 1 are externally tangent; 1 and 2 miss by 0.01.
    const Circle disks[] = {{{0, 0}, 4.0}, {{10, 0}, 6.0}, {{20, 0}, 3.99}};
    EXPECT_EQ(sweep_pairs(disks), (Pairs{{0, 1}}));
    EXPECT_EQ(window(disks, 5.0, 5.0), (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(window(disks, 5.0, 4.99), (std::vector<std::size_t>{}));
    EXPECT_EQ(window(disks, 10.0, 0.0), (std::vector<std::size_t>{1}));
    // Apart by less than kEps past tangency still counts as near.
    const Circle grazing[] = {{{0, 0}, 4.0}, {{10.0 + 5e-10, 0}, 6.0}};
    EXPECT_EQ(sweep_pairs(grazing), (Pairs{{0, 1}}));
}

TEST(SweepTest, NegativeCoordinates) {
    const Circle disks[] = {{{-100, -100}, 3.0}, {{-95, -100}, 3.0}, {{100, 100}, 3.0}};
    EXPECT_EQ(sweep_pairs(disks), (Pairs{{0, 1}}));
    EXPECT_EQ(window(disks, -100.0, 6.0), (std::vector<std::size_t>{0, 1}));
}

/// Property: near_pairs is exactly the brute-force double loop over the
/// documented bound, and every x_window holds the disks within reach
/// along x and nothing beyond reach + slack.
class SweepProperty : public ::testing::TestWithParam<int> {};

TEST_P(SweepProperty, MatchesBruteForce) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::mt19937_64 rng(GetParam());
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    struct Family {
        int n;
        double side;     ///< centers uniform in a square of this side,
        double offset;   ///< shifted by this along both axes,
        double lattice;  ///< and snapped to a lattice of this pitch (0: off)
        double r_min;    ///< radii uniform in [r_min, r_max]
        double r_max;
    };
    const Family families[] = {
        {200, 1000.0, 0.0, 0.0, 0.0, 40.0},
        {200, 1000.0, 0.0, 0.0, 80.0, 80.0},
        // Duplicate centers, and radius 5 makes lattice neighbours
        // exactly tangent.
        {150, 100.0, 0.0, 10.0, 5.0, 5.0},
        {200, 1000.0, -2000.0, 0.0, 30.0, 40.0},  // every coordinate negative
        {200, 200.0, 0.0, 10.0, 0.0, 0.0},        // points: only duplicates pair
        {60, 1000.0, 0.0, 0.0, kInf, kInf},       // every pair is near
        {0, 1000.0, 0.0, 0.0, 0.0, 0.0},
    };
    for (std::size_t f = 0; f < std::size(families); ++f) {
        const Family& fam = families[f];
        std::vector<Circle> disks;
        for (int i = 0; i < fam.n; ++i) {
            Vec2 c{(unit(rng) - 0.5) * fam.side + fam.offset,
                   (unit(rng) - 0.5) * fam.side + fam.offset};
            if (fam.lattice > 0.0) {
                c = {fam.lattice * std::round(c.x / fam.lattice),
                     fam.lattice * std::round(c.y / fam.lattice)};
            }
            const double r = fam.r_min == fam.r_max
                                 ? fam.r_min
                                 : fam.r_min + (fam.r_max - fam.r_min) * unit(rng);
            disks.push_back({c, r});
        }
        const SweepIndex index = sweep_index(disks);
        Pairs brute;
        for (std::size_t i = 0; i < disks.size(); ++i) {
            for (std::size_t j = i + 1; j < disks.size(); ++j) {
                const double reach =
                    disks[i].radius + disks[j].radius + kEps + index.slack;
                if (distance_sq(disks[i].center, disks[j].center) <= reach * reach) {
                    brute.emplace_back(i, j);
                }
            }
        }
        EXPECT_EQ(near_pairs(disks, index), brute) << "family " << f;

        // Probes at random abscissas and at a window edge on a center.
        std::vector<std::pair<double, double>> probes;
        for (const double reach : {0.0, 12.0, 80.0, 400.0}) {
            probes.emplace_back((unit(rng) - 0.5) * fam.side + fam.offset, reach);
            if (!disks.empty()) {
                const double edge = disks[rng() % disks.size()].center.x + reach;
                probes.emplace_back(edge, reach);
            }
        }
        for (const auto& [x, reach] : probes) {
            const std::span<const std::size_t> w = x_window(disks, index, x, reach);
            std::vector<std::size_t> in_window(w.begin(), w.end());
            for (const std::size_t i : in_window) {
                EXPECT_LE(std::abs(disks[i].center.x - x), reach + 2.0 * index.slack)
                    << "family " << f << " reach " << reach;
            }
            std::sort(in_window.begin(), in_window.end());
            for (std::size_t i = 0; i < disks.size(); ++i) {
                if (std::abs(disks[i].center.x - x) <= reach) {
                    EXPECT_TRUE(
                        std::binary_search(in_window.begin(), in_window.end(), i))
                        << "family " << f << " reach " << reach << " disk " << i;
                }
            }
        }
    }
}

/// Property: after the caller's exact test (center within reach + slack
/// of the probe), a box_window yields exactly the brute-force set; it
/// visits every center of the box [c +- reach] x [c +- reach], each once,
/// and nothing outside the box widened by twice the slack. Random fields,
/// duplicate centers, negative coordinates, zero radii, one infinite
/// radius, one disk and none.
TEST_P(SweepProperty, BoxWindowMatchesBruteForce) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::mt19937_64 rng(GetParam());
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    struct Family {
        int n;
        double side;     ///< centers uniform in a square of this side,
        double offset;   ///< shifted by this along both axes,
        double lattice;  ///< and snapped to a lattice of this pitch (0: off)
        double r_max;    ///< radii uniform in [0, r_max]
        bool one_infinite;  ///< disk 0's radius is infinite
    };
    const Family families[] = {
        {300, 1000.0, 0.0, 0.0, 60.0, false},
        {200, 100.0, 0.0, 10.0, 5.0, false},         // duplicate centers
        {250, 1000.0, -2000.0, 0.0, 40.0, false},    // every coordinate negative
        {200, 200.0, 0.0, 10.0, 0.0, false},         // zero radii: one strip per x
        {150, 1000.0, 0.0, 0.0, 80.0, true},         // one infinite radius
        {1, 1000.0, 0.0, 0.0, 10.0, false},
        {0, 1000.0, 0.0, 0.0, 10.0, false},
    };
    for (std::size_t f = 0; f < std::size(families); ++f) {
        const Family& fam = families[f];
        std::vector<Circle> disks;
        for (int i = 0; i < fam.n; ++i) {
            Vec2 c{(unit(rng) - 0.5) * fam.side + fam.offset,
                   (unit(rng) - 0.5) * fam.side + fam.offset};
            if (fam.lattice > 0.0) {
                c = {fam.lattice * std::round(c.x / fam.lattice),
                     fam.lattice * std::round(c.y / fam.lattice)};
            }
            disks.push_back({c, fam.r_max * unit(rng)});
        }
        if (fam.one_infinite) disks[0].radius = kInf;
        const SweepIndex index = strip_sweep_index(disks);
        ASSERT_EQ(index.by_x, sweep_index(disks).by_x) << "family " << f;
        ASSERT_EQ(index.by_y.size(), disks.size()) << "family " << f;
        ASSERT_EQ(index.strip_start.back(), disks.size()) << "family " << f;

        // Probes at random points and on centers, with each disk's own
        // radius as MBMC uses it and with fixed reaches.
        std::vector<std::pair<Vec2, double>> probes;
        for (const double reach : {0.0, 12.0, 80.0, 400.0}) {
            probes.emplace_back(Vec2{(unit(rng) - 0.5) * fam.side + fam.offset,
                                     (unit(rng) - 0.5) * fam.side + fam.offset},
                                reach);
        }
        for (std::size_t i = 0; i < disks.size(); i += 7) {
            probes.emplace_back(disks[i].center, disks[i].radius);
        }
        for (const auto& [c, reach] : probes) {
            SCOPED_TRACE(::testing::Message() << "family " << f << " probe (" << c.x
                                              << ", " << c.y << ") reach " << reach);
            const double r = reach + index.slack;
            std::vector<std::size_t> visited;
            std::vector<std::size_t> kept;
            const std::size_t scanned =
                box_window(disks, index, c, reach, [&](std::size_t i) {
                    visited.push_back(i);
                    if (distance_sq(disks[i].center, c) <= r * r) kept.push_back(i);
                });
            EXPECT_GE(scanned, visited.size());
            std::sort(visited.begin(), visited.end());
            EXPECT_EQ(std::adjacent_find(visited.begin(), visited.end()), visited.end());
            std::sort(kept.begin(), kept.end());
            std::vector<std::size_t> brute;
            for (std::size_t i = 0; i < disks.size(); ++i) {
                const Vec2 d = disks[i].center - c;
                if (distance_sq(disks[i].center, c) <= r * r) brute.push_back(i);
                if (std::abs(d.x) <= reach && std::abs(d.y) <= reach) {
                    EXPECT_TRUE(std::binary_search(visited.begin(), visited.end(), i))
                        << "disk " << i;
                }
            }
            EXPECT_EQ(kept, brute);
            for (const std::size_t i : visited) {
                EXPECT_LE(std::abs(disks[i].center.x - c.x), reach + 2.0 * index.slack);
                EXPECT_LE(std::abs(disks[i].center.y - c.y), reach + 2.0 * index.slack);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SweepProperty, ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace sag::geom
