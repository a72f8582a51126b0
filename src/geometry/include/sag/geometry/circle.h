#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "sag/geometry/vec2.h"

namespace sag::geom {

/// Geometric tolerance used throughout the library for containment and
/// tangency decisions. Coordinates in this codebase are O(1e3), so 1e-9
/// absolute slack is far below any physically meaningful distance.
inline constexpr double kEps = 1e-9;

/// A circle (and, where stated, the closed disk it bounds).
/// Subscriber "feasible coverage circles" (paper Table I, symbol c_i) are
/// Circles centered at the SS with radius equal to its distance request d_i.
struct Circle {
    Vec2 center;
    double radius = 0.0;

    constexpr Circle() = default;
    constexpr Circle(Vec2 c, double r) : center(c), radius(r) {}
    constexpr bool operator==(const Circle& o) const = default;

    /// True when `p` lies in the closed disk (with `eps` slack outward).
    bool contains(const Vec2& p, double eps = kEps) const {
        return distance_sq(center, p) <= (radius + eps) * (radius + eps);
    }
};

/// Intersection points of two circles' boundaries.
/// Returns 0 points when the circles are disjoint or one strictly contains
/// the other, 1 point when (nearly) tangent, 2 otherwise. Coincident
/// circles return 0 points (infinite intersection is not representable).
std::vector<Vec2> circle_intersections(const Circle& a, const Circle& b);

/// Axis-aligned rectangle [min.x, max.x] x [min.y, max.y].
struct Rect {
    Vec2 min;
    Vec2 max;

    constexpr double width() const { return max.x - min.x; }
    constexpr double height() const { return max.y - min.y; }
    constexpr Vec2 center() const { return {(min.x + max.x) / 2, (min.y + max.y) / 2}; }
    bool contains(const Vec2& p, double eps = kEps) const {
        return p.x >= min.x - eps && p.x <= max.x + eps &&
               p.y >= min.y - eps && p.y <= max.y + eps;
    }
    /// Square field of side `side` centered at the origin, matching the
    /// paper's plots which use axes [-side/2, side/2].
    static constexpr Rect centered_square(double side) {
        return {{-side / 2, -side / 2}, {side / 2, side / 2}};
    }
};

}  // namespace sag::geom
