#include "sag/geometry/circle.h"

#include <cmath>
#include <ostream>

namespace sag::geom {

std::ostream& operator<<(std::ostream& os, const Vec2& v) {
    return os << '(' << v.x << ", " << v.y << ')';
}

std::vector<Vec2> circle_intersections(const Circle& a, const Circle& b) {
    const double d = distance(a.center, b.center);
    if (d <= kEps) return {};  // concentric (possibly coincident): none or infinite
    // No intersection when too far apart or one strictly inside the other.
    if (d > a.radius + b.radius + kEps) return {};
    if (d < std::abs(a.radius - b.radius) - kEps) return {};

    // Distance from a.center to the chord's foot along the center line.
    const double x = (d * d + a.radius * a.radius - b.radius * b.radius) / (2.0 * d);
    const double h_sq = a.radius * a.radius - x * x;
    const Vec2 dir = (b.center - a.center) / d;
    const Vec2 foot = a.center + dir * x;
    if (h_sq <= kEps) return {foot};  // tangent (internally or externally)

    const double h = std::sqrt(h_sq);
    const Vec2 perp{-dir.y, dir.x};
    return {foot + perp * h, foot - perp * h};
}

}  // namespace sag::geom
