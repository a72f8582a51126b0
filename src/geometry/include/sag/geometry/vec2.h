#pragma once

#include <cmath>
#include <iosfwd>

namespace sag::geom {

/// A 2-D point / vector with value semantics. All planar positions in the
/// library (subscriber stations, base stations, relay candidates) use Vec2.
struct Vec2 {
    double x = 0.0;
    double y = 0.0;

    constexpr Vec2() = default;
    constexpr Vec2(double x_, double y_) : x(x_), y(y_) {}

    constexpr Vec2 operator+(const Vec2& o) const { return {x + o.x, y + o.y}; }
    constexpr Vec2 operator-(const Vec2& o) const { return {x - o.x, y - o.y}; }
    constexpr Vec2 operator*(double s) const { return {x * s, y * s}; }
    constexpr Vec2 operator/(double s) const { return {x / s, y / s}; }
    constexpr Vec2& operator+=(const Vec2& o) { x += o.x; y += o.y; return *this; }
    constexpr Vec2& operator-=(const Vec2& o) { x -= o.x; y -= o.y; return *this; }
    constexpr Vec2& operator*=(double s) { x *= s; y *= s; return *this; }
    constexpr bool operator==(const Vec2& o) const = default;

    constexpr double norm_sq() const { return x * x + y * y; }
    double norm() const { return std::hypot(x, y); }

    /// Unit vector in the same direction; returns {1,0} for the zero vector.
    Vec2 normalized() const {
        const double n = norm();
        return n > 0.0 ? Vec2{x / n, y / n} : Vec2{1.0, 0.0};
    }
};

constexpr Vec2 operator*(double s, const Vec2& v) { return v * s; }

inline double distance(const Vec2& a, const Vec2& b) { return (a - b).norm(); }
inline constexpr double distance_sq(const Vec2& a, const Vec2& b) { return (a - b).norm_sq(); }

/// Linear interpolation: t=0 -> a, t=1 -> b.
inline constexpr Vec2 lerp(const Vec2& a, const Vec2& b, double t) {
    return a + (b - a) * t;
}

std::ostream& operator<<(std::ostream& os, const Vec2& v);

}  // namespace sag::geom
