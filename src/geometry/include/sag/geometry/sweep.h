#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "sag/geometry/circle.h"

namespace sag::geom {

/// The library's one neighbour index: disk indices sorted by center x.
/// Zone Partition, IAC candidates, nearest-RS assignment and the hitting
/// set sweep it in x; MBMC's candidate graph reads its y-strips. It holds
/// raw indices into the disk span it was built from, and every query
/// takes that same span. Centers must be finite and radii non-negative;
/// a radius may be infinite (every pair is then near).
struct SweepIndex {
    /// Disk indices in ascending center x, ties by index.
    std::vector<std::size_t> by_x;
    double max_radius = 0.0;
    /// Added to every window and distance bound. It dwarfs the relative
    /// rounding (2^-52) of the distances compared, so a window never drops
    /// a pair or a containment that the exact test behind it accepts.
    double slack = 0.0;
    /// Filled by strip_sweep_index only (empty otherwise): by_x cut into
    /// strips, runs of consecutive entries. Strip s is entries
    /// [strip_start[s], strip_start[s + 1]), and by_y holds each strip's
    /// run in ascending center y, ties by index.
    std::vector<std::size_t> strip_start;
    std::vector<std::size_t> by_y;
};

inline SweepIndex sweep_index(std::span<const Circle> disks) {
    SweepIndex index;
    index.by_x.resize(disks.size());
    std::iota(index.by_x.begin(), index.by_x.end(), std::size_t{0});
    std::sort(index.by_x.begin(), index.by_x.end(), [&](std::size_t a, std::size_t b) {
        const double xa = disks[a].center.x;
        const double xb = disks[b].center.x;
        return xa != xb ? xa < xb : a < b;
    });
    for (const Circle& d : disks) {
        index.max_radius = std::max(index.max_radius, d.radius);
    }
    index.slack = 1e-9 * (1.0 + index.max_radius);
    return index;
}

/// sweep_index plus y-strips for box_window. A strip starts at the first
/// entry not yet in one and takes every later entry whose center x lies
/// within the strip width of it. The width is the median finite radius,
/// the typical half-width of a window of a disk's own radius; with no
/// finite radius there is one strip. O(n log n).
inline SweepIndex strip_sweep_index(std::span<const Circle> disks) {
    SweepIndex index = sweep_index(disks);
    std::vector<double> finite;
    finite.reserve(disks.size());
    for (const Circle& d : disks) {
        if (std::isfinite(d.radius)) finite.push_back(d.radius);
    }
    double width = std::numeric_limits<double>::infinity();
    if (!finite.empty()) {
        const auto mid = finite.begin() + static_cast<std::ptrdiff_t>(finite.size() / 2);
        std::nth_element(finite.begin(), mid, finite.end());
        width = *mid;
    }
    const std::vector<std::size_t>& by_x = index.by_x;
    index.by_y = by_x;
    const auto y_order = [&](std::size_t a, std::size_t b) {
        const double ya = disks[a].center.y;
        const double yb = disks[b].center.y;
        return ya != yb ? ya < yb : a < b;
    };
    for (std::size_t a = 0; a < by_x.size();) {
        const double x0 = disks[by_x[a]].center.x;
        std::size_t b = a + 1;
        while (b < by_x.size() && disks[by_x[b]].center.x - x0 <= width) ++b;
        index.strip_start.push_back(a);
        std::sort(index.by_y.begin() + static_cast<std::ptrdiff_t>(a),
                  index.by_y.begin() + static_cast<std::ptrdiff_t>(b), y_order);
        a = b;
    }
    index.strip_start.push_back(by_x.size());
    return index;
}

/// Disk pairs (i < j) whose closed disks may meet, in ascending (i, j)
/// order: exactly the pairs whose center distance is at most
/// r_i + r_j + kEps + slack, found by sweeping the x-sorted centers.
inline std::vector<std::pair<std::size_t, std::size_t>> near_pairs(
    std::span<const Circle> disks, const SweepIndex& index) {
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    const std::vector<std::size_t>& by_x = index.by_x;
    for (std::size_t a = 0; a < by_x.size(); ++a) {
        const Circle& da = disks[by_x[a]];
        const double window = da.radius + index.max_radius + kEps + index.slack;
        for (std::size_t b = a + 1; b < by_x.size(); ++b) {
            const Circle& db = disks[by_x[b]];
            if (db.center.x - da.center.x > window) break;
            const double reach = da.radius + db.radius + kEps + index.slack;
            if (distance_sq(da.center, db.center) > reach * reach) continue;
            pairs.emplace_back(std::min(by_x[a], by_x[b]), std::max(by_x[a], by_x[b]));
        }
    }
    std::sort(pairs.begin(), pairs.end());
    return pairs;
}

/// The run of `index.by_x` whose centers lie within `reach` + slack of
/// `x` along the x axis: a superset of the disks whose centers lie within
/// `reach` of any point with abscissa `x`. `reach` must be non-negative;
/// the span views `index.by_x`.
inline std::span<const std::size_t> x_window(std::span<const Circle> disks,
                                             const SweepIndex& index, double x,
                                             double reach) {
    const double lo = x - reach - index.slack;
    const double hi = x + reach + index.slack;
    const std::vector<std::size_t>& by_x = index.by_x;
    const auto before = [&](std::size_t i) { return disks[i].center.x < lo; };
    const auto within = [&](std::size_t i) { return disks[i].center.x <= hi; };
    const auto first = std::partition_point(by_x.begin(), by_x.end(), before);
    return {first, std::partition_point(first, by_x.end(), within)};
}

/// Calls visit(i) for every disk i of a strip_sweep_index whose center
/// lies in the box [c.x - h, c.x + h] x [c.y - h, c.y + h], h = `reach`
/// + slack: a superset of the disks whose centers lie within `reach` of
/// `c`. Strips come in ascending x, each in ascending y; `reach` must be
/// non-negative. Returns the strip entries scanned: the y-run of the box
/// in every strip that meets its x-range, visited or not.
template <class Visit>
std::size_t box_window(std::span<const Circle> disks, const SweepIndex& index,
                       const Vec2& c, double reach, Visit&& visit) {
    const double x_lo = c.x - reach - index.slack;
    const double x_hi = c.x + reach + index.slack;
    const double y_lo = c.y - reach - index.slack;
    const double y_hi = c.y + reach + index.slack;
    const std::vector<std::size_t>& start = index.strip_start;
    const std::size_t strips = start.empty() ? 0 : start.size() - 1;
    const auto last_x = [&](std::size_t s) {
        return disks[index.by_x[start[s + 1] - 1]].center.x;
    };
    // The first strip whose last center reaches x_lo.
    std::size_t s = 0;
    for (std::size_t hi = strips; s < hi;) {
        const std::size_t mid = s + (hi - s) / 2;
        if (last_x(mid) < x_lo) {
            s = mid + 1;
        } else {
            hi = mid;
        }
    }
    std::size_t scanned = 0;
    for (; s < strips && disks[index.by_x[start[s]]].center.x <= x_hi; ++s) {
        const auto end = index.by_y.begin() + static_cast<std::ptrdiff_t>(start[s + 1]);
        auto it = std::partition_point(
            index.by_y.begin() + static_cast<std::ptrdiff_t>(start[s]), end,
            [&](std::size_t i) { return disks[i].center.y < y_lo; });
        for (; it != end && disks[*it].center.y <= y_hi; ++it) {
            ++scanned;
            const double x = disks[*it].center.x;
            if (x >= x_lo && x <= x_hi) visit(*it);
        }
    }
    return scanned;
}

}  // namespace sag::geom
