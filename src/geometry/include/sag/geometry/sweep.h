#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "sag/geometry/circle.h"

namespace sag::geom {

/// The library's one neighbour index: disk indices sorted by center x.
/// Zone Partition, IAC candidates, nearest-RS assignment and the hitting
/// set all sweep it. It holds raw indices into the disk span it was built
/// from, and every query takes that same span. Centers must be finite and
/// radii non-negative; a radius may be infinite (every pair is then near).
struct SweepIndex {
    /// Disk indices in ascending center x, ties by index.
    std::vector<std::size_t> by_x;
    double max_radius = 0.0;
    /// Added to every x-window and distance bound. It dwarfs the relative
    /// rounding (2^-52) of the distances compared, so a window never drops
    /// a pair or a containment that the exact test behind it accepts.
    double slack = 0.0;
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

}  // namespace sag::geom
