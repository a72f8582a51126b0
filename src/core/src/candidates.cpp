#include "sag/core/candidates.h"

#include <algorithm>

#include "sag/geometry/grid.h"
#include "sag/geometry/sweep.h"

namespace sag::core {

std::vector<geom::Vec2> iac_candidates(const Scenario& scenario) {
    const auto circles = scenario.feasible_circles();
    std::vector<geom::Vec2> candidates;
    std::vector<bool> isolated(circles.size(), true);

    // Only circles whose disks meet can intersect; circle_intersections
    // decides which near pairs do.
    for (const auto& [i, j] : geom::near_pairs(circles, geom::sweep_index(circles))) {
        const auto pts = geom::circle_intersections(circles[i], circles[j]);
        if (!pts.empty()) isolated[i] = isolated[j] = false;
        candidates.insert(candidates.end(), pts.begin(), pts.end());
    }
    for (std::size_t i = 0; i < circles.size(); ++i) {
        if (isolated[i]) candidates.push_back(circles[i].center);
    }
    return candidates;
}

std::vector<geom::Vec2> gac_candidates(const Scenario& scenario, double grid_size) {
    return geom::grid_centers(scenario.field, grid_size);
}

std::vector<geom::Vec2> prune_useless_candidates(const Scenario& scenario,
                                                 std::vector<geom::Vec2> candidates) {
    const auto circles = scenario.feasible_circles();
    std::erase_if(candidates, [&](const geom::Vec2& p) {
        return std::none_of(circles.begin(), circles.end(),
                            [&](const geom::Circle& c) { return c.contains(p, 1e-6); });
    });
    return candidates;
}

}  // namespace sag::core
