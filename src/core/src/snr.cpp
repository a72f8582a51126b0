#include "sag/core/snr.h"

#include <limits>

#include "sag/geometry/sweep.h"

namespace sag::core {

std::optional<ids::IdVec<ids::SsId, ids::RsId>> nearest_assignment(
    const Scenario& scenario, std::span<const geom::Vec2> rs_positions,
    std::span<const ids::SsId> subs) {
    std::vector<geom::Circle> stations;
    stations.reserve(rs_positions.size());
    for (const geom::Vec2& p : rs_positions) stations.emplace_back(p, 0.0);
    const geom::SweepIndex index = geom::sweep_index(stations);

    ids::IdVec<ids::SsId, ids::RsId> assignment(subs.size());
    for (std::size_t k = 0; k < subs.size(); ++k) {
        const Subscriber& s = scenario.subscriber(subs[k]);
        const double reach = s.distance_request + geom::kEps;
        // The window scans in x order: ties go to the lower RS index.
        std::size_t best = rs_positions.size();
        double best_dist = std::numeric_limits<double>::infinity();
        for (const std::size_t i : geom::x_window(stations, index, s.pos.x, reach)) {
            const double d = geom::distance(rs_positions[i], s.pos);
            if (d <= reach && (d < best_dist || (d == best_dist && i < best))) {
                best = i;
                best_dist = d;
            }
        }
        if (best == rs_positions.size()) return std::nullopt;
        assignment[ids::SsId{k}] = ids::RsId{best};
    }
    return assignment;
}

std::optional<ids::IdVec<ids::SsId, ids::RsId>> nearest_assignment(
    const Scenario& scenario, std::span<const geom::Vec2> rs_positions) {
    const auto subs = ids::all_ids<ids::SsId>(scenario.subscriber_count());
    return nearest_assignment(scenario, rs_positions, subs);
}

}  // namespace sag::core
