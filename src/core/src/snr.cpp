#include "sag/core/snr.h"

#include <limits>

#include "sag/core/snr_field.h"
#include "sag/geometry/sweep.h"

namespace sag::core {

std::vector<double> coverage_snrs(const Scenario& scenario,
                                  std::span<const geom::Vec2> rs_positions,
                                  std::span<const double> powers,
                                  std::span<const ids::SsId> subs,
                                  ids::IdSpan<ids::SsId, const ids::RsId> assignment) {
    const SnrField field(scenario, rs_positions, powers, subs);
    std::vector<double> snrs(subs.size(), 0.0);
    for (const ids::SsId k : field.tracked_ids()) {
        snrs[k.index()] = field.snr_of(k, assignment[k]);
    }
    return snrs;
}

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

std::vector<double> coverage_snrs(const Scenario& scenario,
                                  std::span<const geom::Vec2> rs_positions,
                                  std::span<const double> powers,
                                  ids::IdSpan<ids::SsId, const ids::RsId> assignment) {
    const auto subs = ids::all_ids<ids::SsId>(scenario.subscriber_count());
    return coverage_snrs(scenario, rs_positions, powers, subs, assignment);
}

std::optional<ids::IdVec<ids::SsId, ids::RsId>> nearest_assignment(
    const Scenario& scenario, std::span<const geom::Vec2> rs_positions) {
    const auto subs = ids::all_ids<ids::SsId>(scenario.subscriber_count());
    return nearest_assignment(scenario, rs_positions, subs);
}

bool snr_feasible_at_max_power(const Scenario& scenario,
                               std::span<const geom::Vec2> rs_positions,
                               std::span<const ids::SsId> subs) {
    const auto assignment = nearest_assignment(scenario, rs_positions, subs);
    if (!assignment) return false;
    const SnrField field = SnrField::at_max_power(scenario, rs_positions, subs);
    return field.all_meet_threshold(*assignment, 0.0);
}

}  // namespace sag::core
