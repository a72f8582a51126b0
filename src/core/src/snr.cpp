#include "sag/core/snr.h"

#include <limits>

#include "sag/core/snr_field.h"
#include "sag/geometry/spatial_grid.h"

namespace sag::core {

namespace {

/// Below this RS count a linear scan beats building a hash grid.
constexpr std::size_t kGridLookupThreshold = 32;

/// Nearest in-range RS for one subscriber among `candidates` (ascending
/// ID order, strict < keeps the lowest ID on ties — identical semantics
/// to the linear scan). invalid() signals no RS in range.
template <typename Candidates>
ids::RsId nearest_in_range(const Subscriber& s,
                           std::span<const geom::Vec2> rs_positions,
                           const Candidates& candidates) {
    ids::RsId best = ids::RsId::invalid();
    double best_dist = std::numeric_limits<double>::infinity();
    for (const ids::RsId i : candidates) {
        const double d = geom::distance(rs_positions[i.index()], s.pos);
        if (d <= s.distance_request + geom::kEps && d < best_dist) {
            best = i;
            best_dist = d;
        }
    }
    return best;
}

}  // namespace

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
    ids::IdVec<ids::SsId, ids::RsId> assignment(subs.size());

    if (rs_positions.size() >= kGridLookupThreshold) {
        double max_reach = 0.0;
        for (const ids::SsId j : subs) {
            max_reach =
                std::max(max_reach, scenario.subscriber(j).distance_request);
        }
        if (max_reach > 0.0) {
            const geom::SpatialGridT<ids::RsId> grid(
                {rs_positions.begin(), rs_positions.end()}, max_reach);
            for (std::size_t k = 0; k < subs.size(); ++k) {
                const Subscriber& s = scenario.subscriber(subs[k]);
                const ids::RsId best = nearest_in_range(
                    s, rs_positions,
                    grid.query_radius(s.pos, s.distance_request + geom::kEps));
                if (!best.valid()) return std::nullopt;
                assignment[ids::SsId{k}] = best;
            }
            return assignment;
        }
    }

    const auto every_rs = ids::first_ids<ids::RsId>(rs_positions.size());
    for (std::size_t k = 0; k < subs.size(); ++k) {
        const Subscriber& s = scenario.subscriber(subs[k]);
        const ids::RsId best = nearest_in_range(s, rs_positions, every_rs);
        if (!best.valid()) return std::nullopt;
        assignment[ids::SsId{k}] = best;
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
