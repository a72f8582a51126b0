#include "sag/core/zone_partition.h"

#include <algorithm>

#include "sag/geometry/sweep.h"
#include "sag/graph/graph.h"

namespace sag::core {

double zone_partition_dmax(const Scenario& scenario) {
    return scenario.range_for(scenario.rs_max_power(), scenario.radio.ignorable_noise)
        .meters();
}

ids::IdVec<ids::ZoneId, std::vector<ids::SsId>> zone_partition(
    const Scenario& scenario) {
    const double dmax = zone_partition_dmax(scenario);
    const std::size_t n = scenario.subscriber_count();

    // d_eff <= dmax implies dist(s_i, s_j) <= dmax + max(d_i, d_j), so the
    // disks of radius d_j + dmax/2 around the subscribers meet for every
    // such pair; the exact d_eff test filters the near pairs.
    std::vector<geom::Circle> reach;
    reach.reserve(n);
    for (const Subscriber& s : scenario.subscribers) {
        reach.emplace_back(s.pos, s.distance_request + dmax / 2.0);
    }

    // The graph layer is entity-agnostic: subscribers cross into it
    // as raw vertex indices and the components come back out retyped.
    graph::Graph g(n);
    for (const auto& [i, j] : geom::near_pairs(reach, geom::sweep_index(reach))) {
        const Subscriber& si = scenario.subscribers[i];
        const Subscriber& sj = scenario.subscribers[j];
        const double dist = geom::distance(si.pos, sj.pos);
        // d_eff: worst-case gap between a station serving one SS and the
        // other SS (an RS may stand d_i inside s_i's circle).
        const double d_eff =
            std::min(dist - si.distance_request, dist - sj.distance_request);
        if (d_eff <= dmax) g.add_edge(i, j);
    }

    ids::IdVec<ids::ZoneId, std::vector<ids::SsId>> zones;
    for (std::vector<std::size_t>& comp : g.connected_components()) {
        std::vector<ids::SsId> members;
        members.reserve(comp.size());
        for (const std::size_t v : comp) members.push_back(ids::SsId{v});
        zones.push_back(std::move(members));
    }
    return zones;
}

}  // namespace sag::core
