#include "sag/core/zone_partition.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "sag/geometry/sweep.h"

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

    // The graph's edges, ascending, compacted in place; start[v + 1]
    // counts v's edges.
    std::vector<std::pair<std::size_t, std::size_t>> edges =
        geom::near_pairs(reach, geom::sweep_index(reach));
    std::vector<std::size_t> start(n + 1, 0);
    std::size_t kept = 0;
    for (const auto& [i, j] : edges) {
        const Subscriber& si = scenario.subscribers[i];
        const Subscriber& sj = scenario.subscribers[j];
        const double dist = geom::distance(si.pos, sj.pos);
        // d_eff: worst-case gap between a station serving one SS and the
        // other SS (an RS may stand d_i inside s_i's circle).
        const double d_eff =
            std::min(dist - si.distance_request, dist - sj.distance_request);
        if (d_eff <= dmax) {
            edges[kept++] = {i, j};
            ++start[i + 1];
            ++start[j + 1];
        }
    }
    edges.resize(kept);

    // CSR adjacency filled in edge order: v's neighbours below v come from
    // the edges (i, v), i ascending, before those above it from (v, j), so
    // every list ascends.
    std::partial_sum(start.begin(), start.end(), start.begin());
    std::vector<std::size_t> adj(start[n]);
    std::vector<std::size_t> next(start.begin(), start.end() - 1);
    for (const auto& [i, j] : edges) {
        adj[next[i]++] = j;
        adj[next[j]++] = i;
    }

    // Components by BFS from each unvisited SS in ascending order; the
    // member list is the queue.
    ids::IdVec<ids::ZoneId, std::vector<ids::SsId>> zones;
    std::vector<bool> seen(n, false);
    for (std::size_t first = 0; first < n; ++first) {
        if (seen[first]) continue;
        seen[first] = true;
        std::vector<ids::SsId> members{ids::SsId{first}};
        for (std::size_t head = 0; head < members.size(); ++head) {
            const std::size_t v = members[head].index();
            for (std::size_t e = start[v]; e < start[v + 1]; ++e) {
                if (!seen[adj[e]]) {
                    seen[adj[e]] = true;
                    members.push_back(ids::SsId{adj[e]});
                }
            }
        }
        zones.push_back(std::move(members));
    }
    return zones;
}

}  // namespace sag::core
