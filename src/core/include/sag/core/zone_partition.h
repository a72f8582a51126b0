#pragma once

#include <vector>

#include "sag/core/scenario.h"
#include "sag/ids/ids.h"

namespace sag::core {

/// d_max of Algorithm 2: distance beyond which a max-power RS's signal
/// drops under the ignorable-noise level N_max, i.e. the solution of
/// P_max * G * d^-alpha = N_max.
double zone_partition_dmax(const Scenario& scenario);

/// Zone Partition (paper Algorithm 2): groups subscribers into zones such
/// that stations in different zones cannot meaningfully interfere. Two
/// subscribers join the same zone when
///   d_eff = min(dist(s_i, s_j) - d_i, dist(s_i, s_j) - d_j) <= d_max,
/// and zones are the connected components of that graph. Returns the
/// ZoneId-indexed subscriber groups (each non-empty; singletons allowed).
/// Order: zones ascend by their least member, which each lists first;
/// the other members follow breadth-first from it, each SS's unvisited
/// neighbours in ascending index order. The hitting set's disk order,
/// and so its ties, follow this order.
ids::IdVec<ids::ZoneId, std::vector<ids::SsId>> zone_partition(
    const Scenario& scenario);

}  // namespace sag::core
