#include "sag/core/deployment.h"

#include <algorithm>

namespace sag::core {

ids::IdVec<ids::RsId, std::vector<ids::SsId>> CoveragePlan::served_lists() const {
    ids::IdVec<ids::RsId, std::vector<ids::SsId>> served(rs_count());
    for (const ids::SsId j : assignment.ids()) {
        const ids::RsId i = assignment[j];
        if (i.valid() && i.index() < rs_count()) served[i].push_back(j);
    }
    return served;
}

std::size_t ConnectivityPlan::count(NodeKind kind) const {
    return static_cast<std::size_t>(
        std::count(kinds.begin(), kinds.end(), kind));
}

double ConnectivityPlan::upper_tier_power() const {
    double total = 0.0;
    for (std::size_t i = 0; i < positions.size(); ++i) {
        if (kinds[i] == NodeKind::ConnectivityRs) total += powers[i];
    }
    return total;
}

}  // namespace sag::core
