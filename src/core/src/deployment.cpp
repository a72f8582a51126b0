#include "sag/core/deployment.h"

#include <algorithm>
#include <stdexcept>

namespace sag::core {

ids::IdVec<ids::RsId, std::vector<ids::SsId>> CoveragePlan::served_lists() const {
    ids::IdVec<ids::RsId, std::vector<ids::SsId>> served(rs_count());
    for (const ids::SsId j : assignment.ids()) {
        const ids::RsId i = assignment[j];
        if (i.valid() && i.index() < rs_count()) served[i].push_back(j);
    }
    return served;
}

void require_assignment(const CoveragePlan& plan, std::size_t subscriber_count) {
    if (plan.assignment.size() != subscriber_count)
        throw std::invalid_argument("coverage assignment size differs from subscriber count");
    for (const ids::RsId i : plan.assignment) {
        if (i.index() >= plan.rs_count())
            throw std::invalid_argument("subscriber not assigned to a coverage RS");
    }
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
