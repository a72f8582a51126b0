#include "sag/core/feasibility.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "sag/core/snr_field.h"
#include "sag/units/units.h"

namespace sag::core {

CoverageReport verify_coverage(const Scenario& scenario, const CoveragePlan& plan,
                               std::span<const double> powers) {
    CoverageReport report;
    report.subscribers.resize(scenario.subscriber_count());
    // Structural sanity before touching any index: mismatched sizes or
    // out-of-range serving indices mark the whole plan infeasible rather
    // than faulting.
    const bool malformed =
        plan.assignment.size() != scenario.subscriber_count() ||
        powers.size() != plan.rs_count() ||
        std::any_of(plan.assignment.begin(), plan.assignment.end(),
                    [&](ids::RsId a) {
                        return !a.valid() || a.index() >= plan.rs_count();
                    });
    if (malformed) {
        report.feasible = false;
        report.violations = scenario.subscriber_count();
        return report;
    }

    // Batch audit off one interference field: the totals are computed once
    // and every subscriber's SNR is an O(1) read.
    const SnrField field(scenario, plan.rs_positions, powers);
    const double beta = scenario.snr_threshold_linear();

    for (const ids::SsId j : scenario.ss_ids()) {
        const Subscriber& s = scenario.subscriber(j);
        SubscriberCheck& check = report.subscribers[j];
        check.serving_rs = plan.assignment[j];
        const geom::Vec2& rs = plan.rs_position(check.serving_rs);
        check.access_distance = geom::distance(rs, s.pos);
        check.distance_ok = check.access_distance <= s.distance_request + 1e-6;
        const units::Watt rx = scenario.received_power(
            units::Watt{powers[check.serving_rs.index()]}, rs, s.pos);
        check.rate_ok = rx >= scenario.min_rx_power(j) * (1.0 - 1e-9);
        const double snr = field.snr_of(j, check.serving_rs);
        check.snr_ok = snr >= beta * (1.0 - 1e-9);
        check.snr_db = std::isfinite(snr)
                           ? units::to_db(units::SnrRatio{snr}).db()
                           : std::numeric_limits<double>::infinity();
        if (!check.distance_ok || !check.rate_ok || !check.snr_ok) ++report.violations;
    }
    report.feasible = report.violations == 0;
    return report;
}

CoverageReport verify_coverage_max_power(const Scenario& scenario,
                                         const CoveragePlan& plan) {
    const std::vector<double> powers(plan.rs_count(),
                                     scenario.rs_max_power().watts());
    return verify_coverage(scenario, plan, powers);
}

ConnectivityReport verify_connectivity(const Scenario& scenario,
                                       const CoveragePlan& coverage,
                                       const ConnectivityPlan& plan) {
    ConnectivityReport report;
    std::ostringstream detail;
    const std::size_t n = plan.node_count();
    const std::size_t bs_count = scenario.base_stations.size();
    const std::size_t cov_count = coverage.rs_count();

    report.all_rooted = true;
    report.hops_ok = true;

    // Structural sanity: consistent array sizes, in-range parents, the
    // node-layout convention (base stations first, then coverage RSs).
    bool malformed = n < bs_count + cov_count || plan.kinds.size() != n ||
                     plan.parent.size() != n || plan.powers.size() != n;
    if (!malformed) {
        for (std::size_t v = 0; v < n; ++v) {
            if (plan.parent[v] >= n) malformed = true;
        }
        for (std::size_t b = 0; b < bs_count; ++b) {
            if (plan.kinds[b] != NodeKind::BaseStation) malformed = true;
        }
        for (std::size_t c = 0; c < cov_count; ++c) {
            if (plan.kinds[bs_count + c] != NodeKind::CoverageRs) malformed = true;
        }
    }
    if (malformed) {
        report.all_rooted = false;
        report.hops_ok = false;
        report.violations = 1;
        report.feasible = false;
        detail << "plan is structurally malformed";
        report.detail = detail.str();
        return report;
    }

    // Every non-BS node must reach a BaseStation root without cycles.
    for (std::size_t v = 0; v < n; ++v) {
        std::size_t cur = v;
        std::size_t steps = 0;
        while (plan.parent[cur] != cur && steps <= n) {
            cur = plan.parent[cur];
            ++steps;
        }
        if (steps > n || plan.kinds[cur] != NodeKind::BaseStation) {
            report.all_rooted = false;
            ++report.violations;
            detail << "node " << v << " is not rooted at a base station; ";
        }
    }

    // Allowed hop length of node v: the minimum distance request over the
    // coverage RSs in v's subtree (the paper's "feasible distance equals
    // the minimum feasible distance of all its children"). Compute by
    // propagating each coverage RS's requirement up its root path.
    std::vector<double> allowed(n, std::numeric_limits<double>::infinity());
    for (std::size_t c = 0; c < cov_count; ++c) {
        const std::size_t node = bs_count + c;
        double req = std::numeric_limits<double>::infinity();
        for (const ids::SsId j : coverage.served_by(ids::RsId{c})) {
            req = std::min(req, scenario.subscriber(j).distance_request);
        }
        std::size_t cur = node;
        std::size_t steps = 0;
        while (steps <= n) {
            allowed[cur] = std::min(allowed[cur], req);
            if (plan.parent[cur] == cur) break;
            cur = plan.parent[cur];
            ++steps;
        }
    }
    for (std::size_t v = 0; v < n; ++v) {
        if (plan.parent[v] == v) continue;
        const double hop = geom::distance(plan.positions[v], plan.positions[plan.parent[v]]);
        if (hop > allowed[v] + 1e-6) {
            report.hops_ok = false;
            ++report.violations;
            detail << "hop " << v << "->" << plan.parent[v] << " length " << hop
                   << " exceeds " << allowed[v] << "; ";
        }
    }

    report.feasible = report.all_rooted && report.hops_ok;
    report.detail = detail.str();
    return report;
}

}  // namespace sag::core
