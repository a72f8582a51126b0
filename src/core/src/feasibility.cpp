#include "sag/core/feasibility.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <sstream>

#include "sag/units/units.h"

namespace sag::core {

SubscriberCheck check_link(const SnrField& field, ids::SsId k, ids::RsId serving) {
    const Scenario& scenario = field.scenario();
    const ids::SsId j = field.tracked_subscriber(k);
    const Subscriber& s = scenario.subscriber(j);
    const geom::Vec2& rs = field.rs_position(serving);
    SubscriberCheck check;
    check.serving_rs = serving;
    check.access_distance = geom::distance(rs, s.pos);
    check.distance_ok = check.access_distance <= s.distance_request + 1e-6;
    if (!check.distance_ok) return check;
    const units::Watt rx = field.rs_power(serving) *
                           scenario.gain_kernel().gain(rs, s.pos, check.access_distance);
    check.rate_ok = rx >= scenario.min_rx_power(j) * (1.0 - 1e-9);
    check.snr_ok = field.snr_of(k, serving) >=
                   scenario.snr_threshold_linear() * (1.0 - 1e-9);
    return check;
}

CoverageReport verify_coverage(const Scenario& scenario, const CoveragePlan& plan,
                               std::span<const double> powers) {
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
        CoverageReport report;
        report.subscribers.resize(scenario.subscriber_count());
        report.violations = scenario.subscriber_count();
        return report;
    }

    // Batch audit off one interference field: the totals are computed once
    // and every subscriber's SNR is an O(1) read.
    return verify_coverage(SnrField(scenario, plan.rs_positions, powers), plan);
}

CoverageReport verify_coverage(const SnrField& field, const CoveragePlan& plan) {
    const Scenario& scenario = field.scenario();
    assert(field.tracked_count() == scenario.subscriber_count() &&
           field.rs_count() == plan.rs_count() &&
           plan.assignment.size() == scenario.subscriber_count());
    CoverageReport report;
    report.subscribers.resize(scenario.subscriber_count());
    for (const ids::SsId j : scenario.ss_ids()) {
        SubscriberCheck& check = report.subscribers[j];
        check = check_link(field, j, plan.assignment[j]);
        const double snr = field.snr_of(j, check.serving_rs);
        check.snr_db = std::isfinite(snr)
                           ? units::to_db(units::SnrRatio{snr}).db()
                           : std::numeric_limits<double>::infinity();
        if (!check.ok()) ++report.violations;
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

    // Every non-BS node must reach a BaseStation root without cycles. One
    // memoized walk: a node is pushed onto a path once, and a walk stops
    // at the first node whose verdict is known or already on its path.
    enum : unsigned char { kUnknown, kOnPath, kRooted, kUnrooted };
    std::vector<unsigned char> verdict(n, kUnknown);
    std::vector<std::size_t> path;
    for (std::size_t v = 0; v < n; ++v) {
        std::size_t cur = v;
        while (verdict[cur] == kUnknown) {
            verdict[cur] = kOnPath;
            path.push_back(cur);
            cur = plan.parent[cur];
        }
        // Back on the path: either the walk's own root (a self-parent)
        // or a parent cycle, which never reaches a root.
        unsigned char found = verdict[cur];
        if (found == kOnPath) {
            found = plan.parent[cur] == cur && plan.kinds[cur] == NodeKind::BaseStation
                        ? kRooted
                        : kUnrooted;
        }
        for (const std::size_t u : path) verdict[u] = found;
        path.clear();
    }
    for (std::size_t v = 0; v < n; ++v) {
        if (verdict[v] != kRooted) {
            report.all_rooted = false;
            ++report.violations;
            detail << "node " << v << " is not rooted at a base station; ";
        }
    }

    // Allowed hop length of node v: the minimum distance request over the
    // coverage RSs in v's subtree (the paper's "feasible distance equals
    // the minimum feasible distance of all its children"). Each coverage
    // RS seeds its own node; then every node folds into its parent once
    // all of its children have folded into it, children before parents.
    // The nodes left over lie on parent cycles, and each cycle shares the
    // minimum over all of its nodes, since every one of them reaches the
    // others.
    std::vector<double> allowed(n, std::numeric_limits<double>::infinity());
    const auto served = coverage.served_lists();
    for (std::size_t c = 0; c < cov_count; ++c) {
        double& req = allowed[bs_count + c];
        for (const ids::SsId j : served[ids::RsId{c}]) {
            req = std::min(req, scenario.subscriber(j).distance_request);
        }
    }
    std::vector<std::size_t> unfolded(n, 0);  // children not yet folded in
    for (std::size_t v = 0; v < n; ++v) {
        if (plan.parent[v] != v) ++unfolded[plan.parent[v]];
    }
    std::vector<std::size_t> ready;
    for (std::size_t v = 0; v < n; ++v) {
        if (unfolded[v] == 0) ready.push_back(v);
    }
    while (!ready.empty()) {
        const std::size_t v = ready.back();
        ready.pop_back();
        const std::size_t p = plan.parent[v];
        if (p == v) continue;
        allowed[p] = std::min(allowed[p], allowed[v]);
        if (--unfolded[p] == 0) ready.push_back(p);
    }
    for (std::size_t v = 0; v < n; ++v) {
        if (unfolded[v] == 0) continue;
        double cycle_min = allowed[v];
        for (std::size_t u = plan.parent[v]; u != v; u = plan.parent[u]) {
            cycle_min = std::min(cycle_min, allowed[u]);
        }
        std::size_t u = v;
        do {
            allowed[u] = cycle_min;
            unfolded[u] = 0;
            u = plan.parent[u];
        } while (u != v);
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
