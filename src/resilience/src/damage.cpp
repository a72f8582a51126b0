#include "sag/resilience/damage.h"

#include <algorithm>

#include "sag/core/feasibility.h"
#include "sag/core/snr_field.h"
#include "sag/obs/obs.h"

namespace sag::resilience {

namespace {

/// Per-node liveness over the ConnectivityPlan layout (BSs, then
/// coverage RSs in RsId order, then connectivity RSs). BSs never fail.
std::vector<bool> alive_mask(const core::Scenario& scenario,
                             const core::SagResult& deployment,
                             const FailureSet& failures) {
    const auto& conn = deployment.connectivity;
    const std::size_t bs_count = scenario.base_station_count();
    std::vector<bool> alive(conn.node_count(), true);
    for (ids::RsId rs : failures.coverage_down) {
        const std::size_t node = bs_count + rs.index();
        if (node < alive.size()) alive[node] = false;
    }
    for (std::size_t node : failures.connectivity_down)
        if (node < alive.size()) alive[node] = false;
    return alive;
}

bool is_dead(const FailureSet& failures, ids::RsId rs) {
    return std::find(failures.coverage_down.begin(), failures.coverage_down.end(),
                     rs) != failures.coverage_down.end();
}

/// The lower-tier interference field after the failures: built from the
/// intact deployment, then mutated with one set_power delta per failed
/// or degraded RS. Dead RSs stay in the field at zero power so RsId
/// addressing (and the SsId->RsId assignment) stays stable.
core::SnrField damaged_field(const core::Scenario& scenario,
                             const core::SagResult& deployment,
                             const FailureSet& failures) {
    core::SnrField field(scenario, deployment.coverage.rs_positions,
                         deployment.lower_power.powers);
    const std::vector<double> powers = damaged_powers(scenario, deployment, failures);
    for (ids::RsId rs : field.rs_ids()) {
        if (powers[rs.index()] != deployment.lower_power.powers[rs.index()])
            field.set_power(rs, units::Watt{powers[rs.index()]});
    }
    return field;
}

}  // namespace

DamageReport assess_damage(const core::Scenario& scenario,
                           const core::SagResult& deployment,
                           const FailureSet& failures) {
    const core::SnrField field = damaged_field(scenario, deployment, failures);
    SAG_OBS_SPAN("resilience.assess");
    DamageReport report;
    report.dead_coverage_rs = failures.coverage_down.size();
    report.dead_connectivity_rs = failures.connectivity_down.size();

    // Lower tier: the verifier's link check against the post-failure
    // field. A dead server fails the rate check at zero power, but test it
    // explicitly so the report is meaningful even for SSs with zero rate
    // demand.
    const auto& plan = deployment.coverage;
    for (const ids::SsId j : scenario.ss_ids()) {
        const ids::RsId serving = plan.assignment[j];
        if (!serving.valid() || serving.index() >= plan.rs_count() ||
            is_dead(failures, serving) || !core::check_link(field, j, serving).ok()) {
            report.orphaned.push_back(j);
        }
    }

    // Upper tier: parent-chain walk with the dead nodes masked out. A
    // surviving coverage RS is cut off when its root path stalls, cycles,
    // crosses a dead node, or the plan is structurally unusable.
    const auto& conn = deployment.connectivity;
    const std::size_t bs_count = scenario.base_station_count();
    const std::size_t n = conn.node_count();
    const bool usable = n >= bs_count + plan.rs_count() &&
                        conn.parent.size() == n && conn.kinds.size() == n;
    const std::vector<bool> alive =
        usable ? alive_mask(scenario, deployment, failures) : std::vector<bool>{};
    for (ids::RsId rs : plan.rs_ids()) {
        if (is_dead(failures, rs)) continue;  // dead, not cut off
        if (!usable) {
            report.cut_off.push_back(rs);
            continue;
        }
        std::size_t cur = bs_count + rs.index();
        std::size_t steps = 0;
        bool rooted = true;
        while (true) {
            if (conn.parent[cur] >= n || !alive[cur] || steps > n) {
                rooted = false;
                break;
            }
            if (conn.parent[cur] == cur) break;
            cur = conn.parent[cur];
            ++steps;
        }
        if (!rooted || conn.kinds[cur] != core::NodeKind::BaseStation)
            report.cut_off.push_back(rs);
    }

    SAG_OBS_COUNT_ADD("resilience.failed_rs", failures.failure_count());
    SAG_OBS_COUNT_ADD("resilience.orphaned_ss", report.orphaned.size());
    SAG_OBS_COUNT_ADD("resilience.cut_off_rs", report.cut_off.size());
    return report;
}

}  // namespace sag::resilience
