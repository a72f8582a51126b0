#include "sag/resilience/repair.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sag/core/candidates.h"
#include "sag/core/feasibility.h"
#include "sag/core/ucra.h"
#include "sag/obs/obs.h"

namespace sag::resilience {

RepairState::RepairState(const core::Scenario& scenario,
                         std::span<const geom::Vec2> rs_positions,
                         std::span<const double> caps, std::vector<bool> dead)
    : field(scenario, rs_positions, caps),
      dead(std::move(dead)),
      server(scenario.subscriber_count(), kUnserved),
      newly_assigned(scenario.subscriber_count(), false) {}

std::size_t RepairState::unserved_count() const {
    return static_cast<std::size_t>(
        std::count(server.begin(), server.end(), kUnserved));
}

bool RepairState::can_serve(std::size_t rs, std::size_t slot) const {
    // Everything about the RS is read off the field, so a probe relay
    // appended with add_rs is checked exactly like a pool slot.
    return core::check_link(field, ids::SsId{slot}, ids::RsId{rs}).ok();
}

std::size_t RepairState::rehome(const std::vector<std::size_t>& candidates) {
    std::size_t placed = 0;
    // (squared distance, pool slot) of every RS within reach.
    std::vector<std::pair<double, std::size_t>> order;
    for (const std::size_t k : candidates) {
        const core::Subscriber& s = scenario().subscribers[k];
        // check_link fails every RS farther than d_j + 1e-6 on its
        // distance test. The 1e-9 slack keeps every RS it could pass:
        // its hypot and this squared sum differ by a few ulps at most.
        const double reach = s.distance_request + 1e-6;
        const double reach_sq = reach * reach * (1.0 + 1e-9);
        order.clear();
        for (std::size_t rs = 0; rs < pool_size(); ++rs) {
            const double d_sq = geom::distance_sq(position(rs), s.pos);
            if (d_sq <= reach_sq) order.emplace_back(d_sq, rs);
        }
        std::sort(order.begin(), order.end());
        for (const auto& [d_sq, rs] : order) {
            if (!can_serve(rs, k)) continue;
            server[k] = rs;
            newly_assigned[k] = true;
            ++placed;
            break;
        }
    }
    return placed;
}

std::size_t RepairState::patch(std::size_t max_new) {
    std::vector<std::size_t> unreached;
    for (std::size_t k = 0; k < server.size(); ++k) {
        if (server[k] == kUnserved) unreached.push_back(k);
    }
    if (unreached.empty() || max_new == 0) return 0;

    core::Scenario orphan_view = scenario();
    orphan_view.subscribers.clear();
    for (const std::size_t k : unreached) {
        orphan_view.subscribers.push_back(scenario().subscribers[k]);
    }
    std::vector<geom::Vec2> cands = core::prune_useless_candidates(
        orphan_view, core::iac_candidates(orphan_view));
    // A candidate can coincide with an alive pool RS (the plan drew from
    // the same IAC pool); co-located transmitters have identical path
    // gains to every SS and a plan must keep its positions unique, so
    // drop them. Dead slots are vacated sites and stay available.
    std::erase_if(cands, [&](const geom::Vec2& c) {
        for (std::size_t r = 0; r < dead.size(); ++r) {
            if (!dead[r] && position(r) == c) return true;
        }
        return false;
    });

    const units::Watt p_max = scenario().rs_max_power();
    std::size_t added = 0;
    while (!unreached.empty() && added < max_new && !cands.empty()) {
        // Greedy max coverage: the candidate whose P_max relay would
        // serve the most still-unserved SSs, probed via an add_rs delta
        // that pop_rs takes back, so the field never keeps uncommitted
        // interference.
        std::size_t best_cand = cands.size();
        std::size_t best_count = 0;
        for (std::size_t c = 0; c < cands.size(); ++c) {
            const ids::RsId trial = field.add_rs(cands[c], p_max);
            std::size_t count = 0;
            for (const std::size_t k : unreached) {
                if (can_serve(trial.index(), k)) ++count;
            }
            field.pop_rs();
            if (count > best_count) {
                best_count = count;
                best_cand = c;
            }
        }
        if (best_count == 0) break;  // nobody reachable: stop patching

        const geom::Vec2 site = cands[best_cand];
        cands.erase(cands.begin() + static_cast<std::ptrdiff_t>(best_cand));
        const std::size_t relay = field.add_rs(site, p_max).index();
        dead.push_back(false);
        ++added;
        std::vector<std::size_t> still;
        for (const std::size_t k : unreached) {
            if (can_serve(relay, k)) {
                server[k] = relay;
                newly_assigned[k] = true;
            } else {
                still.push_back(k);
            }
        }
        unreached = std::move(still);
    }
    return added;
}

ActiveView RepairState::view() const {
    ActiveView v;
    std::vector<std::size_t> load(pool_size(), 0);
    for (const std::size_t s : server) {
        if (s != kUnserved) ++load[s];
    }
    std::vector<std::size_t> pool_to_plan(pool_size(), kUnserved);
    for (std::size_t r = 0; r < pool_size(); ++r) {
        assert(!(dead[r] && load[r] > 0) && "dead RS with load");
        if (dead[r] || load[r] == 0) continue;
        pool_to_plan[r] = v.plan.rs_positions.size();
        v.active.push_back(r);
        v.plan.rs_positions.push_back(position(r));
        v.caps.push_back(cap(r));
    }
    v.covered_scenario = scenario();
    v.covered_scenario.subscribers.clear();
    for (std::size_t k = 0; k < server.size(); ++k) {
        if (server[k] == kUnserved) continue;
        v.covered.push_back(k);
        v.covered_scenario.subscribers.push_back(scenario().subscribers[k]);
    }
    v.plan.assignment.resize(v.covered.size());
    for (std::size_t c = 0; c < v.covered.size(); ++c) {
        v.plan.assignment[ids::SsId{c}] =
            ids::RsId{pool_to_plan[server[v.covered[c]]]};
    }
    v.plan.feasible = true;
    return v;
}

Reescalation RepairState::reescalate(int max_rounds) {
    // The SSs served before this repair are a feasible witness below the
    // caps, so the fixed point is guaranteed to land once every newly
    // assigned SS that breaks it has been shed. A shed in the last
    // permitted round is followed by one closing allocation, so the view
    // and powers returned are always those of the state left behind.
    Reescalation r;
    const int shed_rounds = std::max(1, max_rounds);
    while (true) {
        ++r.rounds;
        r.view = view();
        const ActiveView& v = r.view;
        core::CappedPower capped =
            core::allocate_power_capped(v.covered_scenario, v.plan, v.caps);
        r.power = std::move(capped.allocation);
        const core::CoverageReport& report = capped.coverage;
        r.power.feasible = report.feasible;
        if (report.feasible || r.rounds > shed_rounds) break;

        // Shed the newly assigned SSs that failed verification; if only
        // older SSs fail (a new assignment's interference squeezed them),
        // shed every newly assigned SS instead.
        std::vector<std::size_t> shed;
        for (std::size_t c = 0; c < v.covered.size(); ++c) {
            if (!report.subscribers[ids::SsId{c}].ok() &&
                newly_assigned[v.covered[c]]) {
                shed.push_back(v.covered[c]);
            }
        }
        if (shed.empty()) {
            for (std::size_t k = 0; k < server.size(); ++k) {
                if (newly_assigned[k] && server[k] != kUnserved) shed.push_back(k);
            }
        }
        if (shed.empty()) break;  // older SSs only and still failing: give up
        for (const std::size_t k : shed) server[k] = kUnserved;
        r.shed.insert(r.shed.end(), shed.begin(), shed.end());
    }
    return r;
}

core::ConnectivityPlan RepairState::backhaul(const ActiveView& v) {
    const double dmin = core::mbmc_dmin(v.covered_scenario, v.plan);
    if (!graph_ || (v.plan.rs_count() > 0 && graph_->dmin() != dmin)) {
        SAG_OBS_COUNT("resilience.backhaul.graph_builds");
        const auto all_bs = ids::all_ids<ids::BsId>(scenario().base_station_count());
        graph_.emplace(scenario(), all_bs, field.rs_positions(), dmin);
    }
    while (graph_->size() < pool_size()) graph_->append(position(graph_->size()));
    core::ConnectivityPlan conn =
        core::solve_mbmc(v.covered_scenario, v.plan, *graph_, v.active);
    core::allocate_power_ucpo(v.covered_scenario, v.plan, conn);
    return conn;
}

RepairOutcome repair(const core::Scenario& scenario,
                     const core::SagResult& deployment,
                     const FailureSet& failures, const RepairOptions& options) {
    SAG_OBS_SPAN("resilience.repair");
    RepairOutcome out;
    out.power_before = deployment.total_power();

    const DamageReport damage = assess_damage(scenario, deployment, failures);

    // The pool at its post-failure caps: P_max, factor * P_max for
    // degraded survivors, 0 for the dead. Survivors keep their server;
    // orphans start unserved.
    const std::size_t n = deployment.coverage.rs_count();
    const double p_max = scenario.rs_max_power().watts();
    std::vector<double> caps(n, p_max);
    for (const Degradation& d : failures.degraded)
        caps[d.rs.index()] = std::min(caps[d.rs.index()], d.factor * p_max);
    std::vector<bool> dead(n, false);
    for (ids::RsId rs : failures.coverage_down) {
        dead[rs.index()] = true;
        caps[rs.index()] = 0.0;
    }
    RepairState state(scenario, deployment.coverage.rs_positions, caps,
                      std::move(dead));
    for (ids::SsId j : scenario.ss_ids())
        state.server[j.index()] = deployment.coverage.assignment[j].index();
    std::vector<std::size_t> orphans;
    for (ids::SsId j : damage.orphaned) {
        state.server[j.index()] = RepairState::kUnserved;
        orphans.push_back(j.index());
    }

    {
        SAG_OBS_SPAN("resilience.repair.reassign");
        out.reassigned = state.rehome(orphans);
        SAG_OBS_COUNT_ADD("resilience.reassigned_ss", out.reassigned);
    }
    {
        SAG_OBS_SPAN("resilience.repair.patch");
        out.new_relays = state.patch(options.max_new_relays);
        SAG_OBS_COUNT_ADD("resilience.new_relays", out.new_relays);
    }
    for (std::size_t k = 0; k < state.server.size(); ++k)
        if (state.server[k] == RepairState::kUnserved)
            out.unrecoverable.push_back(ids::SsId{k});

    Reescalation power;
    {
        SAG_OBS_SPAN("resilience.repair.power");
        // A failed verification drops the offending newly-added SSs and
        // retries, so each round strictly shrinks the instance toward the
        // guaranteed-feasible surviving core.
        constexpr int kMaxRounds = 4;
        power = state.reescalate(kMaxRounds);
        out.rounds = power.rounds;
        for (const std::size_t k : power.shed) out.unrecoverable.push_back(ids::SsId{k});
        SAG_OBS_COUNT_ADD("resilience.repair_rounds",
                          static_cast<std::size_t>(out.rounds));
    }
    core::ConnectivityPlan conn;
    {
        SAG_OBS_SPAN("resilience.repair.backhaul");
        conn = state.backhaul(power.view);
    }

    std::sort(out.unrecoverable.begin(), out.unrecoverable.end());
    SAG_OBS_COUNT_ADD("resilience.unrecoverable_ss", out.unrecoverable.size());

    for (const std::size_t k : power.view.covered) out.covered.push_back(ids::SsId{k});
    out.covered_scenario = std::move(power.view.covered_scenario);
    out.repaired.coverage = std::move(power.view.plan);
    out.repaired.lower_power = std::move(power.power);
    out.repaired.connectivity = std::move(conn);
    const auto topo = core::verify_connectivity(
        out.covered_scenario, out.repaired.coverage, out.repaired.connectivity);
    out.repaired.feasible = out.repaired.lower_power.feasible && topo.feasible;
    out.power_after = out.repaired.total_power();
    return out;
}

}  // namespace sag::resilience
