#include "oracles/ilpqc_milp.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "sag/core/snr_field.h"
#include "sag/ids/ids.h"

namespace sag::oracles {

namespace {

using Rel = LinearProgram::Relation;

/// Variable layout: T_i for i in [0, m), then one T_ij per in-range link
/// in a flat list. LP variable and link indices are generic solver
/// indices (size_t); the entities behind each link are typed.
struct Layout {
    std::size_t m = 0;                              // candidates
    std::vector<std::pair<ids::CandId, ids::SsId>> links;  // (i, j)
    ids::IdVec<ids::SsId, std::vector<std::size_t>> links_of_sub;
    ids::IdVec<ids::CandId, std::vector<std::size_t>> links_of_cand;

    std::size_t var_count() const { return m + links.size(); }
    std::size_t link_var(std::size_t link) const { return m + link; }
};

Layout make_layout(const core::Scenario& scenario,
                   std::span<const geom::Vec2> candidates) {
    Layout layout;
    layout.m = candidates.size();
    layout.links_of_sub.resize(scenario.subscriber_count());
    layout.links_of_cand.resize(candidates.size());
    for (const ids::CandId i : ids::first_ids<ids::CandId>(candidates.size())) {
        for (const ids::SsId j : scenario.ss_ids()) {
            const core::Subscriber& s = scenario.subscriber(j);
            // (3.4): assignment variables exist only for in-range pairs.
            if (geom::distance(candidates[i.index()], s.pos) <=
                s.distance_request + geom::kEps) {
                layout.links_of_sub[j].push_back(layout.links.size());
                layout.links_of_cand[i].push_back(layout.links.size());
                layout.links.emplace_back(i, j);
            }
        }
    }
    return layout;
}

}  // namespace

MilpProblem build_ilpqc_milp(const core::Scenario& scenario,
                             std::span<const geom::Vec2> candidates) {
    const Layout layout = make_layout(scenario, candidates);
    const std::size_t nv = layout.var_count();
    const double beta = scenario.snr_threshold_linear();

    MilpProblem problem;
    problem.lp.objective.assign(nv, 0.0);
    for (std::size_t i = 0; i < layout.m; ++i) problem.lp.objective[i] = 1.0;  // (3.1)
    problem.binary.assign(nv, true);

    // (3.3): every subscriber has exactly one access link.
    for (const ids::SsId j : scenario.ss_ids()) {
        std::vector<double> row(nv, 0.0);
        for (const std::size_t l : layout.links_of_sub[j]) {
            row[layout.link_var(l)] = 1.0;
        }
        problem.lp.add_constraint(std::move(row), Rel::Equal, 1.0);
    }

    // (3.2): T_ij <= T_i (a link needs its RS placed), and
    // T_i <= sum_j T_ij (a placed RS covers at least one subscriber).
    for (std::size_t l = 0; l < layout.links.size(); ++l) {
        std::vector<double> row(nv, 0.0);
        row[layout.link_var(l)] = 1.0;
        row[layout.links[l].first.index()] = -1.0;
        problem.lp.add_constraint(std::move(row), Rel::LessEq, 0.0);
    }
    for (const ids::CandId i : layout.links_of_cand.ids()) {
        std::vector<double> row(nv, 0.0);
        row[i.index()] = 1.0;
        for (const std::size_t l : layout.links_of_cand[i]) {
            row[layout.link_var(l)] = -1.0;
        }
        problem.lp.add_constraint(std::move(row), Rel::LessEq, 0.0);
    }

    // (3.5), linearized with big-M per link:
    //   beta * (sum_{k != i} g_kj T_k + N) - g_ij <= M (1 - T_ij)
    // where g_kj is the max-power received gain of candidate k at sub j.
    // g is a bulk gain matrix: raw doubles, indexed via .index().
    std::vector<std::vector<double>> g(layout.m,
                                       std::vector<double>(scenario.subscriber_count()));
    for (std::size_t k = 0; k < layout.m; ++k) {
        for (const ids::SsId j : scenario.ss_ids()) {
            g[k][j.index()] = scenario
                                  .received_power(scenario.rs_max_power(),
                                                  candidates[k],
                                                  scenario.subscriber(j).pos)
                                  .watts();
        }
    }
    // Worst-case interference per link (every candidate transmitting) from
    // a one-shot field: O(m n) totals once, O(1) per link, instead of the
    // former O(links x m) re-summation.
    const core::SnrField cand_field = core::SnrField::at_max_power(
        scenario, candidates, ids::all_ids<ids::SsId>(scenario.subscriber_count()));
    for (std::size_t l = 0; l < layout.links.size(); ++l) {
        const auto [i, j] = layout.links[l];
        const double worst_interference =
            cand_field.total_rx(j) - g[i.index()][j.index()] +
            scenario.radio.snr_ambient_noise.watts();
        const double big_m = beta * worst_interference;  // tight M
        std::vector<double> row(nv, 0.0);
        for (std::size_t k = 0; k < layout.m; ++k) {
            if (k != i.index()) row[k] = beta * g[k][j.index()];
        }
        row[layout.link_var(l)] = big_m;
        problem.lp.add_constraint(
            std::move(row), Rel::LessEq,
            big_m + g[i.index()][j.index()] -
                beta * scenario.radio.snr_ambient_noise.watts());
    }

    return problem;
}

core::CoveragePlan solve_ilpqc_milp(const core::Scenario& scenario,
                                    std::span<const geom::Vec2> candidates,
                                    const MilpOptions& options) {
    core::CoveragePlan plan;
    if (scenario.subscriber_count() == 0) {
        plan.feasible = true;
        plan.proven_optimal = true;
        return plan;
    }
    const Layout layout = make_layout(scenario, candidates);
    const auto problem = build_ilpqc_milp(scenario, candidates);

    MilpOptions opts = options;
    opts.bound_gap = 1.0 - 1e-6;  // pure cardinality objective
    const auto result = solve_milp(problem, opts);
    plan.search_nodes = result.nodes;
    if (!result.optimal()) return plan;
    plan.proven_optimal = true;

    // Recover positions (compacted to chosen candidates) and assignment.
    // chosen_index maps candidate -> plan-local RS, invalid() when unplaced.
    ids::IdVec<ids::CandId, ids::RsId> chosen_index(candidates.size(),
                                                    ids::RsId::invalid());
    for (const ids::CandId i : chosen_index.ids()) {
        if (result.x[i.index()] > 0.5) {
            chosen_index[i] = ids::RsId{plan.rs_positions.size()};
            plan.rs_positions.push_back(candidates[i.index()]);
        }
    }
    plan.assignment.assign(scenario.subscriber_count(), ids::RsId::invalid());
    for (std::size_t l = 0; l < layout.links.size(); ++l) {
        if (result.x[layout.m + l] > 0.5) {
            const auto [i, j] = layout.links[l];
            plan.assignment[j] = chosen_index[i];
        }
    }
    plan.feasible = std::none_of(plan.assignment.begin(), plan.assignment.end(),
                                 [](ids::RsId a) { return !a.valid(); });
    return plan;
}

}  // namespace sag::oracles
