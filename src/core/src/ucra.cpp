#include "sag/core/ucra.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sag/geometry/sweep.h"
#include "sag/graph/mst.h"
#include "sag/graph/steiner.h"
#include "sag/graph/tree.h"
#include "sag/obs/obs.h"
#include "sag/wireless/link.h"

namespace sag::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Throws std::invalid_argument unless `coverage` assigns every subscriber
/// of `scenario` to one of its RSs. The infeasible plans some coverage
/// solvers return hold RsId::invalid() entries.
void require_assignment(const Scenario& scenario, const CoveragePlan& coverage) {
    if (coverage.assignment.size() != scenario.subscriber_count())
        throw std::invalid_argument("coverage assignment size differs from subscriber count");
    for (const ids::SsId j : scenario.ss_ids()) {
        if (coverage.assignment[j].index() >= coverage.rs_count())
            throw std::invalid_argument("subscriber not assigned to a coverage RS");
    }
}

/// Algorithm 7 Steps 3-5: the MST over the usable BSs and the coverage
/// RSs at `pos`, with each RS linked only to its nearest usable BS.
/// Returns each RS's tree parent as a plan node: a BS index, or bs_count
/// plus an RS index. MST vertices: 0 = a virtual super-root, whose
/// zero-weight edges to the BSs let one Prim run yield the multi-rooted
/// forest; 1..B' = usable_bs; then the RSs.
std::vector<std::size_t> coverage_tree_parents(const Scenario& scenario,
                                               std::span<const ids::BsId> usable_bs,
                                               std::span<const geom::Vec2> pos, double dmin) {
    const std::size_t nb = usable_bs.size();
    const std::size_t first_rs = 1 + nb;
    const std::size_t cov_count = pos.size();
    const auto hop_weight = [&](double dist) {
        // Paper weight w1 = ceil(len/dmin) - 1 (relays needed on the edge);
        // the epsilon*dist term only breaks ties toward shorter edges.
        return std::ceil(dist / dmin - 1e-9) - 1.0 + 1e-6 * dist / dmin;
    };
    // Algorithm 7 Step 3: each RS links only to its *nearest* usable BS.
    std::vector<std::size_t> nearest(cov_count);  // MST vertex of that BS
    std::vector<double> bs_weight(cov_count);
    std::vector<geom::Circle> reach(cov_count);  // RS, nearest-BS distance
    for (std::size_t i = 0; i < cov_count; ++i) {
        std::size_t best_b = 0;
        double best_d = kInf;
        for (std::size_t b = 0; b < nb; ++b) {
            const double d =
                geom::distance(pos[i], scenario.base_station(usable_bs[b]).pos);
            if (d < best_d) {
                best_d = d;
                best_b = b;
            }
        }
        nearest[i] = 1 + best_b;
        bs_weight[i] = hop_weight(best_d);
        reach[i] = {pos[i], best_d};
    }

    // The RS-RS arcs j -> i that can lower i's key, grouped by source j
    // (CSR). BS keys are at most 0 and ties go to the lower index, so Prim
    // takes every BS before any RS of non-negative key; once they are all
    // in, each outside RS i has key <= bs_weight[i], and only a strictly
    // lighter arc lowers it. hop_weight never decreases with distance, so
    // such an arc is shorter than i's nearest-BS distance r: it lies in
    // i's x-window, within r in y, and within r of i (each test widened by
    // the window's slack, which dwarfs the rounding of the lengths).
    struct Arc {
        std::size_t to;
        double weight;
    };
    std::vector<std::pair<std::size_t, Arc>> found;  // (source, arc)
    std::vector<std::size_t> arc_begin(cov_count + 1, 0);
    const geom::SweepIndex index = geom::sweep_index(reach);
    for (std::size_t i = 0; i < cov_count; ++i) {
        const double r = reach[i].radius + index.slack;
        for (const std::size_t j : geom::x_window(reach, index, pos[i].x, reach[i].radius)) {
            if (std::abs(pos[j].y - pos[i].y) > r) continue;
            if (j == i || geom::distance_sq(pos[i], pos[j]) > r * r) continue;
            const double w = hop_weight(geom::distance(pos[i], pos[j]));
            if (w < bs_weight[i]) {
                found.push_back({j, {first_rs + i, w}});
                ++arc_begin[j + 1];
            }
        }
    }
    std::partial_sum(arc_begin.begin(), arc_begin.end(), arc_begin.begin());
    std::vector<Arc> arcs(found.size());
    std::vector<std::size_t> fill(arc_begin.begin(), arc_begin.end() - 1);
    for (const auto& [j, arc] : found) arcs[fill[j]++] = arc;

    std::size_t bs_in_tree = 0;
    const auto mst_parent = graph::prim_mst(first_rs + cov_count, 0, [&](std::size_t u,
                                                                         auto&& relax) {
        if (u == 0) {
            for (std::size_t b = 1; b <= nb; ++b) relax(b, 0.0);
        } else if (u <= nb) {
            ++bs_in_tree;
            for (std::size_t i = 0; i < cov_count; ++i) {
                if (nearest[i] == u) relax(first_rs + i, bs_weight[i]);
            }
        } else {
            const std::size_t i = u - first_rs;
            relax(nearest[i], bs_weight[i]);
            if (bs_in_tree < nb) {
                // Taken ahead of a BS, so i's key is negative: it lies
                // within ~1e-9 d_min of a BS or of an RS taken before it.
                // RSs whose BS is still outside have infinite keys that
                // any arc lowers, so offer the full dense row.
                for (std::size_t j = 0; j < cov_count; ++j) {
                    if (j != i) relax(first_rs + j, hop_weight(geom::distance(pos[i], pos[j])));
                }
                return;
            }
            for (std::size_t a = arc_begin[i]; a < arc_begin[i + 1]; ++a) {
                relax(arcs[a].to, arcs[a].weight);
            }
        }
    });

    const std::size_t bs_count = scenario.base_station_count();
    std::vector<std::size_t> parent(cov_count);
    for (std::size_t i = 0; i < cov_count; ++i) {
        const std::size_t v = mst_parent[first_rs + i];
        if (v == first_rs + i || v == 0) {
            // Unreachable should not happen: every RS has a BS edge.
            throw std::logic_error("coverage RS not connected to any base station");
        }
        parent[i] = v <= nb ? usable_bs[v - 1].index() : bs_count + (v - first_rs);
    }
    return parent;
}

/// Shared MBMC/MUST construction over a restricted set of usable BSs.
ConnectivityPlan build_connectivity(const Scenario& scenario,
                                    const CoveragePlan& coverage,
                                    std::span<const ids::BsId> usable_bs) {
    require_assignment(scenario, coverage);
    const std::size_t bs_count = scenario.base_stations.size();
    const std::size_t cov_count = coverage.rs_count();
    const double dmin = coverage.rs_count() > 0 && !scenario.subscribers.empty()
                            ? scenario.min_distance_request()
                            : 1.0;

    ConnectivityPlan plan;
    // Node layout: base stations, then coverage RSs, then connectivity RSs.
    for (const BaseStation& b : scenario.base_stations) {
        plan.positions.push_back(b.pos);
        plan.kinds.push_back(NodeKind::BaseStation);
    }
    for (const geom::Vec2& p : coverage.rs_positions) {
        plan.positions.push_back(p);
        plan.kinds.push_back(NodeKind::CoverageRs);
    }
    plan.parent.resize(bs_count + cov_count);
    for (std::size_t b = 0; b < bs_count; ++b) plan.parent[b] = b;
    plan.powers.assign(bs_count + cov_count, 0.0);
    if (cov_count == 0) {
        plan.feasible = true;
        return plan;
    }
    if (usable_bs.empty()) {
        // No usable BS root: nothing can be rooted. Return an explicit
        // infeasible plan (each coverage RS its own parent) instead of
        // letting the MST run rootless — with nb == 0 the MST's nearest-BS
        // links would alias a coverage-RS vertex and the Prim pass would
        // end in a logic_error deep inside the solver.
        for (std::size_t i = 0; i < cov_count; ++i) {
            plan.parent[bs_count + i] = bs_count + i;
        }
        plan.feasible = false;
        return plan;
    }

    const std::vector<std::size_t> cov_tree_parent =  // plan node index
        coverage_tree_parents(scenario, usable_bs, coverage.rs_positions, dmin);

    // Feasible distance of each coverage RS: min distance request over the
    // subscribers it serves; then the subtree minimum governs each edge
    // (a connectivity RS's feasible distance is the minimum over its
    // children, applied transitively).
    std::vector<double> own_req(cov_count, kInf);
    for (const ids::SsId j : scenario.ss_ids()) {
        const ids::RsId i = coverage.assignment[j];
        own_req[i.index()] =
            std::min(own_req[i.index()], scenario.subscriber(j).distance_request);
    }
    for (double& r : own_req) {
        if (!std::isfinite(r)) r = dmin;  // RS serving nobody: be conservative
    }
    // Subtree mins via the coverage-RS tree (parents may be BSs = roots).
    std::vector<std::size_t> tree_parent_local(cov_count);
    for (std::size_t i = 0; i < cov_count; ++i) {
        const std::size_t p = cov_tree_parent[i];
        tree_parent_local[i] = p >= bs_count ? p - bs_count : i;  // root if BS parent
    }
    graph::RootedTree cov_tree(tree_parent_local);
    std::vector<double> subtree_req = own_req;
    const auto& topo = cov_tree.topological_order();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        const std::size_t v = *it;
        if (!cov_tree.is_root(v)) {
            subtree_req[cov_tree.parent(v)] =
                std::min(subtree_req[cov_tree.parent(v)], subtree_req[v]);
        }
    }

    // Steinerize every edge: chain of connectivity RSs from the coverage
    // RS up toward its tree parent.
    for (std::size_t i = 0; i < cov_count; ++i) {
        const std::size_t child_node = bs_count + i;
        const std::size_t parent_node = cov_tree_parent[i];
        const auto chain =
            graph::steinerize_segment(plan.positions[child_node],
                                      plan.positions[parent_node], subtree_req[i]);
        SAG_OBS_COUNT_ADD("ucra.relays_placed", chain.size());
        std::size_t prev = parent_node;  // build from the parent end down
        for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
            plan.positions.push_back(*it);
            plan.kinds.push_back(NodeKind::ConnectivityRs);
            plan.powers.push_back(0.0);
            plan.parent.push_back(prev);
            prev = plan.positions.size() - 1;
        }
        plan.parent[child_node] = prev;
    }

    plan.feasible = true;
    allocate_power_max(scenario, plan);  // placement-phase assumption
    return plan;
}

/// Fills `chain` with the connectivity RSs of the steinerized chain above
/// plan node `node`, bottom up, and returns the first node above them: the
/// node's parent in the coverage-RS tree (a coverage RS or a BS).
std::size_t walk_chain(const ConnectivityPlan& plan, std::size_t node,
                       std::vector<std::size_t>& chain) {
    chain.clear();
    std::size_t cur = plan.parent[node];
    while (plan.kinds[cur] == NodeKind::ConnectivityRs) {
        chain.push_back(cur);
        cur = plan.parent[cur];
    }
    return cur;
}

/// Algorithm 8's chain powering, shared by both UCPO variants: zeroes every
/// connectivity RS, then gives each relay on the chain above coverage RS i
/// the power `power(i, section)`, where section is the chain's equal
/// section length (edge length / N_i). Single-hop edges have no relay.
template <typename Power>
void power_chains(std::size_t bs_count, std::size_t cov_count, ConnectivityPlan& plan,
                  Power&& power) {
    for (std::size_t v = 0; v < plan.node_count(); ++v) {
        if (plan.kinds[v] == NodeKind::ConnectivityRs) plan.powers[v] = 0.0;
    }
    std::vector<std::size_t> chain;
    for (std::size_t i = 0; i < cov_count; ++i) {
        const std::size_t top = walk_chain(plan, bs_count + i, chain);
        if (chain.empty()) continue;
        const double edge_len =
            geom::distance(plan.positions[bs_count + i], plan.positions[top]);
        const std::size_t sections = chain.size() + 1;  // N_i segments
        const double p = power(i, units::Meters{edge_len / static_cast<double>(sections)}).watts();
        for (const std::size_t v : chain) plan.powers[v] = p;
    }
}

}  // namespace

ConnectivityPlan solve_mbmc(const Scenario& scenario, const CoveragePlan& coverage) {
    SAG_OBS_SPAN("ucra.mbmc");
    const auto all_bs = ids::all_ids<ids::BsId>(scenario.base_station_count());
    return build_connectivity(scenario, coverage, all_bs);
}

ConnectivityPlan solve_must(const Scenario& scenario, const CoveragePlan& coverage,
                            ids::BsId bs) {
    SAG_OBS_SPAN("ucra.must");
    if (!bs.valid() || bs.index() >= scenario.base_station_count())
        throw std::out_of_range("bs out of range");
    const ids::BsId one[] = {bs};
    return build_connectivity(scenario, coverage, one);
}

void allocate_power_ucpo(const Scenario& scenario, const CoveragePlan& coverage,
                         ConnectivityPlan& plan) {
    SAG_OBS_SPAN("ucra.ucpo");
    require_assignment(scenario, coverage);
    // P^i_rs: strictest received-power requirement among i's subscribers.
    std::vector<units::Watt> p_rs(coverage.rs_count(), units::Watt{0.0});
    for (const ids::SsId j : scenario.ss_ids()) {
        units::Watt& p = p_rs[coverage.assignment[j].index()];
        p = std::max(p, scenario.min_rx_power(j));
    }
    const units::Watt p_max = scenario.rs_max_power();
    power_chains(scenario.base_stations.size(), coverage.rs_count(), plan,
                 [&](std::size_t i, units::Meters seg) {
                     SAG_OBS_COUNT("ucra.ucpo.chains");
                     const units::Watt p_need = scenario.tx_power_for(p_rs[i], seg);
                     if (p_need > p_max) SAG_OBS_COUNT("ucra.ucpo.clamped");
                     return std::min(p_need, p_max);
                 });
}

void allocate_power_ucpo_aggregated(const Scenario& scenario,
                                    const CoveragePlan& coverage,
                                    ConnectivityPlan& plan) {
    SAG_OBS_SPAN("ucra.ucpo_aggregated");
    require_assignment(scenario, coverage);
    const std::size_t bs_count = scenario.base_stations.size();
    const std::size_t cov_count = coverage.rs_count();

    // Each coverage RS's own aggregate data rate: the sum of the Shannon
    // rates its subscribers' required received powers correspond to.
    std::vector<double> subtree_rate(cov_count, 0.0);
    for (const ids::SsId j : scenario.ss_ids()) {
        subtree_rate[coverage.assignment[j].index()] +=
            wireless::shannon_capacity(scenario.radio, scenario.min_rx_power(j));
    }

    // Recover the coverage-RS tree from the plan (a BS above the chain
    // makes coverage RS i a root), then add each subtree's rate into its
    // parent in reverse topological order: children before parents, and
    // siblings always summed in the same order.
    std::vector<std::size_t> cov_parent(cov_count);  // local index
    std::vector<std::size_t> chain;
    for (std::size_t i = 0; i < cov_count; ++i) {
        const std::size_t top = walk_chain(plan, bs_count + i, chain);
        cov_parent[i] = top >= bs_count && top < bs_count + cov_count ? top - bs_count : i;
    }
    const graph::RootedTree cov_tree(std::move(cov_parent));
    const auto& topo = cov_tree.topological_order();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        if (!cov_tree.is_root(*it)) subtree_rate[cov_tree.parent(*it)] += subtree_rate[*it];
    }

    const units::Watt p_max = scenario.rs_max_power();
    power_chains(bs_count, cov_count, plan, [&](std::size_t i, units::Meters seg) {
        const units::Watt p_req =
            wireless::min_rx_power_for_rate(scenario.radio, subtree_rate[i]);
        return std::min(scenario.tx_power_for(p_req, seg), p_max);
    });
}

void allocate_power_max(const Scenario& scenario, ConnectivityPlan& plan) {
    const double p_max = scenario.rs_max_power().watts();
    for (std::size_t v = 0; v < plan.node_count(); ++v) {
        if (plan.kinds[v] == NodeKind::ConnectivityRs) plan.powers[v] = p_max;
    }
}

}  // namespace sag::core
