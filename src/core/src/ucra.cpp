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
#include "sag/obs/obs.h"
#include "sag/wireless/link.h"

namespace sag::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kFirstArcs = 8;  ///< first capacity of an arc list

/// Algorithm 7 Step 5: the MST over the usable BSs and the graph's sites
/// `sites`, as coverage RSs 0..R-1 in that order. Returns each RS's tree
/// parent as a plan node: a BS index, or bs_count plus an RS index. MST
/// vertices: 0 = a virtual super-root, whose zero-weight edges to the BSs
/// let one Prim run yield the multi-rooted forest; 1..B' = the usable
/// BSs; then the RSs.
std::vector<std::size_t> coverage_tree_parents(const MbmcGraph& graph,
                                               std::span<const std::size_t> sites,
                                               std::size_t bs_count) {
    const std::span<const ids::BsId> usable_bs = graph.usable_bs();
    const std::size_t nb = usable_bs.size();
    const std::size_t first_rs = 1 + nb;
    const std::size_t cov_count = sites.size();
    std::vector<std::size_t> rs_of(graph.size(), cov_count);  // site -> RS
    for (std::size_t i = 0; i < cov_count; ++i) rs_of[sites[i]] = i;
    // The RSs by nearest BS, each bucket ascending (a counting sort): BS
    // b's row relaxes by_bs[bucket[b], bucket[b + 1]), the order a scan
    // of every RS would take, in O(its RSs).
    std::vector<std::size_t> bucket(nb + 1, 0);
    for (std::size_t i = 0; i < cov_count; ++i) ++bucket[graph.nearest_bs(sites[i]) + 1];
    std::partial_sum(bucket.begin(), bucket.end(), bucket.begin());
    std::vector<std::size_t> by_bs(cov_count);
    std::vector<std::size_t> next(bucket.begin(), bucket.end() - 1);
    for (std::size_t i = 0; i < cov_count; ++i) by_bs[next[graph.nearest_bs(sites[i])]++] = i;

    // BS keys are at most 0 and ties go to the lower index, so Prim takes
    // every BS before any RS of non-negative key; once they are all in,
    // each outside RS i has key <= its BS edge, and only a strictly
    // lighter arc lowers it: one of the graph's arcs.
    std::size_t bs_in_tree = 0;
    std::size_t offered = 0;
    const auto mst_parent = graph::prim_mst(first_rs + cov_count, 0, [&](std::size_t u,
                                                                         auto&& relax) {
        if (u == 0) {
            for (std::size_t b = 1; b <= nb; ++b) relax(b, 0.0);
        } else if (u <= nb) {
            ++bs_in_tree;
            for (std::size_t k = bucket[u - 1]; k < bucket[u]; ++k) {
                const std::size_t i = by_bs[k];
                relax(first_rs + i, graph.bs_weight(sites[i]));
            }
        } else {
            const std::size_t i = u - first_rs;
            const std::size_t s = sites[i];
            relax(1 + graph.nearest_bs(s), graph.bs_weight(s));
            if (bs_in_tree < nb) {
                // Taken ahead of a BS, so i's key is negative: it lies
                // within ~1e-9 d_min of a BS or of an RS taken before it.
                // RSs whose BS is still outside have infinite keys that
                // any arc lowers, so offer the full dense row.
                for (std::size_t j = 0; j < cov_count; ++j) {
                    if (j != i) {
                        relax(first_rs + j, graph.hop_weight(geom::distance(
                                                graph.site(s), graph.site(sites[j]))));
                    }
                }
                return;
            }
            for (const MbmcGraph::Arc& arc : graph.arcs(s)) {
                if (rs_of[arc.to] == cov_count) continue;  // not in the plan
                relax(first_rs + rs_of[arc.to], arc.weight);
                ++offered;
            }
        }
    });
    SAG_OBS_COUNT_ADD("ucra.mbmc.arcs", offered);

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

/// The vertices of the forest `parent` (parent[v] == v marks a root, and
/// every parent[v] < parent.size()), parents first: the roots ascending,
/// then breadth-first with each vertex's children ascending. Folding a
/// subtree quantity into the parents along the reverse visits children
/// before parents and siblings in one fixed order. Throws
/// std::invalid_argument when the parent array has a cycle.
std::vector<std::size_t> parents_first(const std::vector<std::size_t>& parent) {
    const std::size_t n = parent.size();
    // Children by parent, each run ascending (a counting sort).
    std::vector<std::size_t> first(n + 1, 0);
    for (std::size_t v = 0; v < n; ++v) {
        if (parent[v] != v) ++first[parent[v] + 1];
    }
    std::partial_sum(first.begin(), first.end(), first.begin());
    std::vector<std::size_t> children(first[n]);
    std::vector<std::size_t> next(first.begin(), first.end() - 1);
    for (std::size_t v = 0; v < n; ++v) {
        if (parent[v] != v) children[next[parent[v]]++] = v;
    }
    std::vector<std::size_t> order;
    order.reserve(n);
    for (std::size_t v = 0; v < n; ++v) {
        if (parent[v] == v) order.push_back(v);
    }
    for (std::size_t head = 0; head < order.size(); ++head) {
        const std::size_t v = order[head];
        for (std::size_t c = first[v]; c < first[v + 1]; ++c) order.push_back(children[c]);
    }
    // A vertex on a cycle is never reached from a root.
    if (order.size() != n) throw std::invalid_argument("parent array contains a cycle");
    return order;
}

/// Shared MBMC/MUST construction: Prim over `graph` restricted to
/// `sites` (coverage RS i is site sites[i]), then steinerization.
ConnectivityPlan build_connectivity(const Scenario& scenario,
                                    const CoveragePlan& coverage, const MbmcGraph& graph,
                                    std::span<const std::size_t> sites) {
    const std::size_t bs_count = scenario.base_stations.size();
    const std::size_t cov_count = coverage.rs_count();
    const double dmin = graph.dmin();

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
    if (graph.usable_bs().empty()) {
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
        coverage_tree_parents(graph, sites, bs_count);

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
    std::vector<double> subtree_req = own_req;
    const std::vector<std::size_t> order = parents_first(tree_parent_local);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const std::size_t p = tree_parent_local[*it];
        if (p != *it) subtree_req[p] = std::min(subtree_req[p], subtree_req[*it]);
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

/// MBMC/MUST over a graph built on the plan's own RSs, toward `usable_bs`.
ConnectivityPlan solve_over_own_graph(const Scenario& scenario, const CoveragePlan& coverage,
                                      std::span<const ids::BsId> usable_bs) {
    require_assignment(coverage, scenario.subscriber_count());
    const MbmcGraph graph(scenario, usable_bs, coverage.rs_positions,
                          mbmc_dmin(scenario, coverage));
    std::vector<std::size_t> sites(coverage.rs_count());
    std::iota(sites.begin(), sites.end(), std::size_t{0});
    return build_connectivity(scenario, coverage, graph, sites);
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

MbmcGraph::MbmcGraph(const Scenario& scenario, std::span<const ids::BsId> usable_bs,
                     std::span<const geom::Vec2> sites, double dmin)
    : dmin_(dmin), bs_(usable_bs.begin(), usable_bs.end()) {
    bs_pos_.reserve(bs_.size());
    for (const ids::BsId b : bs_) bs_pos_.push_back(scenario.base_station(b).pos);
    const std::size_t n = sites.size();
    sites_.reserve(n);
    nearest_.reserve(n);
    bs_weight_.reserve(n);
    arcs_.reserve(n);
    std::vector<geom::Circle> reach(n);  // site, nearest-BS distance
    for (std::size_t i = 0; i < n; ++i) reach[i] = {sites[i], add_site(sites[i])};
    if (bs_.empty()) return;

    // The arcs j -> i, found around their target i in ascending i and
    // pushed straight onto source j's list, so each list ascends by
    // target, as append() keeps it, whatever order a window visits in.
    // (A staging copy to transpose would be the build's largest transient
    // allocation.) A list's first allocation holds kFirstArcs: small
    // plans keep a few arcs per RS, large ones tens, so this saves most
    // regrowths. hop_weight never decreases with distance, so such an arc
    // is shorter than i's nearest-BS distance r: it lies in i's box
    // window, within r in y, and within r of i (each test widened by the
    // index's slack, which dwarfs the rounding of the lengths).
    const geom::SweepIndex index = geom::strip_sweep_index(reach);
    std::size_t entries = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double r = reach[i].radius + index.slack;
        entries += geom::box_window(reach, index, sites[i], reach[i].radius, [&](std::size_t j) {
            if (std::abs(sites[j].y - sites[i].y) > r) return;
            if (j == i || geom::distance_sq(sites[i], sites[j]) > r * r) return;
            const double w = hop_weight(geom::distance(sites[i], sites[j]));
            if (w < bs_weight_[i]) {
                if (arcs_[j].empty()) arcs_[j].reserve(kFirstArcs);
                arcs_[j].push_back({i, w});
            }
        });
    }
    SAG_OBS_COUNT_ADD("ucra.mbmc.window_entries", entries);
}

double MbmcGraph::add_site(const geom::Vec2& site) {
    // Algorithm 7 Step 3: each RS links only to its *nearest* usable BS,
    // the least geom::distance, ties to the lower position. Both lengths
    // come from the same rounded differences, and a squared length errs
    // by a few ulps (an absolute 2^-1074 per operation once it is
    // subnormal), so every BS at the least distance has a square within
    // 1e-12 relative plus 1e-300 of the least square. Only those are
    // measured with hypot.
    double least_sq = kInf;
    for (const geom::Vec2& b : bs_pos_) {
        least_sq = std::min(least_sq, geom::distance_sq(site, b));
    }
    const double bound = least_sq * (1.0 + 1e-12) + 1e-300;
    std::size_t best_b = 0;
    double best_d = kInf;
    for (std::size_t b = 0; b < bs_pos_.size(); ++b) {
        if (geom::distance_sq(site, bs_pos_[b]) > bound) continue;
        const double d = geom::distance(site, bs_pos_[b]);
        if (d < best_d) {
            best_d = d;
            best_b = b;
        }
    }
    sites_.push_back(site);
    nearest_.push_back(best_b);
    bs_weight_.push_back(hop_weight(best_d));
    arcs_.emplace_back();
    return best_d;
}

void MbmcGraph::append(geom::Vec2 site) {
    const std::size_t n = sites_.size();
    add_site(site);
    if (bs_.empty()) return;
    // geom::distance is symmetric bit for bit (negating a difference is
    // exact), so one length weighs the arc both ways.
    for (std::size_t i = 0; i < n; ++i) {
        const double w = hop_weight(geom::distance(sites_[i], site));
        if (w < bs_weight_[i]) arcs_[n].push_back({i, w});
        if (w < bs_weight_[n]) arcs_[i].push_back({n, w});
    }
}

double mbmc_dmin(const Scenario& scenario, const CoveragePlan& coverage) {
    return coverage.rs_count() > 0 && !scenario.subscribers.empty()
               ? scenario.min_distance_request()
               : 1.0;
}

ConnectivityPlan solve_mbmc(const Scenario& scenario, const CoveragePlan& coverage) {
    SAG_OBS_SPAN("ucra.mbmc");
    const auto all_bs = ids::all_ids<ids::BsId>(scenario.base_station_count());
    return solve_over_own_graph(scenario, coverage, all_bs);
}

ConnectivityPlan solve_mbmc(const Scenario& scenario, const CoveragePlan& coverage,
                            const MbmcGraph& graph, std::span<const std::size_t> sites) {
    SAG_OBS_SPAN("ucra.mbmc");
    require_assignment(coverage, scenario.subscriber_count());
    const std::span<const ids::BsId> usable_bs = graph.usable_bs();
    bool all_bs = usable_bs.size() == scenario.base_station_count();
    for (std::size_t b = 0; all_bs && b < usable_bs.size(); ++b) {
        all_bs = usable_bs[b].index() == b;
    }
    if (!all_bs) throw std::invalid_argument("MBMC graph is not over every base station");
    if (sites.size() != coverage.rs_count())
        throw std::invalid_argument("MBMC needs one graph site per coverage RS");
    for (std::size_t i = 0; i < sites.size(); ++i) {
        if (sites[i] >= graph.size() || (i > 0 && sites[i] <= sites[i - 1]) ||
            graph.site(sites[i]) != coverage.rs_positions[i]) {
            throw std::invalid_argument("MBMC graph sites do not match the coverage RSs");
        }
    }
    if (!sites.empty() && graph.dmin() != mbmc_dmin(scenario, coverage))
        throw std::invalid_argument("MBMC graph d_min differs from the plan's");
    return build_connectivity(scenario, coverage, graph, sites);
}

ConnectivityPlan solve_must(const Scenario& scenario, const CoveragePlan& coverage,
                            ids::BsId bs) {
    SAG_OBS_SPAN("ucra.must");
    if (!bs.valid() || bs.index() >= scenario.base_station_count())
        throw std::out_of_range("bs out of range");
    const ids::BsId one[] = {bs};
    return solve_over_own_graph(scenario, coverage, one);
}

void allocate_power_ucpo(const Scenario& scenario, const CoveragePlan& coverage,
                         ConnectivityPlan& plan) {
    SAG_OBS_SPAN("ucra.ucpo");
    require_assignment(coverage, scenario.subscriber_count());
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
    require_assignment(coverage, scenario.subscriber_count());
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
    // parent along the reverse of parents_first: children before parents,
    // and siblings always summed in the same order.
    std::vector<std::size_t> cov_parent(cov_count);  // local index
    std::vector<std::size_t> chain;
    for (std::size_t i = 0; i < cov_count; ++i) {
        const std::size_t top = walk_chain(plan, bs_count + i, chain);
        cov_parent[i] = top >= bs_count && top < bs_count + cov_count ? top - bs_count : i;
    }
    const std::vector<std::size_t> order = parents_first(cov_parent);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const std::size_t p = cov_parent[*it];
        if (p != *it) subtree_rate[p] += subtree_rate[*it];
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
