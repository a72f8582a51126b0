#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "sag/core/deployment.h"
#include "sag/core/scenario.h"
#include "sag/geometry/vec2.h"
#include "sag/ids/ids.h"

namespace sag::core {

/// MBMC's candidate graph (paper Algorithm 7 Steps 3-4) over a list of
/// RS sites for one d_min: each site's edge to its nearest usable BS
/// (strictly nearest, ties to the lower position in `usable_bs`), and the
/// RS-RS arcs j -> i lighter than i's BS edge, grouped by source j in
/// ascending target order. No other RS-RS edge can enter the MST: one
/// heavier than the BS edges at both of its ends is the heaviest edge of
/// the cycle through them and the super-root. The arc test is pairwise,
/// so the arcs among any subset of the sites are exactly those of a graph
/// built over that subset alone, and append() gives, bit for bit, the
/// graph built over the longer list. Memory O(S + E) for S sites and E
/// kept arcs.
class MbmcGraph {
public:
    struct Arc {
        std::size_t to;  ///< target site
        double weight;   ///< hop_weight of the arc, below the target's BS edge
    };

    /// The graph over `sites` (possibly none) toward `usable_bs`, found
    /// with one geom::box_window of half-side nd_i (i's nearest-BS
    /// distance) per site i over the y-strips of the sites' sweep index:
    /// O(S*B + S log S + W + E) for B usable BSs and W strip entries
    /// summed over the windows (the `ucra.mbmc.window_entries` counter).
    /// With no usable BS no arc is kept.
    MbmcGraph(const Scenario& scenario, std::span<const ids::BsId> usable_bs,
              std::span<const geom::Vec2> sites, double dmin);

    /// Appends one site: its nearest BS, then its arcs both ways against
    /// every earlier site, in O(size() + B).
    void append(geom::Vec2 site);

    /// Algorithm 7's edge weight: ceil(dist/d_min) - 1 relays, plus
    /// 1e-6 dist/d_min, which breaks ties toward shorter edges.
    double hop_weight(double dist) const {
        return std::ceil(dist / dmin_ - 1e-9) - 1.0 + 1e-6 * dist / dmin_;
    }

    double dmin() const { return dmin_; }
    std::size_t size() const { return sites_.size(); }
    std::span<const ids::BsId> usable_bs() const { return bs_; }
    const geom::Vec2& site(std::size_t s) const { return sites_[s]; }
    /// Position in usable_bs() of site s's nearest BS.
    std::size_t nearest_bs(std::size_t s) const { return nearest_[s]; }
    double bs_weight(std::size_t s) const { return bs_weight_[s]; }
    std::span<const Arc> arcs(std::size_t source) const { return arcs_[source]; }

private:
    /// Records `site` with its nearest BS and no arcs; returns its
    /// nearest-BS distance. Squared distances pick the BSs that can tie
    /// the least; only those are measured with hypot.
    double add_site(const geom::Vec2& site);

    double dmin_;
    std::vector<ids::BsId> bs_;
    std::vector<geom::Vec2> bs_pos_;
    std::vector<geom::Vec2> sites_;
    std::vector<std::size_t> nearest_;
    std::vector<double> bs_weight_;
    std::vector<std::vector<Arc>> arcs_;  ///< by source site
};

/// Algorithm 7's d_min for `coverage`: the least distance request among
/// `scenario`'s subscribers, or 1 when the plan has no RS or the
/// scenario no subscriber (no edge is then weighed).
double mbmc_dmin(const Scenario& scenario, const CoveragePlan& coverage);

/// MBMC — Multiple Base station Minimum Connectivity (paper Algorithm 7):
/// builds the weighted graph over coverage RSs plus each RS's nearest BS
/// (edge weight ceil(len/d_min) - 1), extracts an MST rooted at the base
/// stations, and steinerizes every tree edge so each hop respects the
/// subtree's minimum feasible distance. Inherits MUST's 8*d_max/d_min
/// approximation ratio. Connectivity RS powers are initialized to P_max
/// (the placement assumption); call allocate_power_ucpo to optimize them.
///
/// The MST is exact but sparse: the tree (ties included) is the one the
/// complete-graph dense Prim gives. A zero-weight super-root takes every
/// BS first, and the weight never decreases with length, so Prim
/// (graph::prim_mst) relaxes only the BS edges, each BS's from its RSs
/// bucketed once per call, and the MbmcGraph arcs.
/// The one exception is an RS that Prim takes while some BS is still
/// outside the tree (its key is negative: it lies within ~1e-9 d_min of a
/// BS, or of another such RS): it offers its whole row. This overload
/// builds the graph over the plan's own RSs: O(R*B + W + (R + E) log R)
/// for R coverage RSs. W and E grow with the number of RSs within nd_i of
/// each RS, so few BSs spread thin cost most: MUST, with one BS, keeps
/// O(R^2) arcs, as many as a dense matrix holds.
///
/// Throws std::invalid_argument unless every subscriber is assigned to one
/// of the plan's RSs (as in an infeasible coverage plan's RsId::invalid()).
ConnectivityPlan solve_mbmc(const Scenario& scenario, const CoveragePlan& coverage);

/// MBMC over a prebuilt graph of all `scenario`'s BSs: coverage RS i is
/// graph site `sites[i]`, which must be ascending, hold the RS's position
/// and keep the graph's d_min equal to mbmc_dmin(scenario, coverage). Prim
/// runs over the graph restricted to those sites, so the plan is the one
/// the overload above returns, bit for bit (ties follow site order as
/// they follow plan order there). Costs O(size() + R*B + (R + E') log R)
/// for the E' arcs among the sites. Throws like solve_mbmc, and
/// std::invalid_argument for a graph or site list that breaks the above.
ConnectivityPlan solve_mbmc(const Scenario& scenario, const CoveragePlan& coverage,
                            const MbmcGraph& graph, std::span<const std::size_t> sites);

/// MUST baseline (DARP [1]): identical construction restricted to the
/// single base station `bs` — every coverage RS must reach that BS.
/// Throws like solve_mbmc, and std::out_of_range for a bad `bs`.
ConnectivityPlan solve_must(const Scenario& scenario, const CoveragePlan& coverage,
                            ids::BsId bs);

/// UCPO — Upper-tier Connectivity Power Optimization (paper Algorithm 8):
/// gives every connectivity RS on the edge below coverage RS r_i the power
/// that delivers r_i's strictest subscriber-received-power requirement
/// over that edge's (equal) section length. Overwrites plan.powers.
/// O(S + plan nodes). Throws like solve_mbmc for a bad assignment.
void allocate_power_ucpo(const Scenario& scenario, const CoveragePlan& coverage,
                         ConnectivityPlan& plan);

/// Baseline power: every connectivity RS at P_max.
void allocate_power_max(const Scenario& scenario, ConnectivityPlan& plan);

/// Extension: traffic-aggregation-aware UCPO. Algorithm 8 powers each
/// relay chain for its own coverage RS's strictest subscriber only; on a
/// real relay tree an edge carries the *aggregate* data rate of the whole
/// subtree beneath it. This variant converts each subtree's summed rate
/// back into a required received power (Shannon inverse) and powers the
/// chain for that, clamped at P_max. Always >= the paper's UCPO power;
/// the ablation bench quantifies the undercount. Subtree rates are summed
/// in reverse topological order of the coverage-RS tree, so the result
/// is the same under every standard library. Throws like solve_mbmc for
/// a bad assignment.
void allocate_power_ucpo_aggregated(const Scenario& scenario,
                                    const CoveragePlan& coverage,
                                    ConnectivityPlan& plan);

}  // namespace sag::core
