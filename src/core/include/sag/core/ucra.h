#pragma once

#include <cstddef>

#include "sag/core/deployment.h"
#include "sag/core/scenario.h"
#include "sag/ids/ids.h"

namespace sag::core {

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
/// BS first, and the weight never decreases with length, so an RS-RS edge
/// can matter to RS i only if it is shorter than i's nearest-BS distance
/// nd_i; a heap Prim (graph::prim_mst) relaxes just those edges, found by
/// one sweep-index window of radius nd_i per RS. The one exception is an
/// RS that Prim takes while some BS is still outside the tree (its key is
/// negative: it lies within ~1e-9 d_min of a BS, or of another such RS):
/// it offers its whole row. Cost O(R*B + W + (R + E) log R) for R coverage
/// RSs, B BSs, W RSs summed over the x-windows and E kept edges, in
/// O(R + E) memory. W and E grow with the number of RSs within nd_i of
/// each RS, so few BSs spread thin cost most: MUST, with one BS, keeps
/// O(R^2) edges, as many as the dense matrix held.
///
/// Throws std::invalid_argument unless every subscriber is assigned to one
/// of the plan's RSs (as in an infeasible coverage plan's RsId::invalid()).
ConnectivityPlan solve_mbmc(const Scenario& scenario, const CoveragePlan& coverage);

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
