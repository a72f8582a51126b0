#pragma once

#include <span>
#include <vector>

#include "sag/core/deployment.h"
#include "sag/core/scenario.h"
#include "sag/ids/ids.h"
#include "sag/units/units.h"

namespace sag::core {

/// A lower-tier transmit-power assignment for the coverage RSs of a plan.
struct PowerAllocation {
    std::vector<double> powers;  ///< one per coverage RS, linear watts
    bool feasible = false;
    double total = 0.0;          ///< P_L, sum of the powers (watts)
    int iterations = 0;          ///< solver-specific effort counter
};

/// Coverage power P_c for RS `rs` (paper §III-A2): the minimum transmit
/// power delivering every served subscriber's required received power
/// P^j_ss over its access link — interference-free data-rate floor.
units::Watt coverage_power_floor(const Scenario& scenario, const CoveragePlan& plan,
                                 ids::RsId rs);

/// SNR power P_snr for RS `rs` given everyone else's current powers (in
/// watts, one per RS): the minimum transmit power that lifts each served
/// subscriber's SNR to beta.
units::Watt snr_power_floor(const Scenario& scenario, const CoveragePlan& plan,
                            ids::RsId rs, std::span<const double> powers);

/// Tuning for PRO; the paper's Algorithm 6 Step 11 picks the stuck RS
/// with the smallest P_snr - P_c premium. FirstIndex replaces that rule
/// with "lowest index first" — the ablation bench quantifies how much the
/// min-premium rule actually buys.
struct ProOptions {
    enum class Selection { MinDelta, FirstIndex };
    Selection selection = Selection::MinDelta;
};

/// PRO — Power Reduction Optimization (paper Algorithm 6, a (1+phi)-
/// approximation): iteratively drop RSs to their coverage power when their
/// subscribers' SNR survives; when stuck, pay the smallest P_snr - P_c gap.
PowerAllocation allocate_power_pro(const Scenario& scenario, const CoveragePlan& plan,
                                   const ProOptions& options = {});

/// Optimal LPQC power allocation (paper (3.6)-(3.9)): with the topology
/// fixed the SNR constraints are linear in the powers, and iterating the
/// standard interference function from the coverage floors converges to
/// the minimal feasible vector (Yates' framework). Exact optimum — the
/// "optimal" curve of Figs. 4a/5a.
PowerAllocation allocate_power_optimal(const Scenario& scenario,
                                       const CoveragePlan& plan);

/// The same minimal vector under per-RS caps (linear watts, one per RS)
/// instead of a uniform P_max: the post-failure re-escalation of
/// resilience::repair and serve::Session, where degraded RSs run below
/// P_max. `feasible` is the fixed point's own verdict (converged within
/// every cap); callers wanting the verifier's verdict run
/// verify_coverage on `powers`.
PowerAllocation allocate_power_capped(const Scenario& scenario,
                                      const CoveragePlan& plan,
                                      std::span<const double> caps);

/// Same optimum computed by the dense-simplex LP solver instead of the
/// fixed point — used to cross-check allocate_power_optimal in tests.
PowerAllocation allocate_power_optimal_lp(const Scenario& scenario,
                                          const CoveragePlan& plan);

/// Baseline: every coverage RS at P_max (the paper's "baseline" curve).
PowerAllocation allocate_power_baseline(const Scenario& scenario,
                                        const CoveragePlan& plan);

}  // namespace sag::core
