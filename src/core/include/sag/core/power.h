#pragma once

#include <span>
#include <vector>

#include "sag/core/deployment.h"
#include "sag/core/feasibility.h"
#include "sag/core/scenario.h"
#include "sag/ids/ids.h"
#include "sag/units/units.h"

namespace sag::core {

/// A lower-tier transmit-power assignment for the coverage RSs of a plan.
struct PowerAllocation {
    std::vector<double> powers;  ///< one per coverage RS, linear watts
    /// verify_coverage's verdict on `powers`, except from
    /// allocate_power_capped (the fixed point's own verdict; its
    /// CappedPower carries verify_coverage's report beside it) and
    /// allocate_power_optimal_lp (the LP's).
    bool feasible = false;
    double total = 0.0;          ///< P_L, sum of the powers (watts)
    int iterations = 0;          ///< solver-specific effort counter
};

/// Coverage power P_c of every RS (paper §III-A2): the minimum transmit
/// power delivering each served subscriber's required received power
/// P^j_ss over its access link — the interference-free data-rate floor,
/// 0 for an RS serving nobody. One pass over the subscribers.
///
/// This and every allocator below but the baseline throw
/// std::invalid_argument (`require_assignment`) unless `plan` assigns
/// each subscriber to one of its RSs; the baseline reports such a plan
/// infeasible through verify_coverage.
ids::IdVec<ids::RsId, units::Watt> coverage_power_floors(const Scenario& scenario,
                                                         const CoveragePlan& plan);

/// SNR power P_snr for RS `rs` given everyone else's current powers (in
/// watts, one per RS): the minimum transmit power that lifts each served
/// subscriber's SNR to beta. A cross-check oracle: each interference is a
/// plain sum of scalar per-link gains, not the allocators' field.
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

/// allocate_power_capped's answer and its audit.
struct CappedPower {
    /// `feasible` is the fixed point's own verdict: converged within
    /// every cap, a requirement at most 1e-9 relative above its cap
    /// counting as within it.
    PowerAllocation allocation;
    /// verify_coverage's report on allocation.powers.
    CoverageReport coverage;
};

/// The same minimal vector under per-RS caps (linear watts, one per RS)
/// instead of a uniform P_max: the post-failure re-escalation of
/// resilience::repair and serve::Session, where degraded RSs run below
/// P_max. One from-scratch SnrField at the loop's start p0 = min(P_c,
/// cap) carries the Gauss-Seidel Yates sweeps: each RS's requirement
/// max(P_c, P_snr) is read off the field, clamped to its cap, and written
/// back only when it changes, until a sweep changes no entry by 1e-10 or
/// more (at most 10,000 sweeps). When the first sweep changes nothing, p0
/// is returned (iterations = 1) and audited on that field; otherwise a
/// from-scratch verify_coverage audits the answer (docs/PERFORMANCE.md,
/// "Yates fixed point on the field"). Throws std::invalid_argument
/// unless there is one cap per RS.
CappedPower allocate_power_capped(const Scenario& scenario, const CoveragePlan& plan,
                                  std::span<const double> caps);

/// Same optimum computed by the dense-simplex LP solver instead of the
/// fixed point, over scalar per-link gains — used to cross-check
/// allocate_power_optimal in tests.
PowerAllocation allocate_power_optimal_lp(const Scenario& scenario,
                                          const CoveragePlan& plan);

/// Baseline: every coverage RS at P_max (the paper's "baseline" curve).
PowerAllocation allocate_power_baseline(const Scenario& scenario,
                                        const CoveragePlan& plan);

}  // namespace sag::core
