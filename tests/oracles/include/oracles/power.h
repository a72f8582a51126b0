#pragma once

#include <span>

#include "sag/core/deployment.h"
#include "sag/core/power.h"
#include "sag/core/scenario.h"
#include "sag/ids/ids.h"
#include "sag/units/units.h"

namespace sag::oracles {

/// SNR power P_snr for RS `rs` given everyone else's current powers (in
/// watts, one per RS): the minimum transmit power that lifts each served
/// subscriber's SNR to beta. A cross-check oracle: each interference is a
/// plain sum of scalar per-link gains, not the allocators' field.
units::Watt snr_power_floor(const core::Scenario& scenario,
                            const core::CoveragePlan& plan, ids::RsId rs,
                            std::span<const double> powers);

/// The optimum of core::allocate_power_optimal computed by the
/// dense-simplex LP solver instead of the fixed point, over scalar
/// per-link gains, to cross-check it. `feasible` is the LP's verdict.
core::PowerAllocation allocate_power_optimal_lp(const core::Scenario& scenario,
                                                const core::CoveragePlan& plan);

}  // namespace sag::oracles
