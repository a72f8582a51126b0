#pragma once

#include <span>

#include "sag/core/scenario.h"
#include "sag/ids/ids.h"

namespace sag::oracles {

/// True when every subscriber in `subs` clears the scenario's SNR
/// threshold with all RSs at max power under the nearest assignment: a
/// one-shot SnrField, the reference the incremental SnrFeasibilityOracle
/// is tested against.
bool snr_feasible_at_max_power(const core::Scenario& scenario,
                               std::span<const geom::Vec2> rs_positions,
                               std::span<const ids::SsId> subs);

}  // namespace sag::oracles
