#pragma once

#include "sag/units/units.h"
#include "sag/wireless/radio_params.h"

namespace sag::wireless {

/// Shannon link capacity C = B * log2(1 + Pr / N0), in bps.
double shannon_capacity(const RadioParams& params, units::Watt rx_power);

/// Minimum received power that sustains `rate_bps`:
/// Pr = N0 * (2^(rate/B) - 1). Inverse of shannon_capacity.
units::Watt min_rx_power_for_rate(const RadioParams& params, double rate_bps);

}  // namespace sag::wireless
