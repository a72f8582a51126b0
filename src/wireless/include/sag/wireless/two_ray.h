#pragma once

#include "sag/units/units.h"
#include "sag/wireless/radio_params.h"

namespace sag::wireless {

/// Two-ray ground path-loss model (paper Eq. 2.1):
/// Pr = Pt * G * d^-alpha, with d clamped to params.reference_distance.
units::Watt received_power(const RadioParams& params, units::Watt tx_power,
                           units::Meters dist);

/// Path gain G * d^-alpha alone (received power per unit transmit power,
/// a dimensionless linear attenuation in this scale-free model).
double path_gain(const RadioParams& params, units::Meters dist);

/// Minimum transmit power such that the receiver at distance `dist` sees at
/// least `target_rx_power`. Inverse of received_power in Pt.
units::Watt tx_power_for(const RadioParams& params, units::Watt target_rx_power,
                         units::Meters dist);

/// Largest distance at which a transmitter at `tx_power` still delivers
/// `target_rx_power`: d = (Pt * G / Pr)^(1/alpha).
units::Meters range_for(const RadioParams& params, units::Watt tx_power,
                        units::Watt target_rx_power);

}  // namespace sag::wireless
