#include "sag/wireless/link.h"

#include <cmath>

namespace sag::wireless {

double shannon_capacity(const RadioParams& params, units::Watt rx_power) {
    const units::SnrRatio snr = rx_power / params.noise_floor;
    return params.bandwidth_hz * std::log2(1.0 + snr.ratio());
}

units::Watt min_rx_power_for_rate(const RadioParams& params, double rate_bps) {
    return params.noise_floor * (std::exp2(rate_bps / params.bandwidth_hz) - 1.0);
}

}  // namespace sag::wireless
