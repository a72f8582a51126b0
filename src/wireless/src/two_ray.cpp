#include "sag/wireless/two_ray.h"

#include <algorithm>
#include <cmath>

namespace sag::wireless {

double path_gain(const RadioParams& params, units::Meters dist) {
    const double d = std::max(dist.meters(), params.reference_distance.meters());
    return params.combined_gain() * std::pow(d, -params.alpha);
}

units::Watt received_power(const RadioParams& params, units::Watt tx_power,
                           units::Meters dist) {
    return tx_power * path_gain(params, dist);
}

units::Watt tx_power_for(const RadioParams& params, units::Watt target_rx_power,
                         units::Meters dist) {
    return target_rx_power / path_gain(params, dist);
}

units::Meters range_for(const RadioParams& params, units::Watt tx_power,
                        units::Watt target_rx_power) {
    const units::SnrRatio headroom =
        tx_power * params.combined_gain() / target_rx_power;
    return units::Meters{std::pow(headroom.ratio(), 1.0 / params.alpha)};
}

}  // namespace sag::wireless
