#pragma once

#include <optional>
#include <stdexcept>
#include <string>

#include "sag/units/units.h"
#include "sag/wireless/radio_params.h"

namespace sag::wireless {

/// Per-station radio class: the hardware heterogeneity layer on top of the
/// scenario-wide RadioParams. A profile overrides the fields that differ
/// between equipment classes (meshtastic-style router vs. client nodes,
/// or the mixed BS/relay deployments of arXiv:1408.6605) while everything
/// else — propagation constants, bandwidth, noise environment — stays
/// shared in RadioParams.
///
/// Resolution contract: a field left at its default ("inherit") resolves
/// to the RadioParams value through the same doubles, so a scenario whose
/// profiles are all-default behaves bit-for-bit like one with no profiles.
struct RadioProfile {
    std::string name = "default";

    /// Transmit power cap of this class. nullopt inherits
    /// RadioParams::max_power (the homogeneous paper model).
    std::optional<units::Watt> max_power;

    /// Receiver noise figure. Raises the station's required received
    /// power by this many dB: a noisier front end needs a proportionally
    /// stronger signal for the same effective rate. 0 dB inherits the
    /// ideal-receiver paper model.
    units::Decibel noise_figure{0.0};

    /// Fraction of time this class may transmit (LoRa/ISM duty limits,
    /// meshtastic router-vs-client airtime budgets). Carried through
    /// scenario IO for downstream schedulers; the placement solvers treat
    /// it as metadata.
    double duty_cycle = 1.0;

    /// P_max of a station in this class.
    units::Watt resolve_max_power(const RadioParams& params) const {
        return max_power ? *max_power : params.max_power;
    }

    /// Linear factor the noise figure applies to a required rx power.
    units::SnrRatio noise_figure_factor() const {
        return units::from_db(noise_figure);
    }

    /// Throws std::invalid_argument on a non-physical profile.
    void validate(const RadioParams& params) const {
        if (max_power && *max_power <= units::Watt{0.0})
            throw std::invalid_argument("profile '" + name +
                                        "': max_power override must be positive");
        if (max_power && *max_power > params.max_power)
            throw std::invalid_argument(
                "profile '" + name +
                "': max_power override exceeds RadioParams::max_power");
        if (noise_figure < units::Decibel{0.0})
            throw std::invalid_argument("profile '" + name +
                                        "': noise_figure must be non-negative");
        if (duty_cycle <= 0.0 || duty_cycle > 1.0)
            throw std::invalid_argument("profile '" + name +
                                        "': duty_cycle must be in (0, 1]");
    }
};

/// Router-class profile: full transmit power, always-on duty — the
/// backbone node class (meshtastic ROUTER/REPEATER).
inline RadioProfile router_profile() {
    RadioProfile p;
    p.name = "router";
    return p;
}

}  // namespace sag::wireless
