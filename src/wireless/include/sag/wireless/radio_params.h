#pragma once

#include <cmath>
#include <stdexcept>

#include "sag/units/units.h"

namespace sag::wireless {

/// Physical-layer constants of the two-ray ground model and the relay
/// hardware, shared by every algorithm in the library (paper §II, Eq. 2.1).
///
/// Power is expressed in the paper's abstract "power units" carried by
/// units::Watt (the linear-power domain); the defaults are chosen so that
/// an RS transmitting at max_power covers the paper's subscriber distance
/// requests (30-40 length units) and the power plots land at magnitudes
/// comparable to Figs. 4-5 and 7. Every power-typed field is a strong
/// type: assigning a dB value or a distance into one is a compile error.
struct RadioParams {
    double tx_gain = 1.0;               ///< G_t, transmitter antenna gain
    double rx_gain = 1.0;               ///< G_r, receiver antenna gain
    units::Meters tx_height{1.5};       ///< h_t, transmitter tower height
    units::Meters rx_height{1.5};       ///< h_r, receiver tower height
    double alpha = 3.0;                 ///< attenuation factor, paper range [2, 4]
    units::Watt max_power{50.0};        ///< P_max, maximum RS transmission power
    units::Watt noise_floor{1e-7};      ///< N_0, thermal noise at the receiver
    double bandwidth_hz = 1e6;          ///< B, channel bandwidth for Shannon capacity
    /// Distances below this are clamped before applying d^-alpha: the
    /// two-ray model diverges as d -> 0 and the paper's Algorithm 4 may
    /// place an RS exactly on an SS ("move p to the same location as q").
    units::Meters reference_distance{1.0};
    /// N_max of Algorithm 2 (Zone Partition): the largest received power
    /// that may be ignored as inter-zone noise.
    units::Watt ignorable_noise{7.5e-5};
    /// Ambient (thermal) noise added to the interference in every
    /// subscriber SNR denominator: SNR = p_serving / (interference + this).
    /// Paper §II defines SNR_r = P_r / N_0 alongside the interference-only
    /// Definition 2; the default is calibrated so the Fig. 3d feasibility
    /// onset lands where the paper reports it (IAC, whose candidates sit
    /// exactly on the feasible-circle boundary, turns infeasible near
    /// -12 dB; GAC and SAMC survive longer). Set to 0 for the pure
    /// Definition-2 interference-limited model.
    units::Watt snr_ambient_noise{0.065};

    /// Combined constant G = Gt * Gr * ht^2 * hr^2 of Eq. 2.1. Returned
    /// as a bare double: the heights' m^4 dimension is folded into the
    /// model constant that multiplies d^-alpha (the two-ray closed form),
    /// so G has no standalone physical unit worth naming.
    constexpr double combined_gain() const {
        const double ht = tx_height.meters();
        const double hr = rx_height.meters();
        return tx_gain * rx_gain * ht * ht * hr * hr;
    }

    /// Throws std::invalid_argument when any constant is non-finite or
    /// non-physical, or the noise terms are mutually inconsistent.
    void validate() const {
        // Every comparison below is false on NaN, so finiteness comes first.
        const double constants[] = {tx_gain, rx_gain, tx_height.meters(),
                                    rx_height.meters(), alpha, max_power.watts(),
                                    noise_floor.watts(), bandwidth_hz,
                                    reference_distance.meters(),
                                    ignorable_noise.watts(), snr_ambient_noise.watts()};
        for (const double c : constants) {
            if (!std::isfinite(c))
                throw std::invalid_argument("radio constants must be finite");
        }
        if (alpha < 1.0 || alpha > 6.0) throw std::invalid_argument("alpha out of range");
        if (max_power <= units::Watt{0.0})
            throw std::invalid_argument("max_power must be positive");
        if (noise_floor <= units::Watt{0.0})
            throw std::invalid_argument("noise_floor must be positive");
        if (bandwidth_hz <= 0.0) throw std::invalid_argument("bandwidth must be positive");
        if (reference_distance <= units::Meters{0.0})
            throw std::invalid_argument("reference_distance must be positive");
        if (tx_gain <= 0.0 || rx_gain <= 0.0 || tx_height <= units::Meters{0.0} ||
            rx_height <= units::Meters{0.0})
            throw std::invalid_argument("gains/heights must be positive");
        // Zero is legal: nothing is ignorable, so d_max is infinite and the
        // field is one zone.
        if (ignorable_noise < units::Watt{0.0})
            throw std::invalid_argument("ignorable_noise must be non-negative");
        if (snr_ambient_noise < units::Watt{0.0})
            throw std::invalid_argument("snr_ambient_noise must be non-negative");
        // The ambient SNR-denominator term models thermal noise plus
        // inter-zone leakage, so when enabled it cannot undercut the
        // thermal floor N_0 it subsumes...
        if (snr_ambient_noise > units::Watt{0.0} && snr_ambient_noise < noise_floor)
            throw std::invalid_argument(
                "snr_ambient_noise, when positive, must be at least noise_floor");
        // ...and it is bounded above by P_max: an ambient term at or above
        // the maximum transmit power would deny SNR >= 1 (0 dB) even to a
        // subscriber co-located with its max-power server.
        if (snr_ambient_noise >= max_power)
            throw std::invalid_argument("snr_ambient_noise must be below max_power");
    }
};

}  // namespace sag::wireless
