#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>

#include "sag/geometry/vec2.h"
#include "sag/units/units.h"
#include "sag/wireless/radio_params.h"
#include "sag/wireless/radio_profile.h"

namespace sag::wireless {

/// Model-resolved path-gain kernel: the flat, branch-predictable form of a
/// PropagationModel's channel, resolved once (one virtual call) and then
/// evaluated in hot loops (SnrField deltas, gain matrices) with zero
/// dispatch. Every large-scale model in this library is a clamped power
/// law `scale * d^-alpha`, optionally multiplied by a deterministic
/// seeded lognormal shadowing term keyed on the link endpoints:
///
///   * two-ray (paper Eq. 2.1): scale = G, alpha = α, no shadowing
///   * log-distance: scale = 10^(-PL(d0)/10) * d0^n, alpha = n,
///     sigma_db-lognormal shadowing
///   * LoRa link budget: free-space-referenced log-distance
///
/// Shadowing is a pure function of (seed, endpoints): the same link under
/// the same seed always fades identically, which is what keeps SnrField's
/// incremental subtract-what-you-added arithmetic exact and scenario
/// replays deterministic. The fade is symmetric (tx<->rx swap yields the
/// same factor), matching the reciprocity of a physical channel.
struct GainKernel {
    double scale = 1.0;      ///< linear gain coefficient of scale * d^-alpha
    double alpha = 2.0;      ///< attenuation exponent
    double clamp_m = 1.0;    ///< distances below this are clamped (d -> 0 divergence)
    double sigma_db = 0.0;   ///< lognormal shadowing std-dev in dB; 0 disables
    std::uint64_t seed = 0;  ///< shadowing realization seed

    /// Linear path gain of the link tx -> rx. `dist_m` must be the
    /// Euclidean distance between the endpoints (callers usually have it
    /// cached; passing it avoids a redundant sqrt).
    double gain(const geom::Vec2& tx, const geom::Vec2& rx, double dist_m) const {
        const double d = dist_m < clamp_m ? clamp_m : dist_m;
        const double g = scale * std::pow(d, -alpha);
        if (sigma_db == 0.0) return g;
        return g * shadow_factor(tx, rx);
    }

    /// Median (shadowing-free) gain at a bare distance: what range/budget
    /// inversions use, since they have no concrete link endpoints.
    double median_gain(double dist_m) const {
        const double d = dist_m < clamp_m ? clamp_m : dist_m;
        return scale * std::pow(d, -alpha);
    }

    /// The lognormal fade factor 10^(X/10), X ~ N(0, sigma_db^2), as a
    /// deterministic symmetric function of the endpoints and the seed.
    double shadow_factor(const geom::Vec2& tx, const geom::Vec2& rx) const;
};

/// Pluggable large-scale propagation model. A model IS its kernel: the
/// virtual surface resolves parameters into a GainKernel (plus optional
/// receiver-sensitivity metadata), and every public gain/range/power query
/// is derived non-virtually from that kernel. This is what guarantees the
/// tentpole invariant — verifiers, solvers, and the incremental SnrField
/// can never disagree about the channel, because there is exactly one
/// gain function per (model, params) pair and all of them evaluate it.
class PropagationModel {
public:
    virtual ~PropagationModel() = default;

    /// Stable identifier used by scenario JSON ("two_ray", "log_distance",
    /// "lora") and diagnostics.
    virtual std::string_view kind() const = 0;

    /// Resolve the hot-loop kernel for these radio constants.
    virtual GainKernel kernel(const RadioParams& params) const = 0;

    /// Receiver sensitivity floor (minimum detectable rx power) for a
    /// station of `profile`'s class, when the model defines one. The LoRa
    /// link-budget model derives it from SF/BW/NF; the geometric models
    /// return nullopt (the paper's rate constraint is distance-derived).
    virtual std::optional<units::Watt> rx_sensitivity(
        const RadioParams& params, const RadioProfile& profile) const {
        (void)params;
        (void)profile;
        return std::nullopt;
    }

    /// Throws std::invalid_argument when the model's own parameters are
    /// non-physical or inconsistent with `params`.
    virtual void validate(const RadioParams& params) const { (void)params; }

    // --- Kernel-derived queries (non-virtual by design; see class doc) ---

    /// Median linear path gain at distance `dist` (shadowing excluded).
    double median_gain(const RadioParams& params, units::Meters dist) const {
        return kernel(params).median_gain(dist.meters());
    }

    /// Per-link linear gain, including this link's deterministic fade.
    double link_gain(const RadioParams& params, const geom::Vec2& tx,
                     const geom::Vec2& rx, units::Meters dist) const {
        return kernel(params).gain(tx, rx, dist.meters());
    }

    /// Largest distance at which `tx_power` still delivers `target_rx`
    /// under the median gain (the coverage-range / big-M inversion).
    units::Meters range_for(const RadioParams& params, units::Watt tx_power,
                            units::Watt target_rx) const {
        const GainKernel k = kernel(params);
        return units::Meters{std::pow(
            tx_power.watts() * k.scale / target_rx.watts(), 1.0 / k.alpha)};
    }
};

/// Paper Eq. 2.1: Pr = Pt * G * d^-alpha with G = Gt*Gr*ht^2*hr^2, the
/// default model and the one every pre-existing scenario means. Produces
/// bit-for-bit the doubles of wireless::path_gain/received_power.
class TwoRayModel final : public PropagationModel {
public:
    std::string_view kind() const override { return "two_ray"; }
    GainKernel kernel(const RadioParams& params) const override {
        GainKernel k;
        k.scale = params.combined_gain();
        k.alpha = params.alpha;
        k.clamp_m = params.reference_distance.meters();
        return k;
    }
};

/// Log-distance path loss with optional seeded lognormal shadowing:
/// PL(d) = PL(d0) + 10 n log10(d / d0) + X_sigma. PL(d0) may be negative:
/// the repo's power scale is abstract, so the reference loss is whatever
/// calibrates the model to the field's length units.
class LogDistanceModel final : public PropagationModel {
public:
    units::Decibel path_loss_at_ref{40.0};  ///< PL(d0) in dB
    double exponent = 3.0;                  ///< n
    units::Meters ref_distance{1.0};        ///< d0; also the clamp distance
    units::Decibel shadowing_sigma{0.0};    ///< sigma of X; 0 = pure log-distance
    std::uint64_t shadowing_seed = 0;

    std::string_view kind() const override { return "log_distance"; }
    GainKernel kernel(const RadioParams& params) const override;
    void validate(const RadioParams& params) const override;
};

/// LoRa-style link budget: free-space-referenced log-distance path loss
/// plus an SF/BW-derived receiver sensitivity,
///   S_dBm = -174 + 10 log10(BW) + NF + SNR_limit(SF),
/// the standard LoRa budget (and exactly the loraGetSnrLimit computation
/// of the esp32_loradv firmware this model is calibrated against). The
/// sensitivity is what a scenario generator inverts into per-subscriber
/// distance requests; the SNR_limit table is the demodulator's floor per
/// spreading factor.
class LoRaLinkBudgetModel final : public PropagationModel {
public:
    int spreading_factor = 9;
    double bandwidth_hz = 125e3;
    units::Decibel noise_figure{6.0};  ///< budget NF; profile NF adds on top
    double path_exponent = 3.5;        ///< n beyond the free-space reference
    units::Meters ref_distance{1.0};   ///< d0 of the free-space reference
    double frequency_hz = 868e6;       ///< carrier, sets PL(d0) via FSPL

    std::string_view kind() const override { return "lora"; }
    GainKernel kernel(const RadioParams& params) const override;
    std::optional<units::Watt> rx_sensitivity(
        const RadioParams& params, const RadioProfile& profile) const override;
    void validate(const RadioParams& params) const override;

    /// Demodulation SNR floor per spreading factor (dB), SF in [7, 12].
    static units::Decibel snr_limit(int sf);
    /// Free-space path loss at ref_distance for this carrier (dB).
    units::Decibel reference_path_loss() const;
    /// The full budget sensitivity in dBm for a given extra receiver NF.
    units::DecibelMilliwatt sensitivity_dbm(units::Decibel extra_noise_figure) const;
};

/// The process-wide default model (two-ray): what a Scenario without an
/// explicit propagation block means.
const PropagationModel& two_ray_model();

// --- Model-parametric link helpers (mirror two_ray.h's free functions) ---

/// Median received power at a bare distance.
units::Watt received_power(const PropagationModel& model, const RadioParams& params,
                           units::Watt tx_power, units::Meters dist);

/// Received power over the concrete link tx -> rx (shadowing included).
units::Watt received_power(const PropagationModel& model, const RadioParams& params,
                           units::Watt tx_power, const geom::Vec2& tx,
                           const geom::Vec2& rx);

/// Minimum transmit power delivering `target_rx_power` at distance `dist`
/// under the median gain. Inverse of the median received_power.
units::Watt tx_power_for(const PropagationModel& model, const RadioParams& params,
                         units::Watt target_rx_power, units::Meters dist);

/// Minimum transmit power delivering `target_rx_power` over the concrete
/// link tx -> rx. Exact inverse of the link received_power: feeding the
/// result back reproduces `target_rx_power` to rounding (tested to 1e-12).
units::Watt tx_power_for(const PropagationModel& model, const RadioParams& params,
                         units::Watt target_rx_power, const geom::Vec2& tx,
                         const geom::Vec2& rx);

/// Largest distance at which `tx_power` still delivers `target_rx_power`
/// (median gain).
units::Meters range_for(const PropagationModel& model, const RadioParams& params,
                        units::Watt tx_power, units::Watt target_rx_power);

/// d_max of Algorithm 2 under this model: where a `max_power` signal drops
/// below the ignorable-noise level N_max.
units::Meters ignorable_noise_distance(const PropagationModel& model,
                                       const RadioParams& params,
                                       units::Watt max_power);

}  // namespace sag::wireless
