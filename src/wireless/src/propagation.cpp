#include "sag/wireless/propagation.h"

#include <cstring>
#include <stdexcept>
#include <string>

namespace sag::wireless {

namespace {

/// SplitMix64 finalizer: the standard 64-bit avalanche mix. Used to turn
/// (seed, endpoint coordinates) into i.i.d.-looking uniform bits without
/// any stored state, so the fade of a link is a pure function.
std::uint64_t mix64(std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t hash_point(const geom::Vec2& p) {
    std::uint64_t hx, hy;
    static_assert(sizeof(double) == sizeof(std::uint64_t));
    std::memcpy(&hx, &p.x, sizeof hx);
    std::memcpy(&hy, &p.y, sizeof hy);
    return mix64(hx) ^ mix64(mix64(hy));
}

}  // namespace

double GainKernel::shadow_factor(const geom::Vec2& tx, const geom::Vec2& rx) const {
    // Symmetric endpoint hash: XOR commutes, so tx<->rx swap gives the
    // same fade (channel reciprocity). Two uniform doubles in (0, 1] via
    // the top 53 bits, then one Box-Muller deviate.
    const std::uint64_t h = mix64(seed ^ (hash_point(tx) ^ hash_point(rx)));
    const std::uint64_t h2 = mix64(h);
    const double u1 = static_cast<double>((h >> 11) + 1) * 0x1.0p-53;
    const double u2 = static_cast<double>((h2 >> 11) + 1) * 0x1.0p-53;
    const double z = std::sqrt(-2.0 * std::log(u1)) *
                     std::cos(2.0 * 3.141592653589793238462643383279502884 * u2);
    return std::pow(10.0, sigma_db * z / 10.0);
}

// --- LogDistanceModel ---

GainKernel LogDistanceModel::kernel(const RadioParams& params) const {
    (void)params;
    GainKernel k;
    // PL(d) = PL(d0) + 10 n log10(d/d0)  =>  gain(d) = 10^(-PL0/10) * (d/d0)^-n
    //       = [10^(-PL0/10) * d0^n] * d^-n
    k.scale = std::pow(10.0, -path_loss_at_ref.db() / 10.0) *
              std::pow(ref_distance.meters(), exponent);
    k.alpha = exponent;
    k.clamp_m = ref_distance.meters();
    k.sigma_db = shadowing_sigma.db();
    k.seed = shadowing_seed;
    return k;
}

void LogDistanceModel::validate(const RadioParams& params) const {
    (void)params;
    if (exponent < 1.0 || exponent > 6.0)
        throw std::invalid_argument("log_distance: exponent out of range [1, 6]");
    if (ref_distance <= units::Meters{0.0})
        throw std::invalid_argument("log_distance: ref_distance must be positive");
    if (shadowing_sigma < units::Decibel{0.0})
        throw std::invalid_argument("log_distance: shadowing_sigma must be non-negative");
}

// --- LoRaLinkBudgetModel ---

units::Decibel LoRaLinkBudgetModel::snr_limit(int sf) {
    // Demodulator SNR floor per spreading factor (Semtech SX127x datasheet;
    // the same table as loraGetSnrLimit in SNIPPETS.md §2).
    switch (sf) {
        case 7: return units::Decibel{-7.5};
        case 8: return units::Decibel{-10.0};
        case 9: return units::Decibel{-12.6};
        case 10: return units::Decibel{-15.0};
        case 11: return units::Decibel{-17.5};
        case 12: return units::Decibel{-20.0};
        default:
            throw std::invalid_argument("lora: spreading_factor must be in [7, 12]");
    }
}

units::Decibel LoRaLinkBudgetModel::reference_path_loss() const {
    // FSPL(d0) = 20 log10(4 pi d0 f / c)
    constexpr double kC = 299792458.0;
    constexpr double kPi = 3.141592653589793238462643383279502884;
    return units::Decibel{
        20.0 * std::log10(4.0 * kPi * ref_distance.meters() * frequency_hz / kC)};
}

units::DecibelMilliwatt LoRaLinkBudgetModel::sensitivity_dbm(
    units::Decibel extra_noise_figure) const {
    // S = -174 + 10 log10(BW) + NF + SNR_limit, all in dBm / dB.
    return units::DecibelMilliwatt{-174.0 + 10.0 * std::log10(bandwidth_hz)} +
           noise_figure + extra_noise_figure + snr_limit(spreading_factor);
}

GainKernel LoRaLinkBudgetModel::kernel(const RadioParams& params) const {
    (void)params;
    GainKernel k;
    k.scale = std::pow(10.0, -reference_path_loss().db() / 10.0) *
              std::pow(ref_distance.meters(), path_exponent);
    k.alpha = path_exponent;
    k.clamp_m = ref_distance.meters();
    return k;
}

std::optional<units::Watt> LoRaLinkBudgetModel::rx_sensitivity(
    const RadioParams& params, const RadioProfile& profile) const {
    (void)params;
    return units::from_dbm(sensitivity_dbm(profile.noise_figure));
}

void LoRaLinkBudgetModel::validate(const RadioParams& params) const {
    (void)params;
    snr_limit(spreading_factor);  // throws on SF outside [7, 12]
    if (bandwidth_hz <= 0.0)
        throw std::invalid_argument("lora: bandwidth_hz must be positive");
    if (path_exponent < 1.0 || path_exponent > 6.0)
        throw std::invalid_argument("lora: path_exponent out of range [1, 6]");
    if (ref_distance <= units::Meters{0.0})
        throw std::invalid_argument("lora: ref_distance must be positive");
    if (frequency_hz <= 0.0)
        throw std::invalid_argument("lora: frequency_hz must be positive");
    if (noise_figure < units::Decibel{0.0})
        throw std::invalid_argument("lora: noise_figure must be non-negative");
}

// --- Factory / default ---

const PropagationModel& two_ray_model() {
    static const TwoRayModel model;
    return model;
}

// --- Free helpers ---

units::Watt received_power(const PropagationModel& model, const RadioParams& params,
                           units::Watt tx_power, units::Meters dist) {
    return units::Watt{tx_power.watts() * model.median_gain(params, dist)};
}

units::Watt received_power(const PropagationModel& model, const RadioParams& params,
                           units::Watt tx_power, const geom::Vec2& tx,
                           const geom::Vec2& rx) {
    const units::Meters dist{geom::distance(tx, rx)};
    return units::Watt{tx_power.watts() * model.link_gain(params, tx, rx, dist)};
}

units::Watt tx_power_for(const PropagationModel& model, const RadioParams& params,
                         units::Watt target_rx_power, units::Meters dist) {
    return units::Watt{target_rx_power.watts() / model.median_gain(params, dist)};
}

units::Watt tx_power_for(const PropagationModel& model, const RadioParams& params,
                         units::Watt target_rx_power, const geom::Vec2& tx,
                         const geom::Vec2& rx) {
    const units::Meters dist{geom::distance(tx, rx)};
    return units::Watt{target_rx_power.watts() /
                       model.link_gain(params, tx, rx, dist)};
}

units::Meters range_for(const PropagationModel& model, const RadioParams& params,
                        units::Watt tx_power, units::Watt target_rx_power) {
    return model.range_for(params, tx_power, target_rx_power);
}

units::Meters ignorable_noise_distance(const PropagationModel& model,
                                       const RadioParams& params,
                                       units::Watt max_power) {
    return model.range_for(params, max_power, params.ignorable_noise);
}

}  // namespace sag::wireless
