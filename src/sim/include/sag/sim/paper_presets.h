#pragma once

#include "sag/sim/scenario_gen.h"

namespace sag::sim {

/// Canned generator configurations matching the paper's evaluation
/// settings (§IV-A), so benches and tests name an experiment instead of
/// re-typing its parameters. Each preset starts from GeneratorConfig's
/// defaults, which are the §IV base: 500x500, 30 users, 4 uniform BSs,
/// distance requests U[30, 40], SNR −15 dB. Field sides are 300/500/800
/// unless the figure says otherwise.
namespace presets {

/// Fig. 3(a) / Fig. 4: 500x500 at -15 dB with `users` subscribers.
GeneratorConfig field500(std::size_t users);

/// Fig. 3(b) / Fig. 5: 800x800 at -15 dB.
GeneratorConfig field800(std::size_t users);

/// Fig. 3(c): 800x800 at the relaxed -40 dB threshold.
GeneratorConfig field800_relaxed(std::size_t users);

/// Fig. 7(a): 300x300 at -15 dB.
GeneratorConfig field300(std::size_t users);

/// Fig. 3(d)/(e): 500x500, 30 users, custom SNR threshold.
GeneratorConfig snr_sweep_point(units::Decibel snr_threshold);

/// Fig. 6: 600x600 (plot axes +-300), 30 users, 4 corner BSs.
GeneratorConfig topology_showcase();

/// Log-distance channel calibrated to the two-ray median (PL(d0) =
/// -10 log10 G, same exponent) plus `sigma` of seeded lognormal
/// shadowing: the paper environment with fading, for robustness studies.
GeneratorConfig log_distance_shadowed(std::size_t users, units::Decibel sigma,
                                      std::uint64_t shadowing_seed);

/// LoRa link-budget family: 500x500 in real meters, SF9/125 kHz at
/// 868 MHz, 20 dBm (0.1 W) caps, thermal-noise-scale power constants, and
/// router-class relays serving client-class (6 dB noise-figure)
/// subscribers with 150-250 m distance requests. The non-two-ray
/// end-to-end scenario family.
GeneratorConfig lora_field(std::size_t users);

}  // namespace presets

}  // namespace sag::sim
