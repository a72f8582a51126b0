#include "sag/sim/paper_presets.h"

#include <cmath>

namespace sag::sim::presets {

GeneratorConfig field500(std::size_t users) {
    GeneratorConfig cfg;
    cfg.subscriber_count = users;
    return cfg;
}

GeneratorConfig field800(std::size_t users) {
    GeneratorConfig cfg;
    cfg.field_side = 800.0;
    cfg.subscriber_count = users;
    return cfg;
}

GeneratorConfig field800_relaxed(std::size_t users) {
    GeneratorConfig cfg = field800(users);
    cfg.snr_threshold_db = units::Decibel{-40.0};
    return cfg;
}

GeneratorConfig field300(std::size_t users) {
    GeneratorConfig cfg;
    cfg.field_side = 300.0;
    cfg.subscriber_count = users;
    return cfg;
}

GeneratorConfig snr_sweep_point(units::Decibel snr_threshold) {
    GeneratorConfig cfg;
    cfg.snr_threshold_db = snr_threshold;
    return cfg;
}

GeneratorConfig topology_showcase() {
    GeneratorConfig cfg;
    cfg.field_side = 600.0;
    cfg.bs_layout = BsLayout::Corners;
    return cfg;
}

GeneratorConfig log_distance_shadowed(std::size_t users, units::Decibel sigma,
                                      std::uint64_t shadowing_seed) {
    GeneratorConfig cfg;
    cfg.subscriber_count = users;
    auto model = std::make_shared<wireless::LogDistanceModel>();
    // PL(d0) = -10 log10 G reproduces the two-ray median channel exactly,
    // so this family differs from the paper baseline only by the fading.
    model->path_loss_at_ref =
        units::Decibel{-10.0 * std::log10(cfg.radio.combined_gain())};
    model->exponent = cfg.radio.alpha;
    model->ref_distance = cfg.radio.reference_distance;
    model->shadowing_sigma = sigma;
    model->shadowing_seed = shadowing_seed;
    cfg.propagation = std::move(model);
    return cfg;
}

GeneratorConfig lora_field(std::size_t users) {
    GeneratorConfig cfg;
    cfg.subscriber_count = users;
    // Long LoRa access links: low-rate subscribers a couple hundred
    // meters out, the regime the SF9 budget is built for.
    cfg.min_distance_request = 150.0;
    cfg.max_distance_request = 250.0;

    auto model = std::make_shared<wireless::LoRaLinkBudgetModel>();
    // Defaults (SF9, 125 kHz, 868 MHz, n = 3.5) are what we want.
    const wireless::LoRaLinkBudgetModel& lora = *model;

    // Real-world power constants (watts): 20 dBm caps, 125 kHz thermal
    // noise + 6 dB NF floor (~-117 dBm), ambient/inter-zone levels scaled
    // to the field's path losses.
    cfg.radio.max_power = units::Watt{0.1};
    cfg.radio.noise_floor = units::from_dbm(
        units::DecibelMilliwatt{-174.0 + 10.0 * std::log10(lora.bandwidth_hz)} +
        lora.noise_figure);
    cfg.radio.bandwidth_hz = lora.bandwidth_hz;
    cfg.radio.ignorable_noise = units::Watt{1.6e-13};
    cfg.radio.snr_ambient_noise = units::Watt{1e-12};
    cfg.propagation = std::move(model);

    // Heterogeneous hardware: full-power router-class relays serve
    // noisier client-class subscriber receivers.
    cfg.profiles.push_back(wireless::router_profile());
    wireless::RadioProfile client;
    client.name = "client";
    client.noise_figure = units::Decibel{6.0};
    client.duty_cycle = 0.1;
    cfg.profiles.push_back(client);
    cfg.relay_profile = ids::ProfileId{0};
    cfg.subscriber_profile = ids::ProfileId{1};
    return cfg;
}

}  // namespace sag::sim::presets
