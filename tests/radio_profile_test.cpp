// RadioProfile semantics: inherit-by-default resolution, noise-figure
// scaling of min_rx_power, validation negatives, the router/client
// factories, and Scenario's invalid-id -> default-profile convention.
#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "sag/core/scenario.h"
#include "sag/sim/paper_presets.h"
#include "sag/sim/scenario_gen.h"
#include "sag/wireless/radio_profile.h"

namespace sag::wireless {
namespace {

TEST(RadioProfileTest, DefaultProfileInheritsEverything) {
    const RadioParams params;
    const RadioProfile p;
    EXPECT_EQ(p.resolve_max_power(params).watts(), params.max_power.watts());
    EXPECT_DOUBLE_EQ(p.noise_figure_factor().ratio(), 1.0);
    EXPECT_DOUBLE_EQ(p.duty_cycle, 1.0);
    EXPECT_NO_THROW(p.validate(params));
}

TEST(RadioProfileTest, MaxPowerOverrideResolves) {
    RadioParams params;
    params.max_power = units::Watt{10.0};
    RadioProfile p;
    p.max_power = units::Watt{2.5};
    EXPECT_EQ(p.resolve_max_power(params).watts(), 2.5);
}

TEST(RadioProfileTest, NoiseFigureFactorIsLinearDb) {
    RadioProfile p;
    p.noise_figure = units::Decibel{3.0};
    EXPECT_NEAR(p.noise_figure_factor().ratio(), std::pow(10.0, 0.3), 1e-12);
    p.noise_figure = units::Decibel{10.0};
    EXPECT_NEAR(p.noise_figure_factor().ratio(), 10.0, 1e-12);
}

TEST(RadioProfileTest, ValidateRejectsNonPhysicalProfiles) {
    const RadioParams params;
    RadioProfile p;
    p.max_power = units::Watt{0.0};
    EXPECT_THROW(p.validate(params), std::invalid_argument);
    p.max_power = params.max_power * 2.0;  // exceeds the scenario cap
    EXPECT_THROW(p.validate(params), std::invalid_argument);
    p.max_power.reset();
    p.noise_figure = units::Decibel{-2.0};
    EXPECT_THROW(p.validate(params), std::invalid_argument);
    p.noise_figure = units::Decibel{0.0};
    p.duty_cycle = 0.0;
    EXPECT_THROW(p.validate(params), std::invalid_argument);
    p.duty_cycle = 1.5;
    EXPECT_THROW(p.validate(params), std::invalid_argument);
}

TEST(RadioProfileTest, RouterFactory) {
    const RadioParams params;
    const RadioProfile router = router_profile();
    EXPECT_EQ(router.name, "router");
    EXPECT_FALSE(router.max_power.has_value());
    EXPECT_NO_THROW(router.validate(params));
}

}  // namespace
}  // namespace sag::wireless

namespace sag::core {
namespace {

Scenario profiled_scenario() {
    sim::GeneratorConfig cfg;
    cfg.field_side = 500.0;
    cfg.subscriber_count = 8;
    cfg.base_station_count = 2;
    cfg.profiles.push_back(wireless::router_profile());
    wireless::RadioProfile noisy;
    noisy.name = "noisy";
    noisy.noise_figure = units::Decibel{6.0};
    cfg.profiles.push_back(noisy);
    cfg.relay_profile = ids::ProfileId{0};
    cfg.subscriber_profile = ids::ProfileId{1};
    return sim::generate_scenario(cfg, 21);
}

TEST(ScenarioProfileTest, InvalidIdResolvesToDefaultProfile) {
    const Scenario s = profiled_scenario();
    const wireless::RadioProfile& p = s.profile(ids::ProfileId::invalid());
    EXPECT_EQ(p.name, "default");
    EXPECT_FALSE(p.max_power.has_value());
    // Out-of-range ids also fall back rather than crash.
    EXPECT_EQ(s.profile(ids::ProfileId{99}).name, "default");
}

TEST(ScenarioProfileTest, NoiseFigureRaisesMinRxPower) {
    Scenario s = profiled_scenario();
    const units::Watt noisy = s.min_rx_power(ids::SsId{0});
    // Strip the profile: the ideal-receiver requirement is 6 dB lower.
    s.subscribers[0].profile = ids::ProfileId::invalid();
    const units::Watt ideal = s.min_rx_power(ids::SsId{0});
    EXPECT_NEAR(noisy.watts() / ideal.watts(), std::pow(10.0, 0.6), 1e-12);
}

TEST(ScenarioProfileTest, RelayProfileCapsRsMaxPower) {
    Scenario s = profiled_scenario();
    EXPECT_EQ(s.rs_max_power().watts(), s.radio.max_power.watts());
    wireless::RadioProfile capped;
    capped.name = "capped";
    capped.max_power = s.radio.max_power * 0.25;
    s.profiles.push_back(capped);
    s.relay_profile = ids::ProfileId{2};
    EXPECT_EQ(s.rs_max_power().watts(), s.radio.max_power.watts() * 0.25);
}

TEST(ScenarioProfileTest, ValidateRejectsDanglingProfileReferences) {
    Scenario s = profiled_scenario();
    EXPECT_NO_THROW(s.validate());
    s.relay_profile = ids::ProfileId{7};
    EXPECT_THROW(s.validate(), std::invalid_argument);
    s.relay_profile = ids::ProfileId{0};
    s.subscribers[2].profile = ids::ProfileId{5};
    EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(ScenarioProfileTest, AllDefaultProfilesAreBitForBitNeutral) {
    // The resolution contract: attaching all-inherit profiles must not
    // move a single double anywhere in the physics.
    sim::GeneratorConfig cfg;
    cfg.field_side = 500.0;
    cfg.subscriber_count = 10;
    cfg.base_station_count = 2;
    const Scenario bare = sim::generate_scenario(cfg, 33);
    cfg.profiles.push_back(wireless::RadioProfile{});
    cfg.relay_profile = ids::ProfileId{0};
    cfg.subscriber_profile = ids::ProfileId{0};
    const Scenario profiled = sim::generate_scenario(cfg, 33);
    for (const ids::SsId j : bare.ss_ids()) {
        EXPECT_EQ(bare.min_rx_power(j).watts(), profiled.min_rx_power(j).watts());
    }
    EXPECT_EQ(bare.rs_max_power().watts(), profiled.rs_max_power().watts());
}

TEST(ScenarioProfileTest, LoRaPresetWiresProfilesEndToEnd) {
    const Scenario s = sim::generate_scenario(sim::presets::lora_field(6), 2);
    ASSERT_EQ(s.profiles.size(), 2u);
    EXPECT_EQ(s.profile(s.relay_profile).name, "router");
    EXPECT_EQ(s.subscriber_profile(ids::SsId{0}).name, "client");
    EXPECT_DOUBLE_EQ(s.subscriber_profile(ids::SsId{0}).duty_cycle, 0.1);
}

}  // namespace
}  // namespace sag::core
