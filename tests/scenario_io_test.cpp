#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "sag/core/sag.h"
#include "sag/io/scenario_io.h"
#include "sag/sim/paper_presets.h"
#include "sag/sim/scenario_gen.h"
#include "sag/wireless/propagation.h"

namespace sag::io {
namespace {

core::Scenario sample_scenario() {
    sim::GeneratorConfig cfg;
    cfg.field_side = 500.0;
    cfg.subscriber_count = 12;
    cfg.base_station_count = 2;
    cfg.snr_threshold_db = units::Decibel{-17.5};
    cfg.radio.alpha = 2.5;  // non-default to prove it round-trips
    return sim::generate_scenario(cfg, 5);
}

TEST(ScenarioIoTest, JsonRoundTripIsExact) {
    const core::Scenario original = sample_scenario();
    const core::Scenario copy = scenario_from_json(scenario_to_json(original));
    ASSERT_EQ(copy.subscriber_count(), original.subscriber_count());
    for (std::size_t j = 0; j < original.subscriber_count(); ++j) {
        EXPECT_EQ(copy.subscribers[j].pos, original.subscribers[j].pos);
        EXPECT_EQ(copy.subscribers[j].distance_request,
                  original.subscribers[j].distance_request);
    }
    ASSERT_EQ(copy.base_stations.size(), original.base_stations.size());
    EXPECT_EQ(copy.base_stations[1].pos, original.base_stations[1].pos);
    EXPECT_EQ(copy.snr_threshold_db, original.snr_threshold_db);
    EXPECT_EQ(copy.radio.alpha, original.radio.alpha);
    EXPECT_EQ(copy.radio.snr_ambient_noise, original.radio.snr_ambient_noise);
    EXPECT_EQ(copy.field.min, original.field.min);
}

TEST(ScenarioIoTest, TextualRoundTripThroughParser) {
    const core::Scenario original = sample_scenario();
    const std::string text = scenario_to_json(original).dump(2);
    const core::Scenario copy = scenario_from_json(Json::parse(text));
    EXPECT_EQ(copy.subscribers[3].pos, original.subscribers[3].pos);
}

TEST(ScenarioIoTest, RejectsUnknownFormatVersion) {
    Json j = scenario_to_json(sample_scenario());
    j["format"] = Json(99);
    EXPECT_THROW((void)scenario_from_json(j), std::runtime_error);
}

TEST(ScenarioIoTest, RejectsMalformedPoint) {
    Json j = scenario_to_json(sample_scenario());
    j["base_stations"].as_array()[0] = Json(Json::Array{Json(1.0)});  // 1-element
    EXPECT_THROW((void)scenario_from_json(j), std::runtime_error);
}

// --- Negative paths: well-formed JSON carrying a non-physical scenario
// must throw ScenarioFormatError naming the offending field, never crash
// or silently construct a poisoned Scenario.

TEST(ScenarioIoTest, RejectsNanSubscriberCoordinate) {
    Json j = scenario_to_json(sample_scenario());
    j["subscribers"].as_array()[3].as_object()["pos"] =
        Json(Json::Array{Json(std::nan("")), Json(0.0)});
    try {
        (void)scenario_from_json(j);
        FAIL() << "expected ScenarioFormatError";
    } catch (const ScenarioFormatError& e) {
        EXPECT_EQ(e.path(), "subscribers[3].pos[0]");
    }
}

TEST(ScenarioIoTest, RejectsInfiniteBaseStationCoordinate) {
    Json j = scenario_to_json(sample_scenario());
    j["base_stations"].as_array()[1] = Json(
        Json::Array{Json(std::numeric_limits<double>::infinity()), Json(0.0)});
    try {
        (void)scenario_from_json(j);
        FAIL() << "expected ScenarioFormatError";
    } catch (const ScenarioFormatError& e) {
        EXPECT_EQ(e.path(), "base_stations[1][0]");
    }
}

TEST(ScenarioIoTest, RejectsNanFieldCorner) {
    Json j = scenario_to_json(sample_scenario());
    j["field"].as_object()["max"] =
        Json(Json::Array{Json(250.0), Json(std::nan(""))});
    EXPECT_THROW((void)scenario_from_json(j), ScenarioFormatError);
}

TEST(ScenarioIoTest, RejectsNegativeMaxPower) {
    Json j = scenario_to_json(sample_scenario());
    j["radio"].as_object()["max_power"] = Json(-50.0);
    try {
        (void)scenario_from_json(j);
        FAIL() << "expected ScenarioFormatError";
    } catch (const ScenarioFormatError& e) {
        EXPECT_EQ(e.path(), "radio.max_power");
    }
}

TEST(ScenarioIoTest, RejectsNanMaxPower) {
    // RadioParams::validate cannot catch this one itself: every NaN
    // comparison is false, so "max_power <= 0" passes vacuously.
    Json j = scenario_to_json(sample_scenario());
    j["radio"].as_object()["max_power"] = Json(std::nan(""));
    EXPECT_THROW((void)scenario_from_json(j), ScenarioFormatError);
}

TEST(ScenarioIoTest, RejectsNegativeDistanceRequest) {
    Json j = scenario_to_json(sample_scenario());
    j["subscribers"].as_array()[0].as_object()["distance_request"] = Json(-5.0);
    try {
        (void)scenario_from_json(j);
        FAIL() << "expected ScenarioFormatError";
    } catch (const ScenarioFormatError& e) {
        EXPECT_EQ(e.path(), "subscribers[0].distance_request");
    }
}

TEST(ScenarioIoTest, RejectsDuplicateSubscriberPositions) {
    Json j = scenario_to_json(sample_scenario());
    auto& subs = j["subscribers"].as_array();
    subs[4].as_object()["pos"] = subs[1].as_object()["pos"];
    try {
        (void)scenario_from_json(j);
        FAIL() << "expected ScenarioFormatError";
    } catch (const ScenarioFormatError& e) {
        EXPECT_EQ(e.path(), "subscribers[4]");
    }
}

TEST(ScenarioIoTest, RejectsDuplicateBaseStationPositions) {
    Json j = scenario_to_json(sample_scenario());
    auto& bss = j["base_stations"].as_array();
    bss[1] = bss[0];
    EXPECT_THROW((void)scenario_from_json(j), ScenarioFormatError);
}

// --- Schema strictness: a typo'd key must throw with its JSON path, not
// be silently ignored (the file would otherwise lie about what loaded).

TEST(ScenarioIoTest, RejectsUnknownTopLevelKey) {
    Json j = scenario_to_json(sample_scenario());
    j["radioparams"] = Json(1.0);  // typo of "radio"
    try {
        (void)scenario_from_json(j);
        FAIL() << "expected ScenarioFormatError";
    } catch (const ScenarioFormatError& e) {
        EXPECT_EQ(e.path(), "radioparams");
    }
}

TEST(ScenarioIoTest, RejectsUnknownRadioKey) {
    Json j = scenario_to_json(sample_scenario());
    j["radio"].as_object()["tx_power"] = Json(5.0);  // typo of "max_power"
    try {
        (void)scenario_from_json(j);
        FAIL() << "expected ScenarioFormatError";
    } catch (const ScenarioFormatError& e) {
        EXPECT_EQ(e.path(), "radio.tx_power");
    }
}

TEST(ScenarioIoTest, RejectsUnknownSubscriberKey) {
    Json j = scenario_to_json(sample_scenario());
    j["subscribers"].as_array()[2].as_object()["nickname"] = Json(1.0);
    try {
        (void)scenario_from_json(j);
        FAIL() << "expected ScenarioFormatError";
    } catch (const ScenarioFormatError& e) {
        EXPECT_EQ(e.path(), "subscribers[2].nickname");
    }
}

TEST(ScenarioIoTest, RejectsFormat2BlocksInFormat1File) {
    // "profiles" in a format-1 file is a typo/corruption, not an extension.
    Json j = scenario_to_json(sample_scenario());
    ASSERT_EQ(static_cast<int>(j.at("format").as_number()), 1);
    j["profiles"] = Json(Json::Array{});
    try {
        (void)scenario_from_json(j);
        FAIL() << "expected ScenarioFormatError";
    } catch (const ScenarioFormatError& e) {
        EXPECT_EQ(e.path(), "profiles");
    }
}

// --- Format 2: propagation + profile blocks -------------------------------

core::Scenario lora_scenario() {
    return sim::generate_scenario(sim::presets::lora_field(8), 4);
}

TEST(ScenarioIoTest, PlainScenarioStillEmitsFormat1) {
    // Byte-compat guard: scenarios that don't use the extensions keep the
    // original schema, so archived goldens and external tooling still parse.
    const Json j = scenario_to_json(sample_scenario());
    EXPECT_EQ(static_cast<int>(j.at("format").as_number()), 1);
    EXPECT_FALSE(j.contains("propagation"));
    EXPECT_FALSE(j.contains("profiles"));
    EXPECT_FALSE(j.contains("relay_profile"));
    EXPECT_FALSE(j.at("subscribers").as_array()[0].contains("profile"));
}

TEST(ScenarioIoTest, Format2RoundTripLoRa) {
    const core::Scenario original = lora_scenario();
    const Json j = scenario_to_json(original);
    EXPECT_EQ(static_cast<int>(j.at("format").as_number()), 2);
    const core::Scenario copy = scenario_from_json(j);

    ASSERT_TRUE(copy.propagation);
    const auto& lora =
        dynamic_cast<const wireless::LoRaLinkBudgetModel&>(*copy.propagation);
    const auto& orig =
        dynamic_cast<const wireless::LoRaLinkBudgetModel&>(*original.propagation);
    EXPECT_EQ(lora.spreading_factor, orig.spreading_factor);
    EXPECT_EQ(lora.bandwidth_hz, orig.bandwidth_hz);
    EXPECT_EQ(lora.noise_figure.db(), orig.noise_figure.db());
    EXPECT_EQ(lora.path_exponent, orig.path_exponent);
    EXPECT_EQ(lora.frequency_hz, orig.frequency_hz);

    ASSERT_EQ(copy.profiles.size(), original.profiles.size());
    for (std::size_t i = 0; i < copy.profiles.size(); ++i) {
        EXPECT_EQ(copy.profiles[i].name, original.profiles[i].name);
        EXPECT_EQ(copy.profiles[i].max_power.has_value(),
                  original.profiles[i].max_power.has_value());
        EXPECT_EQ(copy.profiles[i].noise_figure.db(),
                  original.profiles[i].noise_figure.db());
        EXPECT_EQ(copy.profiles[i].duty_cycle, original.profiles[i].duty_cycle);
    }
    EXPECT_EQ(copy.relay_profile, original.relay_profile);
    for (std::size_t k = 0; k < copy.subscriber_count(); ++k) {
        EXPECT_EQ(copy.subscribers[k].profile, original.subscribers[k].profile);
    }
    // The physics survive the trip: same sensitivity-floored requirements.
    for (const ids::SsId k : original.ss_ids()) {
        EXPECT_EQ(copy.min_rx_power(k).watts(), original.min_rx_power(k).watts());
    }
}

TEST(ScenarioIoTest, Format2RoundTripShadowedLogDistance) {
    const core::Scenario original = sim::generate_scenario(
        sim::presets::log_distance_shadowed(10, units::Decibel{8.0}, 424242), 6);
    const core::Scenario copy = scenario_from_json(scenario_to_json(original));
    ASSERT_TRUE(copy.propagation);
    const auto& ld =
        dynamic_cast<const wireless::LogDistanceModel&>(*copy.propagation);
    const auto& orig =
        dynamic_cast<const wireless::LogDistanceModel&>(*original.propagation);
    EXPECT_EQ(ld.path_loss_at_ref.db(), orig.path_loss_at_ref.db());
    EXPECT_EQ(ld.exponent, orig.exponent);
    EXPECT_EQ(ld.ref_distance.meters(), orig.ref_distance.meters());
    EXPECT_EQ(ld.shadowing_sigma.db(), orig.shadowing_sigma.db());
    EXPECT_EQ(ld.shadowing_seed, orig.shadowing_seed);
    // Seed round-trip exactness is what makes a reloaded scenario replay
    // the identical shadowing realization.
    const geom::Vec2 a{10.0, 20.0}, b{-120.0, 55.0};
    EXPECT_EQ(copy.received_power(copy.radio.max_power, a, b).watts(),
              original.received_power(original.radio.max_power, a, b).watts());
}

TEST(ScenarioIoTest, RejectsUnknownPropagationKey) {
    Json j = scenario_to_json(sim::generate_scenario(
        sim::presets::log_distance_shadowed(6, units::Decibel{4.0}, 1), 2));
    j["propagation"].as_object()["sigma"] = Json(2.0);  // typo of shadowing_sigma_db
    try {
        (void)scenario_from_json(j);
        FAIL() << "expected ScenarioFormatError";
    } catch (const ScenarioFormatError& e) {
        EXPECT_EQ(e.path(), "propagation.sigma");
    }
}

TEST(ScenarioIoTest, RejectsUnknownPropagationModel) {
    Json j = scenario_to_json(lora_scenario());
    j["propagation"].as_object().clear();
    j["propagation"].as_object()["model"] = Json(std::string("okumura_hata"));
    try {
        (void)scenario_from_json(j);
        FAIL() << "expected ScenarioFormatError";
    } catch (const ScenarioFormatError& e) {
        EXPECT_EQ(e.path(), "propagation.model");
    }
}

TEST(ScenarioIoTest, RejectsUnknownProfileKey) {
    Json j = scenario_to_json(lora_scenario());
    j["profiles"].as_array()[1].as_object()["tx_cap"] = Json(0.5);
    try {
        (void)scenario_from_json(j);
        FAIL() << "expected ScenarioFormatError";
    } catch (const ScenarioFormatError& e) {
        EXPECT_EQ(e.path(), "profiles[1].tx_cap");
    }
}

TEST(ScenarioIoTest, RejectsDanglingRelayProfile) {
    Json j = scenario_to_json(lora_scenario());
    j["relay_profile"] = Json(17.0);
    EXPECT_THROW((void)scenario_from_json(j), std::invalid_argument);
}

// --- Integer fields: a whole number within the cast type's range, or a
// ScenarioFormatError naming the field. A bare cast would truncate (1.5
// -> 1), wrap (2^32 -> profile 0), alias the default profile (2^32 - 1,
// the invalid() sentinel) or be undefined behaviour (1e300).

void expect_format_error(const Json& j, const std::string& path) {
    try {
        (void)scenario_from_json(j);
        FAIL() << "expected ScenarioFormatError at " << path;
    } catch (const ScenarioFormatError& e) {
        EXPECT_EQ(e.path(), path) << e.what();
    }
}

TEST(ScenarioIoTest, RejectsFractionalFormat) {
    Json j = scenario_to_json(sample_scenario());
    j["format"] = Json(1.5);
    expect_format_error(j, "format");
}

TEST(ScenarioIoTest, RejectsFractionalSpreadingFactor) {
    Json j = scenario_to_json(lora_scenario());
    j["propagation"].as_object()["spreading_factor"] = Json(9.7);
    expect_format_error(j, "propagation.spreading_factor");
}

TEST(ScenarioIoTest, RejectsRelayProfileOutsideTheIdRange) {
    for (const double v : {0.7, 1e300, 4294967296.0, 4294967295.0, -1.0}) {
        SCOPED_TRACE(::testing::Message() << "relay_profile " << v);
        Json j = scenario_to_json(lora_scenario());
        j["relay_profile"] = Json(v);
        expect_format_error(j, "relay_profile");
    }
}

TEST(ScenarioIoTest, RejectsSubscriberProfileOutsideTheIdRange) {
    for (const double v : {0.7, 4294967296.0, 4294967295.0, 1e300}) {
        SCOPED_TRACE(::testing::Message() << "profile " << v);
        Json j = scenario_to_json(lora_scenario());
        j["subscribers"].as_array()[2].as_object()["profile"] = Json(v);
        expect_format_error(j, "subscribers[2].profile");
    }
}

TEST(ScenarioIoTest, RejectsShadowingSeedOutsideUint64) {
    for (const double v : {0.5, 18446744073709551616.0 /* 2^64 */, 1e300}) {
        SCOPED_TRACE(::testing::Message() << "shadowing_seed " << v);
        Json j = scenario_to_json(sim::generate_scenario(
            sim::presets::log_distance_shadowed(6, units::Decibel{4.0}, 1), 2));
        j["propagation"].as_object()["shadowing_seed"] = Json(v);
        expect_format_error(j, "propagation.shadowing_seed");
    }
}

// The seed rides in a JSON double. A seed the double holds exactly
// round-trips bit for bit, through the text too; any other is refused on
// save, where it would reload as a different shadowing realization (and
// 2^64 - 1 would save as 2^64, which the reader rejects).
TEST(ScenarioIoTest, ShadowingSeedRoundTripsExactlyOrFailsToSave) {
    const auto shadowed = [](std::uint64_t seed) {
        return sim::generate_scenario(
            sim::presets::log_distance_shadowed(6, units::Decibel{4.0}, seed), 2);
    };
    for (const std::uint64_t seed :
         {std::uint64_t{0}, std::uint64_t{1} << 53, std::uint64_t{1} << 60}) {
        SCOPED_TRACE(::testing::Message() << "shadowing_seed " << seed);
        const core::Scenario copy = scenario_from_json(
            Json::parse(scenario_to_json(shadowed(seed)).dump(2)));
        EXPECT_EQ(dynamic_cast<const wireless::LogDistanceModel&>(*copy.propagation)
                      .shadowing_seed,
                  seed);
    }
    for (const std::uint64_t seed :
         {(std::uint64_t{1} << 53) + 1, std::numeric_limits<std::uint64_t>::max()}) {
        SCOPED_TRACE(::testing::Message() << "shadowing_seed " << seed);
        const core::Scenario s = shadowed(seed);
        try {
            (void)scenario_to_json(s);
            FAIL() << "expected ScenarioFormatError";
        } catch (const ScenarioFormatError& e) {
            EXPECT_EQ(e.path(), "propagation.shadowing_seed") << e.what();
        }
    }
}

TEST(ScenarioIoTest, FileSaveLoad) {
    const std::string path =
        (std::filesystem::temp_directory_path() / "sag_io_test_scenario.json").string();
    const core::Scenario original = sample_scenario();
    save_scenario(path, original);
    const core::Scenario loaded = load_scenario(path);
    EXPECT_EQ(loaded.subscribers[0].pos, original.subscribers[0].pos);
    std::remove(path.c_str());
}

TEST(ScenarioIoTest, LoadMissingFileThrows) {
    EXPECT_THROW((void)load_scenario("/nonexistent/sag.json"), std::runtime_error);
}

TEST(SagResultIoTest, ReportContainsBothTiers) {
    const core::Scenario s = sample_scenario();
    const auto result = core::solve_sag(s);
    ASSERT_TRUE(result.feasible);
    const Json j = sag_result_to_json(result);
    EXPECT_TRUE(j.at("feasible").as_bool());
    EXPECT_EQ(static_cast<std::size_t>(j.at("coverage_rs_count").as_number()),
              result.coverage_rs_count());
    EXPECT_EQ(j.at("coverage_rs").size(), result.coverage_rs_count());
    EXPECT_EQ(j.at("assignment").size(), s.subscriber_count());
    EXPECT_EQ(j.at("relay_tree").size(), result.connectivity.node_count());
    EXPECT_NEAR(j.at("total_power").as_number(), result.total_power(), 1e-9);
    // Report text parses back.
    EXPECT_NO_THROW((void)Json::parse(j.dump(2)));
}

TEST(DeploymentCsvTest, RowsMatchNodeAndSubscriberCounts) {
    const core::Scenario s = sample_scenario();
    const auto result = core::solve_sag(s);
    ASSERT_TRUE(result.feasible);
    std::ostringstream os;
    write_deployment_csv(os, s, result.connectivity);
    std::istringstream is(os.str());
    std::string line;
    std::size_t rows = 0;
    std::getline(is, line);
    EXPECT_EQ(line, "kind,x,y,power,parent_x,parent_y");
    while (std::getline(is, line)) ++rows;
    EXPECT_EQ(rows, s.subscriber_count() + result.connectivity.node_count());
}

}  // namespace
}  // namespace sag::io
