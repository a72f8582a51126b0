#include "sag/io/scenario_io.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <sstream>

namespace sag::io {

namespace {

Json vec2_to_json(const geom::Vec2& v) {
    return Json(Json::Array{Json(v.x), Json(v.y)});
}

geom::Vec2 vec2_from_json(const Json& j) {
    if (j.size() != 2) throw std::runtime_error("point must be [x, y]");
    return {j.at(std::size_t{0}).as_number(), j.at(std::size_t{1}).as_number()};
}

// --- Input hardening: well-formed JSON can still carry a non-physical
// scenario (the strict parser rejects NaN literals, but 1e999 parses to
// Inf, and RadioParams::validate's comparisons are all false on NaN).
// Every check below throws ScenarioFormatError with the JSON path.

double require_finite(double v, const std::string& path) {
    if (!std::isfinite(v)) throw ScenarioFormatError(path, "non-finite number");
    return v;
}

geom::Vec2 finite_vec2(const Json& j, const std::string& path) {
    const geom::Vec2 v = vec2_from_json(j);
    require_finite(v.x, path + "[0]");
    require_finite(v.y, path + "[1]");
    return v;
}

double require_non_negative(double v, const std::string& path) {
    require_finite(v, path);
    if (v < 0.0) throw ScenarioFormatError(path, "must be non-negative");
    return v;
}

/// A field the reader casts to an integer type: it must be a whole number
/// in [lo, hi), or the cast would truncate it (1.5 -> 1) or be undefined
/// (1e300).
double require_integer(double v, double lo, double hi, const std::string& path) {
    require_finite(v, path);
    if (v != std::floor(v) || v < lo || v >= hi) {
        throw ScenarioFormatError(path, "must be a whole number in range");
    }
    return v;
}

int require_int(double v, const std::string& path) {
    return static_cast<int>(require_integer(v, -2147483648.0, 2147483648.0, path));
}

/// A profile index: below ProfileId::invalid(), the 32-bit sentinel that
/// means "the default profile".
ids::ProfileId require_profile_id(double v, const std::string& path) {
    // SAG_RAW_OK: the sentinel's raw value bounds the parsed number.
    const double sentinel = ids::ProfileId::invalid().value();
    return ids::ProfileId{
        static_cast<std::uint32_t>(require_integer(v, 0.0, sentinel, path))};
}

void reject_duplicate_positions(const std::vector<geom::Vec2>& positions,
                                const std::string& what) {
    for (std::size_t a = 0; a < positions.size(); ++a) {
        for (std::size_t b = a + 1; b < positions.size(); ++b) {
            if (positions[a] == positions[b]) {
                throw ScenarioFormatError(
                    what + "[" + std::to_string(b) + "]",
                    "duplicate position (same as " + what + "[" +
                        std::to_string(a) + "])");
            }
        }
    }
}

/// Satellite hardening: a typo'd key ("radioparams", "snr_treshold_db")
/// used to be silently ignored, making the file lie about what was loaded.
/// Every object the reader consumes is now checked against its schema.
void reject_unknown_keys(const Json& obj, const std::string& path,
                         std::initializer_list<const char*> allowed) {
    for (const auto& [key, value] : obj.as_object()) {
        bool known = false;
        for (const char* a : allowed) {
            if (key == a) {
                known = true;
                break;
            }
        }
        if (!known) {
            throw ScenarioFormatError(path.empty() ? key : path + "." + key,
                                      "unknown key");
        }
    }
}

Json propagation_to_json(const wireless::PropagationModel& model) {
    Json::Object p;
    p["model"] = Json(std::string(model.kind()));
    if (const auto* ld = dynamic_cast<const wireless::LogDistanceModel*>(&model)) {
        p["path_loss_at_ref_db"] = Json(ld->path_loss_at_ref.db());
        p["exponent"] = Json(ld->exponent);
        p["ref_distance"] = Json(ld->ref_distance.meters());
        p["shadowing_sigma_db"] = Json(ld->shadowing_sigma.db());
        // A seed is written only when the JSON double holds it exactly (its
        // set bits span at most the 53-bit significand): any other seed
        // would reload as a different shadowing realization.
        const std::uint64_t seed = ld->shadowing_seed;
        if (static_cast<int>(std::bit_width(seed)) - std::countr_zero(seed) > 53) {
            throw ScenarioFormatError("propagation.shadowing_seed",
                                      "not exactly representable as a JSON number");
        }
        p["shadowing_seed"] = Json(static_cast<double>(seed));
    } else if (const auto* lora =
                   dynamic_cast<const wireless::LoRaLinkBudgetModel*>(&model)) {
        p["spreading_factor"] = Json(lora->spreading_factor);
        p["bandwidth_hz"] = Json(lora->bandwidth_hz);
        p["noise_figure_db"] = Json(lora->noise_figure.db());
        p["path_exponent"] = Json(lora->path_exponent);
        p["ref_distance"] = Json(lora->ref_distance.meters());
        p["frequency_hz"] = Json(lora->frequency_hz);
    }
    return Json(std::move(p));
}

std::shared_ptr<const wireless::PropagationModel> propagation_from_json(
    const Json& j) {
    const std::string kind = j.at("model").as_string();
    if (kind == "two_ray") {
        reject_unknown_keys(j, "propagation", {"model"});
        return std::make_shared<wireless::TwoRayModel>();
    }
    if (kind == "log_distance") {
        reject_unknown_keys(j, "propagation",
                            {"model", "path_loss_at_ref_db", "exponent",
                             "ref_distance", "shadowing_sigma_db",
                             "shadowing_seed"});
        auto m = std::make_shared<wireless::LogDistanceModel>();
        m->path_loss_at_ref = units::Decibel{require_finite(
            j.get_number("path_loss_at_ref_db", m->path_loss_at_ref.db()),
            "propagation.path_loss_at_ref_db")};
        m->exponent = require_finite(j.get_number("exponent", m->exponent),
                                     "propagation.exponent");
        m->ref_distance = units::Meters{
            require_finite(j.get_number("ref_distance", m->ref_distance.meters()),
                           "propagation.ref_distance")};
        m->shadowing_sigma = units::Decibel{require_non_negative(
            j.get_number("shadowing_sigma_db", m->shadowing_sigma.db()),
            "propagation.shadowing_sigma_db")};
        m->shadowing_seed = static_cast<std::uint64_t>(require_integer(
            j.get_number("shadowing_seed",
                         static_cast<double>(m->shadowing_seed)),
            0.0, 18446744073709551616.0 /* 2^64 */, "propagation.shadowing_seed"));
        return m;
    }
    if (kind == "lora") {
        reject_unknown_keys(j, "propagation",
                            {"model", "spreading_factor", "bandwidth_hz",
                             "noise_figure_db", "path_exponent", "ref_distance",
                             "frequency_hz"});
        auto m = std::make_shared<wireless::LoRaLinkBudgetModel>();
        m->spreading_factor =
            require_int(j.get_number("spreading_factor", m->spreading_factor),
                        "propagation.spreading_factor");
        m->bandwidth_hz = require_finite(
            j.get_number("bandwidth_hz", m->bandwidth_hz),
            "propagation.bandwidth_hz");
        m->noise_figure = units::Decibel{require_non_negative(
            j.get_number("noise_figure_db", m->noise_figure.db()),
            "propagation.noise_figure_db")};
        m->path_exponent = require_finite(
            j.get_number("path_exponent", m->path_exponent),
            "propagation.path_exponent");
        m->ref_distance = units::Meters{
            require_finite(j.get_number("ref_distance", m->ref_distance.meters()),
                           "propagation.ref_distance")};
        m->frequency_hz = require_finite(
            j.get_number("frequency_hz", m->frequency_hz),
            "propagation.frequency_hz");
        return m;
    }
    throw ScenarioFormatError("propagation.model",
                              "unknown propagation model '" + kind + "'");
}

Json profile_to_json(const wireless::RadioProfile& p) {
    Json::Object o;
    o["name"] = Json(p.name);
    if (p.max_power) o["max_power"] = Json(p.max_power->watts());
    o["noise_figure_db"] = Json(p.noise_figure.db());
    o["duty_cycle"] = Json(p.duty_cycle);
    return Json(std::move(o));
}

wireless::RadioProfile profile_from_json(const Json& j, const std::string& path) {
    reject_unknown_keys(j, path,
                        {"name", "max_power", "noise_figure_db", "duty_cycle"});
    wireless::RadioProfile p;
    if (j.contains("name")) p.name = j.at("name").as_string();
    if (j.contains("max_power")) {
        p.max_power = units::Watt{require_non_negative(
            j.at("max_power").as_number(), path + ".max_power")};
    }
    p.noise_figure = units::Decibel{require_non_negative(
        j.get_number("noise_figure_db", 0.0), path + ".noise_figure_db")};
    p.duty_cycle =
        require_finite(j.get_number("duty_cycle", 1.0), path + ".duty_cycle");
    return p;
}

const char* kind_name(core::NodeKind kind) {
    switch (kind) {
        case core::NodeKind::BaseStation: return "BS";
        case core::NodeKind::CoverageRs: return "RS_cover";
        case core::NodeKind::ConnectivityRs: return "RS_connect";
    }
    return "?";
}

}  // namespace

Json scenario_to_json(const core::Scenario& s) {
    // Format versioning: plain two-ray scenarios without profiles keep
    // emitting the original format 1 byte-for-byte (archived goldens and
    // external tooling keep working); the propagation/profiles extensions
    // bump the file to format 2.
    bool has_subscriber_profiles = false;
    for (const auto& sub : s.subscribers) {
        if (sub.profile.valid()) has_subscriber_profiles = true;
    }
    const bool extended = s.propagation != nullptr || !s.profiles.empty() ||
                          s.relay_profile.valid() || has_subscriber_profiles;

    Json j;
    j["format"] = Json(extended ? 2 : 1);
    j["field"] = Json(Json::Object{{"min", vec2_to_json(s.field.min)},
                                   {"max", vec2_to_json(s.field.max)}});
    j["snr_threshold_db"] = Json(s.snr_threshold_db.db());

    // Serialized as raw numbers in the canonical units of each field
    // (meters, watts, dB) — the format predates sag::units and must not
    // change shape under it.
    Json::Object radio;
    radio["tx_gain"] = Json(s.radio.tx_gain);
    radio["rx_gain"] = Json(s.radio.rx_gain);
    radio["tx_height"] = Json(s.radio.tx_height.meters());
    radio["rx_height"] = Json(s.radio.rx_height.meters());
    radio["alpha"] = Json(s.radio.alpha);
    radio["max_power"] = Json(s.radio.max_power.watts());
    radio["noise_floor"] = Json(s.radio.noise_floor.watts());
    radio["bandwidth_hz"] = Json(s.radio.bandwidth_hz);
    radio["reference_distance"] = Json(s.radio.reference_distance.meters());
    radio["ignorable_noise"] = Json(s.radio.ignorable_noise.watts());
    radio["snr_ambient_noise"] = Json(s.radio.snr_ambient_noise.watts());
    j["radio"] = Json(std::move(radio));

    if (extended) {
        if (s.propagation) j["propagation"] = propagation_to_json(*s.propagation);
        if (!s.profiles.empty()) {
            Json::Array profiles;
            for (const auto& p : s.profiles) profiles.push_back(profile_to_json(p));
            j["profiles"] = Json(std::move(profiles));
        }
        if (s.relay_profile.valid()) {
            j["relay_profile"] = Json(s.relay_profile.index());
        }
    }

    Json::Array subs;
    for (const auto& sub : s.subscribers) {
        Json::Object o{{"pos", vec2_to_json(sub.pos)},
                       {"distance_request", Json(sub.distance_request)}};
        if (sub.profile.valid()) o["profile"] = Json(sub.profile.index());
        subs.push_back(Json(std::move(o)));
    }
    j["subscribers"] = Json(std::move(subs));

    Json::Array bss;
    for (const auto& bs : s.base_stations) bss.push_back(vec2_to_json(bs.pos));
    j["base_stations"] = Json(std::move(bss));
    return j;
}

core::Scenario scenario_from_json(const Json& j) {
    const int format = require_int(j.get_number("format", 0), "format");
    if (format != 1 && format != 2) {
        throw ScenarioFormatError("format", "unsupported scenario format version");
    }
    if (format == 1) {
        // The legacy schema: format-2 blocks in a format-1 file are typos,
        // not extensions.
        reject_unknown_keys(j, "",
                            {"format", "field", "snr_threshold_db", "radio",
                             "subscribers", "base_stations"});
    } else {
        reject_unknown_keys(j, "",
                            {"format", "field", "snr_threshold_db", "radio",
                             "subscribers", "base_stations", "propagation",
                             "profiles", "relay_profile"});
    }
    core::Scenario s;
    reject_unknown_keys(j.at("field"), "field", {"min", "max"});
    const Json& field = j.at("field");
    s.field = {finite_vec2(field.at("min"), "field.min"),
               finite_vec2(field.at("max"), "field.max")};
    s.snr_threshold_db = units::Decibel{
        require_finite(j.at("snr_threshold_db").as_number(), "snr_threshold_db")};

    const Json& radio = j.at("radio");
    reject_unknown_keys(radio, "radio",
                        {"tx_gain", "rx_gain", "tx_height", "rx_height",
                         "alpha", "max_power", "noise_floor", "bandwidth_hz",
                         "reference_distance", "ignorable_noise",
                         "snr_ambient_noise"});
    s.radio.tx_gain = radio.get_number("tx_gain", s.radio.tx_gain);
    s.radio.rx_gain = radio.get_number("rx_gain", s.radio.rx_gain);
    s.radio.tx_height =
        units::Meters{radio.get_number("tx_height", s.radio.tx_height.meters())};
    s.radio.rx_height =
        units::Meters{radio.get_number("rx_height", s.radio.rx_height.meters())};
    s.radio.alpha = radio.get_number("alpha", s.radio.alpha);
    s.radio.max_power = units::Watt{require_non_negative(
        radio.get_number("max_power", s.radio.max_power.watts()),
        "radio.max_power")};
    s.radio.noise_floor = units::Watt{require_non_negative(
        radio.get_number("noise_floor", s.radio.noise_floor.watts()),
        "radio.noise_floor")};
    s.radio.bandwidth_hz = radio.get_number("bandwidth_hz", s.radio.bandwidth_hz);
    s.radio.reference_distance = units::Meters{
        radio.get_number("reference_distance", s.radio.reference_distance.meters())};
    s.radio.ignorable_noise = units::Watt{require_non_negative(
        radio.get_number("ignorable_noise", s.radio.ignorable_noise.watts()),
        "radio.ignorable_noise")};
    s.radio.snr_ambient_noise = units::Watt{require_non_negative(
        radio.get_number("snr_ambient_noise", s.radio.snr_ambient_noise.watts()),
        "radio.snr_ambient_noise")};
    // The remaining radio constants pass through RadioParams::validate
    // below, which rejects every non-positive value; NaN sneaks past its
    // comparisons, so pin finiteness here.
    require_finite(s.radio.tx_gain, "radio.tx_gain");
    require_finite(s.radio.rx_gain, "radio.rx_gain");
    require_finite(s.radio.tx_height.meters(), "radio.tx_height");
    require_finite(s.radio.rx_height.meters(), "radio.rx_height");
    require_finite(s.radio.alpha, "radio.alpha");
    require_finite(s.radio.bandwidth_hz, "radio.bandwidth_hz");
    require_finite(s.radio.reference_distance.meters(),
                   "radio.reference_distance");

    if (j.contains("propagation")) {
        s.propagation = propagation_from_json(j.at("propagation"));
    }
    if (j.contains("profiles")) {
        std::size_t pi = 0;
        for (const Json& prof : j.at("profiles").as_array()) {
            s.profiles.push_back(profile_from_json(
                prof, "profiles[" + std::to_string(pi++) + "]"));
        }
    }
    if (j.contains("relay_profile")) {
        s.relay_profile =
            require_profile_id(j.at("relay_profile").as_number(), "relay_profile");
    }

    std::size_t index = 0;
    for (const Json& sub : j.at("subscribers").as_array()) {
        const std::string path = "subscribers[" + std::to_string(index++) + "]";
        reject_unknown_keys(sub, path, {"pos", "distance_request", "profile"});
        core::Subscriber parsed;
        parsed.pos = finite_vec2(sub.at("pos"), path + ".pos");
        parsed.distance_request = require_non_negative(
            sub.at("distance_request").as_number(), path + ".distance_request");
        if (sub.contains("profile")) {
            parsed.profile =
                require_profile_id(sub.at("profile").as_number(), path + ".profile");
        }
        s.subscribers.push_back(parsed);
    }
    index = 0;
    for (const Json& bs : j.at("base_stations").as_array()) {
        s.base_stations.push_back(
            {finite_vec2(bs, "base_stations[" + std::to_string(index++) + "]")});
    }

    std::vector<geom::Vec2> positions;
    positions.reserve(s.subscribers.size());
    for (const auto& sub : s.subscribers) positions.push_back(sub.pos);
    reject_duplicate_positions(positions, "subscribers");
    positions.clear();
    for (const auto& bs : s.base_stations) positions.push_back(bs.pos);
    reject_duplicate_positions(positions, "base_stations");

    s.validate();
    return s;
}

Json sag_result_to_json(const core::SagResult& result) {
    Json j;
    j["feasible"] = Json(result.feasible);
    j["coverage_rs_count"] = Json(result.coverage_rs_count());
    j["connectivity_rs_count"] = Json(result.connectivity_rs_count());
    j["lower_tier_power"] = Json(result.lower_tier_power());
    j["upper_tier_power"] = Json(result.upper_tier_power());
    j["total_power"] = Json(result.total_power());

    Json::Array coverage;
    for (std::size_t i = 0; i < result.coverage.rs_count(); ++i) {
        coverage.push_back(Json(Json::Object{
            {"pos", vec2_to_json(result.coverage.rs_positions[i])},
            {"power", Json(i < result.lower_power.powers.size()
                               ? result.lower_power.powers[i]
                               : 0.0)}}));
    }
    j["coverage_rs"] = Json(std::move(coverage));

    Json::Array assignment;
    // IDs serialize as their raw index — the on-disk format stays integers.
    for (const sag::ids::RsId a : result.coverage.assignment) {
        assignment.push_back(Json(a.index()));
    }
    j["assignment"] = Json(std::move(assignment));

    Json::Array nodes;
    const auto& plan = result.connectivity;
    for (std::size_t v = 0; v < plan.node_count(); ++v) {
        nodes.push_back(Json(Json::Object{{"kind", Json(kind_name(plan.kinds[v]))},
                                          {"pos", vec2_to_json(plan.positions[v])},
                                          {"parent", Json(plan.parent[v])},
                                          {"power", Json(plan.powers[v])}}));
    }
    j["relay_tree"] = Json(std::move(nodes));
    return j;
}

void write_deployment_csv(std::ostream& os, const core::Scenario& scenario,
                          const core::ConnectivityPlan& connectivity) {
    os << "kind,x,y,power,parent_x,parent_y\n";
    for (const auto& sub : scenario.subscribers) {
        os << "SS," << sub.pos.x << ',' << sub.pos.y << ",,,\n";
    }
    for (std::size_t v = 0; v < connectivity.node_count(); ++v) {
        os << kind_name(connectivity.kinds[v]) << ',' << connectivity.positions[v].x
           << ',' << connectivity.positions[v].y << ',' << connectivity.powers[v];
        if (connectivity.parent[v] != v) {
            const auto& p = connectivity.positions[connectivity.parent[v]];
            os << ',' << p.x << ',' << p.y << '\n';
        } else {
            os << ",,\n";
        }
    }
}

std::string read_text_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void write_text_file(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw std::runtime_error("cannot open " + path + " for writing");
    out << content;
    if (!out) throw std::runtime_error("failed writing " + path);
}

void save_scenario(const std::string& path, const core::Scenario& scenario) {
    write_text_file(path, scenario_to_json(scenario).dump(2) + "\n");
}

core::Scenario load_scenario(const std::string& path) {
    return scenario_from_json(Json::parse(read_text_file(path)));
}

}  // namespace sag::io
