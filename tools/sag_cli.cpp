// sag_cli — command-line front end for the library.
//
//   sag_cli generate --out scenario.json [--users N] [--bs N] [--field S]
//                    [--snr DB] [--seed K] [--bs-layout uniform|corners|center]
//                    [--propagation two_ray|log_distance|lora]
//                    [--shadowing-sigma DB] [--shadowing-seed K]
//       Generate a random scenario and write it as JSON. --propagation
//       log_distance adds seeded lognormal shadowing on the two-ray-
//       calibrated median; lora switches to the SF9/125kHz link-budget
//       preset (real-meter power scale, router/client profiles).
//
//   sag_cli solve --scenario scenario.json [--out result.json] [--csv tree.csv]
//                 [--coverage samc|iac|gac] [--grid SIZE] [--trace-json FILE]
//       Run the SAG pipeline (coverage + PRO + MBMC + UCPO) and report.
//       --trace-json writes the obs::RunReport (per-phase spans + solver
//       counters; schema in docs/OBSERVABILITY.md).
//
//   sag_cli verify --scenario scenario.json --result result.json
//       Re-check a previously produced deployment against its scenario.
//
//   sag_cli resilience --scenario scenario.json [--model independent|disc|degrade]
//                      [--fraction F] [--radius R] [--factor F] [--seed K]
//                      [--out report.json]
//       Solve the scenario, inject seeded RS failures, assess the damage,
//       run the staged self-healing repair, and report coverage survival
//       and power overhead (survivability JSON schema in docs/RESILIENCE.md).
//
//   sag_cli serve --scenario scenario.json --events stream.jsonl
//                 [--out report.jsonl] [--threads N] [--budget SECONDS]
//                 [--fault-stage P] [--fault-resolve P] [--fault-seed K]
//       Solve the scenario, then feed the JSONL churn stream through a
//       serve::Session and report one outcome line per event (byte-
//       deterministic replay fingerprint; schema in docs/SERVING.md).
//       Exits non-zero if any event breaks the verified-or-degraded
//       serving contract.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "sag/core/candidates.h"
#include "sag/core/feasibility.h"
#include "sag/core/ilpqc.h"
#include "sag/core/sag.h"
#include "sag/io/event_io.h"
#include "sag/io/report_io.h"
#include "sag/io/resilience_io.h"
#include "sag/io/scenario_io.h"
#include "sag/obs/obs.h"
#include "sag/serve/session.h"
#include "sag/resilience/damage.h"
#include "sag/resilience/failure.h"
#include "sag/resilience/repair.h"
#include "sag/sim/paper_presets.h"
#include "sag/sim/scenario_gen.h"

namespace {

using namespace sag;

/// A flag whose value is malformed: main() prints the message and the
/// usage text, and exits 2.
struct BadFlag : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/// Finite, integral and within [0, 2^53]: the rule event_io applies to
/// ids, so every count or index converts to an integer exactly.
bool is_count(double v) {
    return std::isfinite(v) && v >= 0.0 && v == std::floor(v) &&
           v <= 9007199254740992.0 /* 2^53 */;
}

/// Tiny --key value / --flag argument map.
class Args {
public:
    Args(int argc, char** argv) {
        for (int i = 2; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0) continue;
            key = key.substr(2);
            if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
                values_[key] = argv[++i];
            } else {
                values_[key] = "";
            }
        }
    }
    std::optional<std::string> get(const std::string& key) const {
        const auto it = values_.find(key);
        return it == values_.end() ? std::nullopt : std::make_optional(it->second);
    }
    std::string get_or(const std::string& key, const std::string& fallback) const {
        return get(key).value_or(fallback);
    }
    /// --key as a real: any finite number.
    double real_or(const std::string& key, double fallback) const {
        const auto v = get(key);
        return v ? parse(key, *v) : fallback;
    }
    /// --key as a count (see is_count).
    std::uint64_t count_or(const std::string& key, std::uint64_t fallback) const {
        const auto v = get(key);
        if (!v) return fallback;
        const double d = parse(key, *v);
        if (!is_count(d)) {
            throw BadFlag("--" + key + " needs a whole number in [0, 2^53], got '" +
                          *v + "'");
        }
        return static_cast<std::uint64_t>(d);
    }

private:
    static double parse(const std::string& key, const std::string& text) {
        char* end = nullptr;
        const double d = std::strtod(text.c_str(), &end);
        if (text.empty() || end != text.c_str() + text.size() || !std::isfinite(d)) {
            throw BadFlag("--" + key + " needs a finite number, got '" + text + "'");
        }
        return d;
    }

    std::map<std::string, std::string> values_;
};

int usage() {
    std::fprintf(stderr,
                 "usage:\n"
                 "  sag_cli generate --out FILE [--users N] [--bs N] [--field S]"
                 " [--snr DB] [--seed K] [--bs-layout uniform|corners|center]"
                 " [--propagation two_ray|log_distance|lora]"
                 " [--shadowing-sigma DB] [--shadowing-seed K]\n"
                 "  sag_cli solve --scenario FILE [--out FILE] [--csv FILE]"
                 " [--coverage samc|iac|gac] [--grid SIZE] [--trace-json FILE]\n"
                 "  sag_cli verify --scenario FILE --result FILE\n"
                 "  sag_cli resilience --scenario FILE"
                 " [--model independent|disc|degrade] [--fraction F]"
                 " [--radius R] [--factor F] [--seed K] [--out FILE]\n"
                 "  sag_cli serve --scenario FILE --events FILE [--out FILE]"
                 " [--threads N] [--budget SECONDS] [--fault-stage P]"
                 " [--fault-resolve P] [--fault-seed K]\n");
    return 2;
}

int cmd_generate(const Args& args) {
    const auto out = args.get("out");
    if (!out) return usage();
    const std::string propagation = args.get_or("propagation", "two_ray");
    sim::GeneratorConfig cfg;
    if (propagation == "log_distance") {
        cfg = sim::presets::log_distance_shadowed(
            30, units::Decibel{args.real_or("shadowing-sigma", 4.0)},
            args.count_or("shadowing-seed", 1));
    } else if (propagation == "lora") {
        cfg = sim::presets::lora_field(30);
    } else if (propagation != "two_ray") {
        std::fprintf(stderr, "unknown propagation model '%s'\n",
                     propagation.c_str());
        return usage();
    }
    cfg.field_side = args.real_or("field", cfg.field_side);
    cfg.subscriber_count = args.count_or("users", 30);
    cfg.base_station_count = args.count_or("bs", 4);
    cfg.snr_threshold_db =
        sag::units::Decibel{args.real_or("snr", cfg.snr_threshold_db.db())};
    const std::string layout = args.get_or("bs-layout", "uniform");
    cfg.bs_layout = layout == "corners"  ? sim::BsLayout::Corners
                    : layout == "center" ? sim::BsLayout::Center
                                         : sim::BsLayout::Uniform;
    const std::uint64_t seed = args.count_or("seed", 1);
    const core::Scenario scenario = sim::generate_scenario(cfg, seed);
    io::save_scenario(*out, scenario);
    std::printf(
        "wrote %s (%zu subscribers, %zu base stations, %.0fx%.0f, %s)\n",
        out->c_str(), cfg.subscriber_count, cfg.base_station_count,
        cfg.field_side, cfg.field_side,
        std::string(scenario.model().kind()).c_str());
    return 0;
}

int cmd_solve(const Args& args) {
    const auto scenario_path = args.get("scenario");
    if (!scenario_path) return usage();
    const core::Scenario scenario = io::load_scenario(*scenario_path);
    const auto trace_path = args.get("trace-json");

    // Install the sink only when a trace was requested: without it the
    // instrumentation stays on its no-sink (one branch) path.
    std::optional<obs::ScopedRecorder> recorder;
    if (trace_path) recorder.emplace();

    const std::string method = args.get_or("coverage", "samc");
    core::CoveragePlan coverage;
    {
        SAG_OBS_SPAN("sag.coverage");
        if (method == "samc") {
            coverage = core::solve_samc(scenario).plan;
        } else if (method == "iac" || method == "gac") {
            core::IlpqcOptions opts;
            opts.time_budget_seconds = 10.0;
            const auto candidates =
                method == "iac"
                    ? core::iac_candidates(scenario)
                    : core::prune_useless_candidates(
                          scenario,
                          core::gac_candidates(scenario, args.real_or("grid", 15.0)));
            coverage = core::solve_ilpqc_coverage(scenario, candidates, opts);
        } else {
            std::fprintf(stderr, "unknown coverage method '%s'\n", method.c_str());
            return usage();
        }
    }

    const core::SagResult result = core::green_pipeline(scenario, std::move(coverage));
    if (trace_path) {
        io::write_run_report(recorder->snapshot(), *trace_path);
        std::printf("wrote %s\n", trace_path->c_str());
    }
    std::printf("coverage method : %s\n", method.c_str());
    std::printf("propagation     : %s\n",
                std::string(scenario.model().kind()).c_str());
    std::printf("feasible        : %s\n", result.feasible ? "yes" : "no");
    if (result.feasible) {
        std::printf("coverage RSs    : %zu\n", result.coverage_rs_count());
        std::printf("connectivity RSs: %zu\n", result.connectivity_rs_count());
        std::printf("P_L / P_H       : %.2f / %.2f\n", result.lower_tier_power(),
                    result.upper_tier_power());
        std::printf("P_total         : %.2f\n", result.total_power());
    }

    if (const auto out = args.get("out")) {
        io::write_text_file(*out, io::sag_result_to_json(result).dump(2) + "\n");
        std::printf("wrote %s\n", out->c_str());
    }
    if (const auto csv = args.get("csv")) {
        std::ofstream os(*csv);
        io::write_deployment_csv(os, scenario, result.connectivity);
        std::printf("wrote %s\n", csv->c_str());
    }
    return result.feasible ? 0 : 1;
}

int cmd_verify(const Args& args) {
    const auto scenario_path = args.get("scenario");
    const auto result_path = args.get("result");
    if (!scenario_path || !result_path) return usage();
    const core::Scenario scenario = io::load_scenario(*scenario_path);
    const io::Json report = io::Json::parse(io::read_text_file(*result_path));

    // Rebuild the coverage plan + powers from the archived report.
    core::CoveragePlan coverage;
    coverage.feasible = report.at("feasible").as_bool();
    std::vector<double> powers;
    for (const auto& rs : report.at("coverage_rs").as_array()) {
        const auto& pos = rs.at("pos");
        coverage.rs_positions.push_back(
            {pos.at(std::size_t{0}).as_number(), pos.at(std::size_t{1}).as_number()});
        powers.push_back(rs.at("power").as_number());
    }
    for (const auto& a : report.at("assignment").as_array()) {
        if (!a.is_number() || !is_count(a.as_number()) ||
            a.as_number() > std::numeric_limits<ids::RsId::underlying>::max()) {
            throw std::runtime_error("result field 'assignment': entry " +
                                     std::to_string(coverage.assignment.size()) +
                                     " is not an RS index");
        }
        coverage.assignment.push_back(
            ids::RsId{static_cast<std::size_t>(a.as_number())});
    }

    const auto check = core::verify_coverage(scenario, coverage, powers);
    std::printf("coverage check: %s (%zu violations over %zu subscribers)\n",
                check.feasible ? "OK" : "FAILED", check.violations,
                check.subscribers.size());
    return check.feasible ? 0 : 1;
}

int cmd_resilience(const Args& args) {
    const auto scenario_path = args.get("scenario");
    if (!scenario_path) return usage();
    const core::Scenario scenario = io::load_scenario(*scenario_path);

    const core::SagResult deployment = core::solve_sag(scenario);
    if (!deployment.feasible) {
        std::fprintf(stderr,
                     "scenario is infeasible for the intact pipeline; "
                     "nothing to damage\n");
        return 1;
    }

    const std::uint64_t seed = args.count_or("seed", 1);
    const std::string model = args.get_or("model", "independent");
    resilience::FailureSet failures;
    if (model == "independent") {
        resilience::IndependentFailureModel m;
        m.probability = args.real_or("fraction", 0.1);
        failures = resilience::inject_independent(deployment, m, seed);
    } else if (model == "disc") {
        resilience::DiscOutageModel m;
        m.radius = units::Meters{args.real_or("radius", 100.0)};
        failures = resilience::inject_disc_outage(scenario, deployment, m, seed);
    } else if (model == "degrade") {
        resilience::PowerDegradationModel m;
        m.probability = args.real_or("fraction", 0.1);
        m.factor = args.real_or("factor", 0.5);
        failures = resilience::inject_power_degradation(deployment, m, seed);
    } else {
        std::fprintf(stderr, "unknown failure model '%s'\n", model.c_str());
        return usage();
    }

    const auto damage = resilience::assess_damage(scenario, deployment, failures);
    const auto outcome = resilience::repair(scenario, deployment, failures);

    std::printf("failure model   : %s (seed %llu)\n", model.c_str(),
                static_cast<unsigned long long>(seed));
    std::printf("failed RSs      : %zu coverage, %zu connectivity"
                " (%zu degraded)\n",
                failures.coverage_down.size(), failures.connectivity_down.size(),
                failures.degraded.size());
    std::printf("damage          : %zu orphaned SSs, %zu cut-off RSs\n",
                damage.orphaned.size(), damage.cut_off.size());
    std::printf("repair          : %zu reassigned, %zu new relays, "
                "%zu unrecoverable (%d rounds)\n",
                outcome.reassigned, outcome.new_relays,
                outcome.unrecoverable.size(), outcome.rounds);
    std::printf("verified        : %s\n",
                outcome.repaired.feasible ? "yes" : "no");
    std::printf("coverage kept   : %zu / %zu\n", outcome.covered.size(),
                scenario.subscriber_count());
    std::printf("P_total         : %.2f -> %.2f (overhead %.3f)\n",
                outcome.power_before, outcome.power_after,
                outcome.power_overhead());

    if (const auto out = args.get("out")) {
        io::write_text_file(
            *out,
            io::survivability_to_json(failures, damage, outcome).dump(2) + "\n");
        std::printf("wrote %s\n", out->c_str());
    }
    return outcome.repaired.feasible ? 0 : 1;
}

int cmd_serve(const Args& args) {
    const auto scenario_path = args.get("scenario");
    const auto events_path = args.get("events");
    if (!scenario_path || !events_path) return usage();
    const core::Scenario scenario = io::load_scenario(*scenario_path);

    std::vector<serve::Event> events;
    try {
        events = io::events_from_jsonl(io::read_text_file(*events_path));
    } catch (const io::EventFormatError& e) {
        std::fprintf(stderr, "error: %s: %s\n", events_path->c_str(), e.what());
        return 1;
    }

    const core::SagResult deployment = core::solve_sag(scenario);
    if (!deployment.feasible) {
        std::fprintf(stderr,
                     "scenario is infeasible for the intact pipeline; "
                     "nothing to serve\n");
        return 1;
    }

    serve::ServeOptions opts;
    opts.threads = args.count_or("threads", 1);
    opts.event_budget_seconds = args.real_or("budget", 0.0);
    serve::FaultOptions faults;
    faults.stage_timeout_probability = args.real_or("fault-stage", 0.0);
    faults.resolve_timeout_probability = args.real_or("fault-resolve", 0.0);
    faults.seed = args.count_or("fault-seed", 1);
    opts.faults = serve::FaultPlan(faults);

    serve::Session session(scenario, deployment, opts);
    std::string report;
    std::size_t rejected = 0, degraded = 0, adopted = 0, contract_broken = 0;
    for (const serve::Event& event : events) {
        const serve::EventOutcome out = session.apply(event);
        rejected += out.level == serve::RepairLevel::Rejected ? 1 : 0;
        degraded += out.degraded ? 1 : 0;
        adopted += out.resolve_adopted ? 1 : 0;
        contract_broken += (out.verified || out.degraded) ? 0 : 1;
        report += io::event_outcome_to_json(out).dump();
        report.push_back('\n');
    }

    std::printf("events          : %zu (%zu rejected)\n", events.size(),
                rejected);
    std::printf("degraded events : %zu\n", degraded);
    std::printf("re-solves       : %zu adopted\n", adopted);
    std::printf("final           : %zu subscribers, %zu unserved, "
                "%zu active RSs, P_total %.2f\n",
                session.live_subscriber_count(), session.unserved_count(),
                session.active_rs_count(), session.total_power());
    if (const auto out = args.get("out")) {
        io::write_text_file(*out, report);
        std::printf("wrote %s\n", out->c_str());
    }
    if (contract_broken > 0) {
        std::fprintf(stderr,
                     "serving contract broken on %zu events "
                     "(neither verified nor degraded)\n",
                     contract_broken);
        return 1;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    const Args args(argc, argv);
    const std::string cmd = argv[1];
    try {
        if (cmd == "generate") return cmd_generate(args);
        if (cmd == "solve") return cmd_solve(args);
        if (cmd == "verify") return cmd_verify(args);
        if (cmd == "resilience") return cmd_resilience(args);
        if (cmd == "serve") return cmd_serve(args);
    } catch (const BadFlag& e) {
        std::fprintf(stderr, "%s: %s\n", cmd.c_str(), e.what());
        return usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return usage();
}
