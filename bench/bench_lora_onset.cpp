// Feasibility-onset curve of the LoRa link-budget family: the non-two-ray
// scenario family run end-to-end through solve_sag. Sweeps the SNR
// threshold beta (and user density) over presets::lora_field and reports
// the share of seeds that stay feasible, the deployment sizes, and the
// total power. Expected shape: full feasibility at the permissive end, a
// sharp onset as beta approaches the ambient-noise-limited SNR of a
// 150-250 m SF9 access link (~-5 dB), mirroring the paper's Fig. 3(d)
// infeasibility cliff under the two-ray model. Every feasible point is
// re-checked by the independent verifiers. Writes the curve to
// results/LORA_ONSET.json for plotting.
#include "bench_common.h"

#include <cmath>

#include "sag/core/feasibility.h"
#include "sag/core/sag.h"
#include "sag/io/json.h"
#include "sag/io/scenario_io.h"
#include "sag/sim/paper_presets.h"

namespace {

using namespace sag;
using bench::BenchConfig;
using bench::kInfeasible;
using bench::SeedAverage;

struct PointStats {
    SeedAverage cover_rs, connect_rs, power;
};

/// One solve, verifier-checked: NaN if the pipeline fails or either
/// verifier rejects the plan (a silently-broken plan must not count as
/// a feasible data point).
bool solve_point(const core::Scenario& s, PointStats& out) {
    const core::SagResult r = core::solve_sag(s);
    const bool ok =
        r.feasible &&
        core::verify_coverage(s, r.coverage, r.lower_power.powers).feasible &&
        core::verify_connectivity(s, r.coverage, r.connectivity).feasible;
    out.cover_rs.add(ok ? static_cast<double>(r.coverage_rs_count()) : kInfeasible);
    out.connect_rs.add(ok ? static_cast<double>(r.connectivity_rs_count())
                          : kInfeasible);
    out.power.add(ok ? r.total_power() : kInfeasible);
    return ok;
}

io::Json point_json(double x, const char* x_name, const PointStats& st) {
    io::Json::Object o;
    o[x_name] = io::Json(x);
    o["feasible_share"] = io::Json(st.power.feasible_share());
    o["coverage_rs"] = io::Json(st.cover_rs.mean());
    o["connectivity_rs"] = io::Json(st.connect_rs.mean());
    o["total_power"] = io::Json(st.power.mean());
    return io::Json(std::move(o));
}

io::Json::Array snr_sweep(const BenchConfig& bc) {
    bench::print_header(
        "LoRa onset (beta)",
        "500x500 SF9/125kHz field, 30 users, router relays / client "
        "subscribers: feasibility share vs SNR threshold");
    sim::Table table(
        {"SNR(dB)", "feas%", "RS_cover", "RS_connect", "P_total(W)"});
    io::Json::Array points;
    for (double snr = -20.0; snr <= -4.0 + 1e-9; snr += 2.0) {
        PointStats st;
        for (int seed = 0; seed < bc.seeds; ++seed) {
            sim::GeneratorConfig cfg = sim::presets::lora_field(30);
            cfg.snr_threshold_db = units::Decibel{snr};
            (void)solve_point(sim::generate_scenario(cfg, 7000 + seed), st);
        }
        table.add_numeric_row({snr, 100.0 * st.power.feasible_share(),
                               st.cover_rs.mean(), st.connect_rs.mean(),
                               st.power.mean()},
                              3);
        points.push_back(point_json(snr, "snr_threshold_db", st));
    }
    table.print(std::cout);
    std::printf("\n");
    return points;
}

io::Json::Array user_sweep(const BenchConfig& bc) {
    bench::print_header(
        "LoRa onset (density)",
        "500x500 SF9/125kHz field at beta=-15dB: feasibility and deployment "
        "size vs user count");
    sim::Table table(
        {"users", "feas%", "RS_cover", "RS_connect", "P_total(W)"});
    io::Json::Array points;
    for (const std::size_t users : {10, 20, 30, 40, 50, 60}) {
        PointStats st;
        for (int seed = 0; seed < bc.seeds; ++seed) {
            (void)solve_point(
                sim::generate_scenario(sim::presets::lora_field(users),
                                       8000 + seed),
                st);
        }
        table.add_numeric_row({static_cast<double>(users),
                               100.0 * st.power.feasible_share(),
                               st.cover_rs.mean(), st.connect_rs.mean(),
                               st.power.mean()},
                              3);
        points.push_back(point_json(static_cast<double>(users), "users", st));
    }
    table.print(std::cout);
    std::printf("\n");
    return points;
}

}  // namespace

int main(int argc, char** argv) {
    const BenchConfig bc = BenchConfig::parse(argc, argv);
    const sag::bench::ReportScope report_scope(bc);
    std::printf(
        "LoRa link-budget feasibility onset (seeds per point: %d%s)\n\n",
        bc.seeds, bc.fast ? ", fast mode" : "");

    io::Json curve;
    curve["bench"] = io::Json(std::string("lora_onset"));
    curve["model"] = io::Json(std::string("lora"));
    curve["preset"] = io::Json(std::string("lora_field"));
    curve["seeds"] = io::Json(bc.seeds);
    curve["snr_sweep"] = io::Json(snr_sweep(bc));
    curve["user_sweep"] = io::Json(user_sweep(bc));

    try {
        std::filesystem::create_directories("results");
        const std::string path = "results/LORA_ONSET.json";
        sag::io::write_text_file(path, curve.dump(2) + "\n");
        std::printf("wrote onset curve: %s\n", path.c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "failed writing results/LORA_ONSET.json: %s\n",
                     e.what());
        return 1;
    }
    return 0;
}
