// Reproduces paper Fig. 3 (a)-(e): number of coverage RSs placed by IAC,
// GAC and SAMC across field sizes, user counts, SNR thresholds and grid
// sizes. Expected shape (paper §IV-B): SAMC <= IAC <= GAC everywhere;
// IAC/GAC lose feasibility as the SNR threshold tightens (3d) or the
// instance grows dense (3b), while SAMC keeps solving; finer grids make
// GAC better but slower (3e).
#include "bench_common.h"

#include "sag/core/candidates.h"
#include "sag/core/feasibility.h"
#include "sag/core/ilpqc.h"
#include "sag/core/samc.h"
#include "sag/sim/paper_presets.h"

namespace {

using namespace sag;
using bench::BenchConfig;
using bench::kInfeasible;
using bench::SeedAverage;

struct MethodBudgets {
    std::size_t iac_nodes;
    std::size_t gac_nodes;
    double seconds;  ///< wall-clock cap per ILP solve (the Gurobi analogue)
};

MethodBudgets budgets(const BenchConfig& cfg) {
    return cfg.fast ? MethodBudgets{50'000, 30'000, 0.25}
                    : MethodBudgets{400'000, 200'000, 2.0};
}

double iac_count(const core::Scenario& s, const MethodBudgets& b) {
    core::IlpqcOptions opts;
    opts.node_budget = b.iac_nodes;
    opts.time_budget_seconds = b.seconds;
    const auto plan = core::solve_ilpqc_coverage(s, core::iac_candidates(s), opts);
    if (!plan.feasible || !core::verify_coverage_max_power(s, plan).feasible) {
        return kInfeasible;
    }
    return static_cast<double>(plan.rs_count());
}

double gac_count(const core::Scenario& s, double grid, const MethodBudgets& b) {
    core::IlpqcOptions opts;
    opts.node_budget = b.gac_nodes;
    opts.time_budget_seconds = b.seconds;
    const auto cands =
        core::prune_useless_candidates(s, core::gac_candidates(s, grid));
    const auto plan = core::solve_ilpqc_coverage(s, cands, opts);
    if (!plan.feasible || !core::verify_coverage_max_power(s, plan).feasible) {
        return kInfeasible;
    }
    return static_cast<double>(plan.rs_count());
}

double samc_count(const core::Scenario& s) {
    const auto result = core::solve_samc(s);
    if (!result.plan.feasible) return kInfeasible;
    return static_cast<double>(result.plan.rs_count());
}

void user_sweep(const char* figure, const char* label,
                sim::GeneratorConfig (*preset)(std::size_t users),
                const std::vector<std::size_t>& user_counts, double grid,
                const BenchConfig& bc) {
    bench::print_header(figure, label);
    sim::Table table({"users", "IAC", "GAC", "SAMC"});
    const MethodBudgets b = budgets(bc);
    for (const std::size_t users : user_counts) {
        SeedAverage iac, gac, samc;
        for (int seed = 0; seed < bc.seeds; ++seed) {
            const auto s = sim::generate_scenario(preset(users), 1000 + seed);
            iac.add(iac_count(s, b));
            gac.add(gac_count(s, grid, b));
            samc.add(samc_count(s));
        }
        table.add_numeric_row(
            {static_cast<double>(users), iac.mean(), gac.mean(), samc.mean()}, 1);
    }
    table.print(std::cout);
    std::printf("\n");
}

void snr_sweep(const BenchConfig& bc) {
    bench::print_header("Fig 3(d)",
                        "500x500, 30 users: #coverage RSs vs SNR threshold "
                        "(n/a = no feasible solution, cf. paper's infeasible "
                        "IAC beyond -12 dB)");
    sim::Table table({"SNR(dB)", "IAC", "GAC", "SAMC", "IAC-feas%", "GAC-feas%",
                      "SAMC-feas%"});
    const MethodBudgets b = budgets(bc);
    for (double snr = -14.0; snr <= -10.0 + 1e-9; snr += 0.5) {
        SeedAverage iac, gac, samc;
        for (int seed = 0; seed < bc.seeds; ++seed) {
            const auto s = sim::generate_scenario(
                sim::presets::snr_sweep_point(units::Decibel{snr}), 2000 + seed);
            iac.add(iac_count(s, b));
            gac.add(gac_count(s, 15.0, b));
            samc.add(samc_count(s));
        }
        table.add_numeric_row({snr, iac.mean(), gac.mean(), samc.mean(),
                               100.0 * iac.feasible_share(),
                               100.0 * gac.feasible_share(),
                               100.0 * samc.feasible_share()},
                              1);
    }
    table.print(std::cout);
    std::printf("\n");
}

void grid_sweep(const BenchConfig& bc) {
    bench::print_header("Fig 3(e)",
                        "500x500, 30 users, SNR=-11.55dB: GAC quality vs grid "
                        "size (IAC/SAMC are grid-independent reference lines)");
    sim::Table table({"grid", "IAC", "GAC", "SAMC", "GAC-feas%"});
    const MethodBudgets b = budgets(bc);
    // IAC and SAMC do not depend on the grid size: solve once per seed.
    SeedAverage iac, samc;
    std::vector<core::Scenario> scenarios;
    for (int seed = 0; seed < bc.seeds; ++seed) {
        scenarios.push_back(sim::generate_scenario(
            sim::presets::snr_sweep_point(units::Decibel{-11.55}), 3000 + seed));
        iac.add(iac_count(scenarios.back(), b));
        samc.add(samc_count(scenarios.back()));
    }
    for (double grid = 13.0; grid <= 20.0 + 1e-9; grid += 1.0) {
        SeedAverage gac;
        for (const auto& s : scenarios) gac.add(gac_count(s, grid, b));
        table.add_numeric_row({grid, iac.mean(), gac.mean(), samc.mean(),
                               100.0 * gac.feasible_share()},
                              1);
    }
    table.print(std::cout);
    std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
    const BenchConfig bc = BenchConfig::parse(argc, argv);
    const sag::bench::ReportScope report_scope(bc);
    std::printf("Fig. 3 reproduction (seeds per point: %d%s)\n\n", bc.seeds,
                bc.fast ? ", fast mode" : "");

    user_sweep("Fig 3(a)", "500x500, SNR=-15dB: #coverage RSs vs users",
               sim::presets::field500, {15, 20, 25, 30, 35, 40, 45, 50}, 15.0, bc);
    user_sweep("Fig 3(b)", "800x800, SNR=-15dB: #coverage RSs vs users",
               sim::presets::field800, {20, 30, 40, 50, 60, 70}, 20.0, bc);
    user_sweep("Fig 3(c)", "800x800, SNR=-40dB: #coverage RSs vs users",
               sim::presets::field800_relaxed, {50, 55, 60, 65, 70}, 20.0, bc);
    snr_sweep(bc);
    grid_sweep(bc);
    return 0;
}
