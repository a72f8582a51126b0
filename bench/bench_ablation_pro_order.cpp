// Ablation: PRO's stuck-RS selection rule (paper Algorithm 6 Step 11).
// The paper pays the smallest P_snr - P_c premium first; the ablation
// compares that against a naive first-index rule and the LPQC optimum.
// Expected: min-premium tracks the optimum; first-index loses ground on
// instances where several RSs get stuck.
#include "bench_common.h"

#include "sag/core/power.h"
#include "sag/core/samc.h"
#include "sag/sim/paper_presets.h"

int main(int argc, char** argv) {
    using namespace sag;
    const auto bc = bench::BenchConfig::parse(argc, argv);
    const bench::ReportScope report_scope(bc);
    bench::print_header("Ablation: PRO stuck-RS selection",
                        "coverage-tier power, 500x500, SNR=-11.5dB; min-delta ties the "
                        "optimum, first-index pays slightly more when RSs get stuck");

    sim::Table table({"users", "min-delta", "first-index", "optimal", "baseline"});
    for (const std::size_t users : {10ul, 20ul, 30ul, 40ul, 50ul}) {
        bench::SeedAverage min_delta, first_index, optimal, baseline;
        for (int seed = 0; seed < bc.seeds; ++seed) {
            sim::GeneratorConfig cfg = sim::presets::field500(users);
            cfg.snr_threshold_db = units::Decibel{-11.5};
            const auto s = sim::generate_scenario(cfg, 9200 + seed);
            const auto plan = core::solve_samc(s).plan;
            if (!plan.feasible) {
                min_delta.add(bench::kInfeasible);
                first_index.add(bench::kInfeasible);
                optimal.add(bench::kInfeasible);
                baseline.add(bench::kInfeasible);
                continue;
            }
            core::ProOptions naive;
            naive.selection = core::ProOptions::Selection::FirstIndex;
            const auto a = core::allocate_power_pro(s, plan);
            const auto b = core::allocate_power_pro(s, plan, naive);
            const auto opt = core::allocate_power_optimal(s, plan);
            min_delta.add(a.feasible ? a.total : bench::kInfeasible);
            first_index.add(b.feasible ? b.total : bench::kInfeasible);
            optimal.add(opt.feasible ? opt.total : bench::kInfeasible);
            baseline.add(core::allocate_power_baseline(s, plan).total);
        }
        table.add_numeric_row({static_cast<double>(users), min_delta.mean(),
                               first_index.mean(), optimal.mean(), baseline.mean()},
                              1);
    }
    table.print(std::cout);
    return 0;
}
