// Reproduces paper Fig. 7 (a)-(c): total power consumption of the full
// SAG pipeline vs {SAMC, IAC, GAC} + DARP baselines on 300x300, 500x500
// and 800x800 fields. Expected shape: SAG lowest everywhere; the DARP
// variants cluster above it and grow linearly in the RS count (everything
// at P_max); the gap widens with the field size.
#include "bench_common.h"

#include "sag/exec/thread_pool.h"

#include "sag/core/candidates.h"
#include "sag/core/ilpqc.h"
#include "sag/core/sag.h"
#include "sag/sim/paper_presets.h"

namespace {

using namespace sag;
using bench::BenchConfig;
using bench::kInfeasible;
using bench::SeedAverage;

double darp_total(const core::Scenario& s, const core::CoveragePlan& plan) {
    if (!plan.feasible) return kInfeasible;
    const auto darp = core::solve_darp_baseline(s, plan, sag::ids::BsId{0});
    return darp.feasible ? darp.total_power() : kInfeasible;
}

void field_sweep(const char* figure, sim::GeneratorConfig (*preset)(std::size_t users),
                 const std::vector<std::size_t>& user_counts, double grid,
                 const BenchConfig& bc) {
    bench::print_header(figure, "total power: SAG vs SAMC/IAC/GAC + DARP");
    sim::Table table({"users", "SAG", "SAMC+DARP", "IAC+DARP", "GAC+DARP"});
    const std::size_t iac_nodes = bc.fast ? 50'000 : 400'000;
    const std::size_t gac_nodes = bc.fast ? 30'000 : 200'000;

    exec::ThreadPool pool(static_cast<std::size_t>(bc.threads));
    for (const std::size_t users : user_counts) {
        const sim::GeneratorConfig cfg = preset(users);
        // Evaluate seeds in parallel into per-seed slots (deterministic
        // regardless of thread count), reduce serially.
        struct SeedResult {
            double sag = kInfeasible;
            double samc_darp = kInfeasible;
            double iac_darp = kInfeasible;
            double gac_darp = kInfeasible;
        };
        std::vector<SeedResult> slots(static_cast<std::size_t>(bc.seeds));
        exec::parallel_for_index(pool, slots.size(), [&](std::size_t seed) {
            const auto s =
                sim::generate_scenario(cfg, 7000 + static_cast<int>(seed));
            SeedResult& slot = slots[seed];

            const auto samc = core::solve_samc(s);
            if (samc.plan.feasible) {
                const auto sag_result = core::green_pipeline(s, samc.plan);
                slot.sag = sag_result.feasible ? sag_result.total_power()
                                               : kInfeasible;
                slot.samc_darp = darp_total(s, samc.plan);
            }

            core::IlpqcOptions iopts;
            iopts.node_budget = iac_nodes;
            iopts.time_budget_seconds = bc.fast ? 0.25 : 2.0;
            slot.iac_darp = darp_total(
                s, core::solve_ilpqc_coverage(s, core::iac_candidates(s), iopts));

            core::IlpqcOptions gopts;
            gopts.node_budget = gac_nodes;
            gopts.time_budget_seconds = bc.fast ? 0.25 : 2.0;
            slot.gac_darp = darp_total(
                s, core::solve_ilpqc_coverage(
                       s,
                       core::prune_useless_candidates(s, core::gac_candidates(s, grid)),
                       gopts));
        });

        SeedAverage sag_p, samc_darp, iac_darp, gac_darp;
        for (const SeedResult& slot : slots) {
            sag_p.add(slot.sag);
            samc_darp.add(slot.samc_darp);
            iac_darp.add(slot.iac_darp);
            gac_darp.add(slot.gac_darp);
        }
        table.add_numeric_row({static_cast<double>(users), sag_p.mean(),
                               samc_darp.mean(), iac_darp.mean(), gac_darp.mean()},
                              1);
    }
    table.print(std::cout);
    std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
    const BenchConfig bc = BenchConfig::parse(argc, argv);
    const sag::bench::ReportScope report_scope(bc);
    std::printf("Fig. 7 reproduction (seeds per point: %d%s)\n\n", bc.seeds,
                bc.fast ? ", fast mode" : "");
    field_sweep("Fig 7(a)", sim::presets::field300, {5, 10, 15, 20, 25, 30, 35, 40},
                15.0, bc);
    field_sweep("Fig 7(b)", sim::presets::field500,
                {5, 10, 15, 20, 25, 30, 35, 40, 45, 50}, 15.0, bc);
    field_sweep("Fig 7(c)", sim::presets::field800, {20, 30, 40, 50, 60, 70}, 20.0,
                bc);
    return 0;
}
