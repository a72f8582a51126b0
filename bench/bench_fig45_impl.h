#pragma once

// Shared implementation of the paper's Fig. 4 (500x500) and Fig. 5
// (800x800) suites: per field size, four sub-experiments at SNR = -15 dB:
//   (a) lower-tier power: all-Pmax baseline vs PRO vs LPQC optimum,
//   (b) running time of SAMC vs IAC vs GAC (milliseconds),
//   (c) connectivity RS count: MUST pinned to each BS vs MBMC,
//   (d) upper-tier power: all-Pmax baseline vs UCPO.
// Expected shapes: PRO hugs the optimum well under baseline and the gap
// widens with the field (4a/5a); SAMC stays fast while GAC blows up
// (4b/5b); MBMC beats every pinned MUST (4c/5c); UCPO sits well under the
// baseline (4d/5d).

#include "bench_common.h"

#include "sag/core/candidates.h"
#include "sag/core/ilpqc.h"
#include "sag/core/power.h"
#include "sag/core/samc.h"
#include "sag/core/ucra.h"
#include "sag/sim/paper_presets.h"

namespace sag::bench {

inline void run_field_suite(const char* figure,
                            sim::GeneratorConfig (*preset)(std::size_t users),
                            const std::vector<std::size_t>& user_counts,
                            double grid, const BenchConfig& bc) {
    const std::size_t iac_nodes = bc.fast ? 50'000 : 400'000;
    const std::size_t gac_nodes = bc.fast ? 30'000 : 200'000;

    sim::Table power_low({"users", "baseline", "PRO", "optimal"});
    sim::Table runtimes(
        {"users", "SAMC(ms)", "IAC(ms)", "GAC(ms)", "IAC-nodes", "GAC-nodes"});
    sim::Table conn({"users", "MUST-BS1", "MUST-BS2", "MUST-BS3", "MUST-BS4", "MBMC"});
    sim::Table power_high({"users", "baseline", "UCPO"});

    for (const std::size_t users : user_counts) {
        const sim::GeneratorConfig cfg = preset(users);
        SeedAverage base_l, pro_l, opt_l;
        SeedAverage t_samc, t_iac, t_gac, n_iac, n_gac;
        SeedAverage must_rs[4], mbmc_rs;
        SeedAverage base_h, ucpo_h;

        for (int seed = 0; seed < bc.seeds; ++seed) {
            const auto s = sim::generate_scenario(cfg, 5000 + seed);

            sim::Stopwatch sw;
            const auto samc = core::solve_samc(s);
            t_samc.add(sw.milliseconds());

            sw.reset();
            core::IlpqcOptions iopts;
            iopts.node_budget = iac_nodes;
            iopts.time_budget_seconds = bc.fast ? 0.25 : 2.0;
            const auto iac =
                core::solve_ilpqc_coverage(s, core::iac_candidates(s), iopts);
            t_iac.add(sw.milliseconds());
            n_iac.add(static_cast<double>(iac.search_nodes));

            sw.reset();
            core::IlpqcOptions gopts;
            gopts.node_budget = gac_nodes;
            gopts.time_budget_seconds = bc.fast ? 0.25 : 2.0;
            const auto gac = core::solve_ilpqc_coverage(
                s, core::prune_useless_candidates(s, core::gac_candidates(s, grid)),
                gopts);
            t_gac.add(sw.milliseconds());
            n_gac.add(static_cast<double>(gac.search_nodes));

            if (!samc.plan.feasible) {
                base_l.add(kInfeasible);
                pro_l.add(kInfeasible);
                opt_l.add(kInfeasible);
                for (auto& m : must_rs) m.add(kInfeasible);
                mbmc_rs.add(kInfeasible);
                base_h.add(kInfeasible);
                ucpo_h.add(kInfeasible);
                continue;
            }

            // (a) lower-tier power on the SAMC coverage plan.
            base_l.add(core::allocate_power_baseline(s, samc.plan).total);
            const auto pro = core::allocate_power_pro(s, samc.plan);
            pro_l.add(pro.feasible ? pro.total : kInfeasible);
            const auto opt = core::allocate_power_optimal(s, samc.plan);
            opt_l.add(opt.feasible ? opt.total : kInfeasible);

            // (c) connectivity counts.
            for (std::size_t b = 0; b < 4; ++b) {
                must_rs[b].add(static_cast<double>(
                    core::solve_must(s, samc.plan, sag::ids::BsId{b}).connectivity_rs_count()));
            }
            auto mbmc = core::solve_mbmc(s, samc.plan);
            mbmc_rs.add(static_cast<double>(mbmc.connectivity_rs_count()));

            // (d) upper-tier power on the MBMC tree.
            core::allocate_power_max(s, mbmc);
            base_h.add(mbmc.upper_tier_power());
            core::allocate_power_ucpo(s, samc.plan, mbmc);
            ucpo_h.add(mbmc.upper_tier_power());
        }

        const double u = static_cast<double>(users);
        power_low.add_numeric_row({u, base_l.mean(), pro_l.mean(), opt_l.mean()}, 1);
        runtimes.add_numeric_row(
            {u, t_samc.mean(), t_iac.mean(), t_gac.mean(), n_iac.mean(),
             n_gac.mean()},
            1);
        conn.add_numeric_row({u, must_rs[0].mean(), must_rs[1].mean(),
                              must_rs[2].mean(), must_rs[3].mean(), mbmc_rs.mean()},
                             1);
        power_high.add_numeric_row({u, base_h.mean(), ucpo_h.mean()}, 1);
    }

    std::printf("%s reproduction (seeds per point: %d%s)\n\n", figure, bc.seeds,
                bc.fast ? ", fast mode" : "");
    print_header("(a)", "coverage-tier power: baseline vs PRO vs optimal");
    power_low.print(std::cout);
    std::printf("\n");
    print_header("(b)", "running times of the three coverage solvers");
    runtimes.print(std::cout);
    std::printf("\n");
    print_header("(c)", "connectivity RSs: MUST pinned to BS1..BS4 vs MBMC");
    conn.print(std::cout);
    std::printf("\n");
    print_header("(d)", "connectivity-tier power: baseline vs UCPO");
    power_high.print(std::cout);
    std::printf("\n");
}

}  // namespace sag::bench
