// Ablation: the attenuation factor alpha. The paper only says alpha
// "usually varies in a range of 2-4" (Eq. 2.1); this sweep shows how the
// choice moves the headline quantities. Expected: coverage RS counts are
// insensitive (they are distance-driven), but power costs and the
// SNR-feasibility margin shift — smaller alpha means interference decays
// slower, so green allocations must keep more power in reserve.
#include <cmath>

#include "bench_common.h"

#include "sag/core/power.h"
#include "sag/core/samc.h"
#include "sag/core/ucra.h"
#include "sag/sim/paper_presets.h"

int main(int argc, char** argv) {
    using namespace sag;
    const auto bc = bench::BenchConfig::parse(argc, argv);
    const bench::ReportScope report_scope(bc);
    bench::print_header("Ablation: attenuation factor alpha",
                        "500x500, 30 users, SNR=-15dB, 4 BSs");

    sim::Table table({"alpha", "cov-RSs", "conn-RSs", "P_L(PRO)", "P_H(UCPO)",
                      "feasible%"});
    for (const double alpha : {2.0, 2.5, 3.0, 3.5, 4.0}) {
        bench::SeedAverage cov, conn, pl, ph, ok;
        for (int seed = 0; seed < bc.seeds; ++seed) {
            sim::GeneratorConfig cfg = sim::presets::field500(30);
            cfg.radio.alpha = alpha;
            // The default ambient noise is calibrated for alpha = 3; keep
            // the noise-only SNR at the 40 m boundary constant across the
            // sweep so the comparison isolates the interference geometry.
            cfg.radio.snr_ambient_noise =
                cfg.radio.snr_ambient_noise * std::pow(40.0, 3.0 - alpha);
            const auto s = sim::generate_scenario(cfg, 9500 + seed);
            const auto plan = core::solve_samc(s).plan;
            if (!plan.feasible) {
                cov.add(bench::kInfeasible);
                conn.add(bench::kInfeasible);
                pl.add(bench::kInfeasible);
                ph.add(bench::kInfeasible);
                ok.add(0.0);
                continue;
            }
            ok.add(100.0);
            cov.add(static_cast<double>(plan.rs_count()));
            const auto pro = core::allocate_power_pro(s, plan);
            pl.add(pro.feasible ? pro.total : bench::kInfeasible);
            auto tree = core::solve_mbmc(s, plan);
            conn.add(static_cast<double>(tree.connectivity_rs_count()));
            core::allocate_power_ucpo(s, plan, tree);
            ph.add(tree.upper_tier_power());
        }
        table.add_numeric_row(
            {alpha, cov.mean(), conn.mean(), pl.mean(), ph.mean(), ok.mean()}, 1);
    }
    table.print(std::cout);
    return 0;
}
