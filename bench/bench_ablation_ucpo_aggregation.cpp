// Ablation: what the paper's UCPO (Algorithm 8) leaves on the table by
// powering each relay chain only for its own coverage RS's strictest
// subscriber. The aggregation-aware variant sizes every chain for the
// subtree's summed data rate. Expected: the paper allocation undercounts
// increasingly with user density (deeper trees aggregate more traffic),
// while both stay far below the all-Pmax baseline.
#include "bench_common.h"

#include "sag/core/samc.h"
#include "sag/core/ucra.h"
#include "sag/sim/paper_presets.h"

int main(int argc, char** argv) {
    using namespace sag;
    const auto bc = bench::BenchConfig::parse(argc, argv);
    const bench::ReportScope report_scope(bc);
    bench::print_header("Ablation: UCPO traffic aggregation",
                        "upper-tier power, 800x800, SNR=-15dB, 4 BSs");

    sim::Table table(
        {"users", "UCPO(paper)", "UCPO(aggregated)", "undercount%", "baseline"});
    for (const std::size_t users : {10ul, 20ul, 30ul, 40ul, 50ul, 60ul, 70ul}) {
        bench::SeedAverage paper_p, agg_p, gap, base_p;
        for (int seed = 0; seed < bc.seeds; ++seed) {
            const auto s =
                sim::generate_scenario(sim::presets::field800(users), 9400 + seed);
            const auto cov = core::solve_samc(s).plan;
            if (!cov.feasible) {
                paper_p.add(bench::kInfeasible);
                agg_p.add(bench::kInfeasible);
                gap.add(bench::kInfeasible);
                base_p.add(bench::kInfeasible);
                continue;
            }
            auto paper = core::solve_mbmc(s, cov);
            auto aggregated = paper;
            auto baseline = paper;
            core::allocate_power_ucpo(s, cov, paper);
            core::allocate_power_ucpo_aggregated(s, cov, aggregated);
            core::allocate_power_max(s, baseline);
            paper_p.add(paper.upper_tier_power());
            agg_p.add(aggregated.upper_tier_power());
            base_p.add(baseline.upper_tier_power());
            if (aggregated.upper_tier_power() > 1e-9) {
                gap.add(100.0 * (aggregated.upper_tier_power() -
                                 paper.upper_tier_power()) /
                        aggregated.upper_tier_power());
            }
        }
        table.add_numeric_row({static_cast<double>(users), paper_p.mean(),
                               agg_p.mean(), gap.mean(), base_p.mean()},
                              1);
    }
    table.print(std::cout);
    return 0;
}
