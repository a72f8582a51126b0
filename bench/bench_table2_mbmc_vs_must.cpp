// Reproduces paper Table II: number of connectivity RSs deployed by MUST
// pinned to each base station vs MBMC, as the number of base stations in a
// 500x500 field grows from 1 to 4 (30 users, SNR = -15 dB). Expected
// shape: with one BS, MBMC == MUST; with more BSs MBMC strictly improves
// because each coverage RS routes to its nearest BS.
#include "bench_common.h"

#include "sag/core/samc.h"
#include "sag/core/ucra.h"
#include "sag/sim/paper_presets.h"

int main(int argc, char** argv) {
    using namespace sag;
    const auto bc = bench::BenchConfig::parse(argc, argv);
    const bench::ReportScope report_scope(bc);
    bench::print_header("Table II",
                        "connectivity RSs, MUST(BSk) vs MBMC, 500x500, 30 users, "
                        "SNR=-15dB (n/a = BS k does not exist in that row)");

    sim::Table table({"#BS", "MUST-BS1", "MUST-BS2", "MUST-BS3", "MUST-BS4", "MBMC"});
    for (std::size_t n_bs = 1; n_bs <= 4; ++n_bs) {
        bench::SeedAverage must[4], mbmc;
        for (int seed = 0; seed < bc.seeds; ++seed) {
            sim::GeneratorConfig cfg = sim::presets::field500(30);
            cfg.base_station_count = n_bs;
            const auto s = sim::generate_scenario(cfg, 8000 + seed);
            const auto cov = core::solve_samc(s).plan;
            if (!cov.feasible) {
                for (auto& m : must) m.add(bench::kInfeasible);
                mbmc.add(bench::kInfeasible);
                continue;
            }
            for (std::size_t b = 0; b < 4; ++b) {
                must[b].add(b < n_bs
                                ? static_cast<double>(core::solve_must(s, cov, sag::ids::BsId{b})
                                                          .connectivity_rs_count())
                                : bench::kInfeasible);
            }
            mbmc.add(static_cast<double>(
                core::solve_mbmc(s, cov).connectivity_rs_count()));
        }
        table.add_numeric_row({static_cast<double>(n_bs), must[0].mean(),
                               must[1].mean(), must[2].mean(), must[3].mean(),
                               mbmc.mean()},
                              1);
    }
    table.print(std::cout);
    return 0;
}
