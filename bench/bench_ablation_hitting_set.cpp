// Ablation: local-search swap depth in the geometric hitting set (the
// Mustafa–Ray PTAS stand-in inside SAMC). Deeper swaps buy smaller
// hitting sets — and hence fewer coverage RSs — at more time. Expected:
// (2,1) swaps recover almost all of the gain; (3,2) helps occasionally.
#include "bench_common.h"

#include "sag/opt/hitting_set.h"
#include "sag/sim/paper_presets.h"

int main(int argc, char** argv) {
    using namespace sag;
    const auto bc = bench::BenchConfig::parse(argc, argv);
    const bench::ReportScope report_scope(bc);
    bench::print_header("Ablation: hitting-set swap depth",
                        "points placed / time for max_swap = 1, 2, 3 "
                        "(disk radii 30-40, 500x500 field)");

    sim::Table table({"disks", "swap1", "swap2", "swap3", "t1(ms)", "t2(ms)",
                      "t3(ms)"});
    for (const std::size_t n : {10ul, 20ul, 30ul, 40ul, 60ul, 80ul, 160ul}) {
        bench::SeedAverage count[3], time_ms[3];
        for (int seed = 0; seed < bc.seeds; ++seed) {
            const auto s =
                sim::generate_scenario(sim::presets::field500(n), 9000 + seed);
            const auto disks = s.feasible_circles();
            for (int swap = 1; swap <= 3; ++swap) {
                opt::HittingSetOptions opts;
                opts.max_swap = swap;
                sim::Stopwatch sw;
                const auto pts = opt::geometric_hitting_set(disks, opts);
                time_ms[swap - 1].add(sw.milliseconds());
                count[swap - 1].add(static_cast<double>(pts.size()));
            }
        }
        table.add_numeric_row({static_cast<double>(n), count[0].mean(),
                               count[1].mean(), count[2].mean(), time_ms[0].mean(),
                               time_ms[1].mean(), time_ms[2].mean()},
                              2);
    }
    table.print(std::cout);
    return 0;
}
