// Ablation: node budget of the set-cover branch-and-bound (the Gurobi
// stand-in behind IAC/GAC). Shows the anytime profile: how solution size
// and the proven-optimal share respond to the budget. Expected: small
// budgets fall back to greedy covers (larger), generous budgets prove
// optimality; the knee sits surprisingly low on these geometric
// instances.
#include "bench_common.h"

#include "sag/core/candidates.h"
#include "sag/core/ilpqc.h"
#include "sag/sim/paper_presets.h"

int main(int argc, char** argv) {
    using namespace sag;
    const auto bc = bench::BenchConfig::parse(argc, argv);
    const bench::ReportScope report_scope(bc);
    bench::print_header("Ablation: B&B node budget",
                        "GAC (grid 15) on 500x500, 35 users, SNR=-15dB");

    sim::Table table({"budget", "RSs", "proven-opt%", "time(ms)"});
    for (const std::size_t budget :
         {std::size_t{10}, std::size_t{100}, std::size_t{1'000}, std::size_t{10'000},
          std::size_t{100'000}, std::size_t{1'000'000}}) {
        bench::SeedAverage rs, proven, time_ms;
        for (int seed = 0; seed < bc.seeds; ++seed) {
            const auto s =
                sim::generate_scenario(sim::presets::field500(35), 9100 + seed);
            const auto cands =
                core::prune_useless_candidates(s, core::gac_candidates(s, 15.0));
            core::IlpqcOptions opts;
            opts.node_budget = budget;
            sim::Stopwatch sw;
            const auto plan = core::solve_ilpqc_coverage(s, cands, opts);
            time_ms.add(sw.milliseconds());
            rs.add(plan.feasible ? static_cast<double>(plan.rs_count())
                                 : bench::kInfeasible);
            proven.add(plan.proven_optimal ? 100.0 : 0.0);
        }
        table.add_numeric_row({static_cast<double>(budget), rs.mean(), proven.mean(),
                               time_ms.mean()},
                              2);
    }
    table.print(std::cout);
    return 0;
}
