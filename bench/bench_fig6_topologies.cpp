// Reproduces paper Fig. 6 (a)-(d): relay tree topologies on a 300x300
// field with 4 corner base stations, for IAC+MBMC, GAC+MBMC, SAMC+MBMC and
// SAMC+MUST. Fig. 6 is a scatter plot; here each variant prints its node
// inventory and writes a CSV (kind,x,y,parent_x,parent_y) that plots the
// exact figure. The headline comparison (paper §IV-C): MUST hauls all
// traffic to one corner BS with far more connectivity RSs than MBMC's
// nearest-BS forest.
#include <filesystem>
#include <fstream>

#include "bench_common.h"

#include "sag/io/svg.h"

#include "sag/core/candidates.h"
#include "sag/core/ilpqc.h"
#include "sag/core/samc.h"
#include "sag/core/ucra.h"
#include "sag/sim/paper_presets.h"

namespace {

using namespace sag;

void dump(const std::filesystem::path& out_dir, const char* name,
          const core::Scenario& s, const core::CoveragePlan& cov,
          const core::ConnectivityPlan& plan) {
    std::printf("--- %s ---\n", name);
    std::printf("  coverage RSs: %zu, connectivity RSs: %zu, nodes: %zu\n",
                cov.rs_count(), plan.connectivity_rs_count(), plan.node_count());

    const std::string path = (out_dir / (std::string("fig6_") + name + ".csv")).string();
    std::ofstream csv(path);
    csv << "kind,x,y,parent_x,parent_y\n";
    // Subscribers first (no parent).
    for (const auto& sub : s.subscribers) {
        csv << "SS," << sub.pos.x << ',' << sub.pos.y << ",,\n";
    }
    for (std::size_t v = 0; v < plan.node_count(); ++v) {
        const char* kind = plan.kinds[v] == core::NodeKind::BaseStation ? "BS"
                           : plan.kinds[v] == core::NodeKind::CoverageRs
                               ? "RS_cover"
                               : "RS_connect";
        csv << kind << ',' << plan.positions[v].x << ',' << plan.positions[v].y;
        if (plan.parent[v] != v) {
            csv << ',' << plan.positions[plan.parent[v]].x << ','
                << plan.positions[plan.parent[v]].y << '\n';
        } else {
            csv << ",,\n";
        }
    }
    std::printf("  wrote %s\n", path.c_str());

    const std::string svg_path = (out_dir / (std::string("fig6_") + name + ".svg")).string();
    std::ofstream svg(svg_path);
    svg << io::render_deployment_svg(s, cov, plan, name);
    std::printf("  wrote %s\n", svg_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    const auto bc = bench::BenchConfig::parse(argc, argv, {"--out-dir="});
    const bench::ReportScope report_scope(bc);
    (void)bc;
    // Plot artifacts go under results/ (gitignored) by default so reruns
    // never litter the repo root; --out-dir=DIR overrides.
    std::filesystem::path out_dir = "results";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--out-dir=", 0) == 0) out_dir = arg.substr(10);
    }
    std::filesystem::create_directories(out_dir);
    bench::print_header("Fig 6", "tree topologies, 300x300 (plot axes +-300), "
                                 "30 users, 4 corner BSs, SNR=-15dB");

    // 600x600 so the paper's plot axes [-300, 300] fit, 4 corner BSs.
    const auto s = sim::generate_scenario(sim::presets::topology_showcase(), 4242);

    core::IlpqcOptions iopts;
    iopts.node_budget = bc.fast ? 50'000 : 400'000;
    iopts.time_budget_seconds = bc.fast ? 0.25 : 2.0;

    const auto iac_plan = core::solve_ilpqc_coverage(s, core::iac_candidates(s), iopts);
    if (iac_plan.feasible) {
        dump(out_dir, "IAC+MBMC", s, iac_plan, core::solve_mbmc(s, iac_plan));
    } else {
        std::printf("--- IAC+MBMC ---\n  IAC infeasible on this instance\n");
    }

    const auto gac_plan = core::solve_ilpqc_coverage(
        s, core::prune_useless_candidates(s, core::gac_candidates(s, 15.0)), iopts);
    if (gac_plan.feasible) {
        dump(out_dir, "GAC+MBMC", s, gac_plan, core::solve_mbmc(s, gac_plan));
    } else {
        std::printf("--- GAC+MBMC ---\n  GAC infeasible on this instance\n");
    }

    const auto samc = core::solve_samc(s);
    if (samc.plan.feasible) {
        dump(out_dir, "SAMC+MBMC", s, samc.plan, core::solve_mbmc(s, samc.plan));
        // Fig. 6(d): everything drags to the single corner BS 0.
        dump(out_dir, "SAMC+MUST", s, samc.plan, core::solve_must(s, samc.plan, sag::ids::BsId{0}));
    } else {
        std::printf("--- SAMC ---\n  infeasible on this instance\n");
    }
    return 0;
}
