// Survivability degradation curves: sweep the independent RS-failure
// fraction over seeded scenario batches, repair each damaged deployment,
// and report (a) coverage survival — the share of initially covered SSs
// the repaired network still serves with *verified* feasibility — and
// (b) power overhead — repaired P_total over intact P_total. Expected
// shape: survival stays near 1 while the surviving RSs have slack to
// absorb orphans, then degrades as the candidate pool thins; overhead
// grows with the failure fraction (reassignments lengthen access links).
//
// --curves[=FILE] additionally writes the averaged curves as JSON
// (default results/bench_resilience_curves.json); output is
// deterministic for a fixed --seeds value.
#include "bench_common.h"

#include "sag/core/feasibility.h"
#include "sag/core/sag.h"
#include "sag/io/resilience_io.h"
#include "sag/io/scenario_io.h"
#include "sag/resilience/damage.h"
#include "sag/resilience/failure.h"
#include "sag/resilience/repair.h"
#include "sag/sim/paper_presets.h"

int main(int argc, char** argv) {
    using namespace sag;
    const auto bc = bench::BenchConfig::parse(argc, argv, {"--curves", "--curves="});
    const bench::ReportScope report_scope(bc);

    std::string curves_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--curves=", 0) == 0) {
            curves_path = arg.substr(9);
        } else if (arg == "--curves") {
            curves_path = "results/bench_resilience_curves.json";
        }
    }
    // --report implies the curves artifact: degradation curves are this
    // binary's primary result.
    if (curves_path.empty() && !bc.report_path.empty()) {
        curves_path = "results/bench_resilience_curves.json";
    }

    bench::print_header(
        "Resilience (independent RS failures, 500x500 field)",
        "coverage survival and power overhead vs failure fraction, "
        "post-repair, verified via verify_coverage/verify_connectivity");

    const sim::GeneratorConfig cfg = sim::presets::field500(bc.fast ? 20 : 30);

    const std::vector<double> fractions = {0.0,  0.05, 0.10, 0.15,
                                           0.20, 0.25, 0.30};
    sim::Table table({"fraction", "survival", "power-overhead", "reassigned",
                      "new-relays", "unrecoverable", "repair-ok"});
    io::Json::Array curve_rows;

    for (const double fraction : fractions) {
        bench::SeedAverage survival, overhead, reassigned, new_relays,
            unrecoverable, repair_ok;
        for (int seed = 0; seed < bc.seeds; ++seed) {
            const auto scenario = sim::generate_scenario(cfg, 9000 + seed);
            const auto deployment = core::solve_sag(scenario);
            if (!deployment.feasible) {
                survival.add(bench::kInfeasible);
                overhead.add(bench::kInfeasible);
                reassigned.add(bench::kInfeasible);
                new_relays.add(bench::kInfeasible);
                unrecoverable.add(bench::kInfeasible);
                repair_ok.add(bench::kInfeasible);
                continue;
            }
            const resilience::IndependentFailureModel model{fraction, true};
            const auto failures = resilience::inject_independent(
                deployment, model, static_cast<std::uint64_t>(seed));
            const auto outcome =
                resilience::repair(scenario, deployment, failures);
            const double initial =
                static_cast<double>(scenario.subscriber_count());
            // Survival only counts *verified* coverage: an unverified
            // repair contributes zero, not its claimed covered count.
            const double kept = outcome.repaired.feasible
                                    ? static_cast<double>(outcome.covered.size())
                                    : 0.0;
            survival.add(initial > 0.0 ? kept / initial : 1.0);
            overhead.add(outcome.power_overhead());
            reassigned.add(static_cast<double>(outcome.reassigned));
            new_relays.add(static_cast<double>(outcome.new_relays));
            unrecoverable.add(static_cast<double>(outcome.unrecoverable.size()));
            repair_ok.add(outcome.repaired.feasible ? 1.0 : 0.0);
        }
        table.add_numeric_row({fraction, survival.mean(), overhead.mean(),
                               reassigned.mean(), new_relays.mean(),
                               unrecoverable.mean(), repair_ok.mean()},
                              3);
        io::Json row;
        row["fraction"] = fraction;
        row["coverage_survival"] = survival.mean();
        row["power_overhead"] = overhead.mean();
        row["reassigned"] = reassigned.mean();
        row["new_relays"] = new_relays.mean();
        row["unrecoverable"] = unrecoverable.mean();
        row["repair_feasible_share"] = repair_ok.mean();
        curve_rows.emplace_back(std::move(row));
    }

    table.print(std::cout);

    if (!curves_path.empty()) {
        io::Json doc;
        doc["format"] = 1;
        doc["model"] = "independent";
        doc["field_side"] = cfg.field_side;
        doc["subscribers"] = cfg.subscriber_count;
        doc["base_stations"] = cfg.base_station_count;
        doc["seeds"] = static_cast<std::size_t>(bc.seeds);
        doc["curves"] = io::Json(std::move(curve_rows));
        try {
            const std::filesystem::path p(curves_path);
            if (p.has_parent_path())
                std::filesystem::create_directories(p.parent_path());
            io::write_text_file(curves_path, doc.dump(2) + "\n");
            std::printf("\nwrote degradation curves: %s\n", curves_path.c_str());
        } catch (const std::exception& e) {
            std::fprintf(stderr, "failed writing curves %s: %s\n",
                         curves_path.c_str(), e.what());
            return 1;
        }
    }
    return 0;
}
