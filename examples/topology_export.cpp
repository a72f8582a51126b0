// Topology export: run the pipeline on a generated scenario and archive
// everything — the scenario as replayable JSON, the deployment report as
// JSON, and the relay tree as a plot-ready CSV (the same format the
// Fig. 6 benchmark writes).
//
// Demonstrates: the sag::io serialization layer and scenario round-trips.
#include <cstdio>
#include <fstream>

#include "sag/core/sag.h"
#include "sag/io/scenario_io.h"
#include "sag/sim/scenario_gen.h"

int main() {
    using namespace sag;

    sim::GeneratorConfig cfg;
    cfg.field_side = 600.0;
    cfg.subscriber_count = 25;
    cfg.base_station_count = 4;
    cfg.bs_layout = sim::BsLayout::Corners;
    cfg.snr_threshold_db = units::Decibel{-15.0};
    const core::Scenario scenario = sim::generate_scenario(cfg, 77);

    // 1. Archive the input; load_scenario(path) replays it bit-exactly.
    io::save_scenario("topology_scenario.json", scenario);
    const core::Scenario replayed = io::load_scenario("topology_scenario.json");
    std::printf("scenario archived: %zu subscribers round-tripped %s\n",
                replayed.subscriber_count(),
                replayed.subscribers[0].pos == scenario.subscribers[0].pos
                    ? "exactly"
                    : "INEXACTLY");

    // 2. Solve and archive the result.
    const core::SagResult result = core::solve_sag(scenario);
    if (!result.feasible) {
        std::printf("no feasible deployment\n");
        return 1;
    }
    io::write_text_file("topology_result.json",
                        io::sag_result_to_json(result).dump(2) + "\n");

    std::ofstream csv("topology_tree.csv");
    io::write_deployment_csv(csv, scenario, result.connectivity);

    std::printf("deployment: %zu coverage + %zu connectivity RSs, "
                "total power %.1f\n",
                result.coverage_rs_count(), result.connectivity_rs_count(),
                result.total_power());
    std::printf("wrote topology_scenario.json, topology_result.json, "
                "topology_tree.csv\n");
    std::printf("plot with e.g.:\n"
                "  python3 -c \"import pandas as pd, matplotlib.pyplot as p;"
                " d=pd.read_csv('topology_tree.csv');"
                " ...\"\n");
    return 0;
}
