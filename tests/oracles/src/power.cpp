#include "oracles/power.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "oracles/lp.h"

namespace sag::oracles {

units::Watt snr_power_floor(const core::Scenario& scenario,
                            const core::CoveragePlan& plan, ids::RsId rs,
                            std::span<const double> powers) {
    const wireless::GainKernel kernel = scenario.gain_kernel();
    const auto gain = [&](ids::RsId i, ids::SsId j) {
        const geom::Vec2& ss = scenario.subscriber(j).pos;
        return kernel.gain(plan.rs_position(i), ss,
                           geom::distance(plan.rs_position(i), ss));
    };
    const auto served = plan.served_lists();
    units::Watt need{0.0};
    for (const ids::SsId j : served[rs]) {
        units::Watt interference = scenario.radio.snr_ambient_noise;
        for (const ids::RsId k : plan.rs_ids()) {
            if (k != rs) interference += units::Watt{powers[k.index()] * gain(k, j)};
        }
        need = std::max(need, scenario.snr_threshold() * interference / gain(rs, j));
    }
    return need;
}

core::PowerAllocation allocate_power_optimal_lp(const core::Scenario& scenario,
                                                const core::CoveragePlan& plan) {
    core::require_assignment(plan, scenario.subscriber_count());
    core::PowerAllocation out;
    const std::size_t n = plan.rs_count();
    const wireless::GainKernel kernel = scenario.gain_kernel();

    LinearProgram lp;
    lp.objective.assign(n, 1.0);
    lp.upper_bounds.assign(n, scenario.rs_max_power().watts());
    const double beta = scenario.snr_threshold_linear();
    for (const ids::SsId j : scenario.ss_ids()) {
        const ids::RsId i = plan.assignment[j];
        const geom::Vec2& ss = scenario.subscriber(j).pos;
        // g_kj for every RS k: one scalar gain per link.
        std::vector<double> g(n);
        for (const ids::RsId k : plan.rs_ids()) {
            g[k.index()] = kernel.gain(plan.rs_position(k), ss,
                                       geom::distance(plan.rs_position(k), ss));
        }
        // (3.8) data rate: Pi * g_ij >= P^j_ss
        std::vector<double> rate(n, 0.0);
        rate[i.index()] = g[i.index()];
        lp.add_constraint(std::move(rate), LinearProgram::Relation::GreaterEq,
                          scenario.min_rx_power(j).watts());
        // (3.9) SNR, linearized with the ambient-noise term:
        // Pi*g_ij - beta * sum_{k != i} Pk*g_kj >= beta * N_amb
        std::vector<double> snr(n, 0.0);
        for (std::size_t k = 0; k < n; ++k) snr[k] = -beta * g[k];
        snr[i.index()] = g[i.index()];
        lp.add_constraint(std::move(snr), LinearProgram::Relation::GreaterEq,
                          beta * scenario.radio.snr_ambient_noise.watts());
    }

    const auto result = solve_lp(lp);
    if (result.optimal()) {
        out.powers = result.x;
        out.total = result.objective;
        out.feasible = true;
    } else {
        out.powers.assign(n, scenario.rs_max_power().watts());
        out.total = static_cast<double>(n) * scenario.rs_max_power().watts();
    }
    return out;
}

}  // namespace sag::oracles
