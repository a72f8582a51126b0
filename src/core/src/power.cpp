#include "sag/core/power.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "sag/core/snr.h"
#include "sag/core/snr_field.h"
#include "sag/obs/obs.h"
#include "sag/opt/lp.h"
#include "sag/opt/power_control.h"
#include "sag/wireless/kernel_eval.h"

namespace sag::core {

namespace {

/// Per-link path gains g[rs][sub] under the scenario's propagation model
/// (kernel resolved once; shadowing models fade each link
/// deterministically). A bulk double matrix: IDs cross into it via
/// .index(). Each row is one batch_gain sweep of the subscriber SoA
/// columns (SIMD-dispatched; see docs/PERFORMANCE.md).
std::vector<std::vector<double>> gain_matrix(const Scenario& scenario,
                                             const CoveragePlan& plan) {
    const wireless::GainKernel kernel = scenario.gain_kernel();
    const std::size_t n = scenario.subscriber_count();
    std::vector<double> ss_x, ss_y;
    ss_x.reserve(n);
    ss_y.reserve(n);
    for (const ids::SsId j : scenario.ss_ids()) {
        ss_x.push_back(scenario.subscriber(j).pos.x);
        ss_y.push_back(scenario.subscriber(j).pos.y);
    }
    std::vector<std::vector<double>> g(plan.rs_count(), std::vector<double>(n));
    for (const ids::RsId i : plan.rs_ids()) {
        wireless::batch_gain(kernel, plan.rs_position(i),
                             units::MetersSpan{ss_x}, units::MetersSpan{ss_y},
                             g[i.index()]);
    }
    return g;
}

units::Watt snr_floor_from_gains(const Scenario& scenario, const CoveragePlan& plan,
                                 const std::vector<std::vector<double>>& g,
                                 ids::RsId rs, std::span<const double> powers) {
    const units::SnrRatio beta = scenario.snr_threshold();
    units::Watt need{0.0};
    for (const ids::SsId j : scenario.ss_ids()) {
        if (plan.assignment[j] != rs) continue;
        units::Watt interference = scenario.radio.snr_ambient_noise;
        for (std::size_t k = 0; k < plan.rs_count(); ++k) {
            if (k != rs.index()) {
                interference += units::Watt{powers[k] * g[k][j.index()]};
            }
        }
        need = std::max(need, beta * interference / g[rs.index()][j.index()]);
    }
    return need;
}

bool allocation_feasible(const Scenario& scenario, const CoveragePlan& plan,
                         std::span<const double> powers) {
    const auto snrs =
        coverage_snrs(scenario, plan.rs_positions, powers, plan.assignment);
    const double beta = scenario.snr_threshold_linear();
    for (const ids::SsId j : scenario.ss_ids()) {
        const ids::RsId i = plan.assignment[j];
        const units::Watt rx = scenario.received_power(
            units::Watt{powers[i.index()]}, plan.rs_position(i),
            scenario.subscriber(j).pos);
        if (rx < scenario.min_rx_power(j) * (1.0 - 1e-9)) return false;
        if (snrs[j.index()] < beta * (1.0 - 1e-9)) return false;
    }
    return true;
}

}  // namespace

units::Watt coverage_power_floor(const Scenario& scenario, const CoveragePlan& plan,
                                 ids::RsId rs) {
    units::Watt floor{0.0};
    for (const ids::SsId j : scenario.ss_ids()) {
        if (plan.assignment[j] != rs) continue;
        floor = std::max(floor,
                         scenario.tx_power_for(scenario.min_rx_power(j),
                                               plan.rs_position(rs),
                                               scenario.subscriber(j).pos));
    }
    return floor;
}

units::Watt snr_power_floor(const Scenario& scenario, const CoveragePlan& plan,
                            ids::RsId rs, std::span<const double> powers) {
    const auto g = gain_matrix(scenario, plan);
    return snr_floor_from_gains(scenario, plan, g, rs, powers);
}

PowerAllocation allocate_power_pro(const Scenario& scenario, const CoveragePlan& plan,
                                   const ProOptions& options) {
    SAG_OBS_SPAN("pro.allocate");
    PowerAllocation out;
    const std::size_t n = plan.rs_count();
    const units::Watt pmax = scenario.rs_max_power();
    const wireless::GainKernel kernel = scenario.gain_kernel();
    const double beta = scenario.snr_threshold_linear();

    ids::IdVec<ids::RsId, units::Watt> p_min(n, units::Watt{0.0});
    for (const ids::RsId i : plan.rs_ids()) {
        p_min[i] = coverage_power_floor(scenario, plan, i);
    }

    // Per-RS served lists: each probe only needs to re-check the SNR of
    // the RS's own subscribers, read in O(1) off the field's cached totals.
    ids::IdVec<ids::RsId, std::vector<ids::SsId>> served(n);
    for (const ids::SsId j : scenario.ss_ids()) {
        served[plan.assignment[j]].push_back(j);
    }

    // Algorithm 6 state: the field's powers are the working vector p1
    // (Step 9 re-syncs them to the committed Ptmp each round), committed[i]
    // marks removal from K. Each tentative drop is a rolled-back power
    // delta instead of an O(|served| x RS) interference rebuild. The field
    // spans all subscribers, so tracked-local SsIds coincide with global.
    const std::vector<double> start(n, pmax.watts());
    SnrField field(scenario, plan.rs_positions, start);
    ids::IdVec<ids::RsId, units::Watt> p_tmp(n, pmax);
    std::vector<bool> committed(n, false);
    std::size_t remaining = n;

    const auto served_snr_ok = [&](ids::RsId i) {
        for (const ids::SsId j : served[i]) {
            const double snr = field.snr_of(j, i);
            // Mirror the historic check: an interference-free subscriber
            // passes vacuously (snr_of reports infinity there).
            if (snr < beta * (1.0 - 1e-12)) return false;
        }
        return true;
    };

    // Smallest power letting every subscriber of RS i clear beta against
    // the field's current interference (the paper's P_snr).
    const auto snr_floor = [&](ids::RsId i) {
        units::Watt need{0.0};
        for (const ids::SsId j : served[i]) {
            const geom::Vec2& rs = plan.rs_position(i);
            const geom::Vec2& ss = scenario.subscriber(j).pos;
            const double g = kernel.gain(rs, ss, geom::distance(rs, ss));
            const units::Watt own{field.rs_power(i).watts() * g};
            const units::Watt interference =
                units::Watt{field.total_rx(j)} - own + scenario.radio.snr_ambient_noise;
            need = std::max(need, scenario.snr_threshold() * interference / g);
        }
        return need;
    };

    while (remaining > 0) {
        ++out.iterations;
        const std::size_t before = remaining;

        // Steps 5-8: tentatively drop each uncommitted RS to its coverage
        // power, keeping the others at this round's values; commit into
        // Ptmp when its own subscribers' SNR survives.
        for (const ids::RsId i : field.rs_ids()) {
            if (committed[i.index()]) continue;
            SAG_OBS_COUNT("pro.drop_probes");
            SnrField::Transaction probe(field);
            field.set_power(i, p_min[i]);
            if (served_snr_ok(i)) {
                committed[i.index()] = true;
                --remaining;
                p_tmp[i] = p_min[i];
                SAG_OBS_COUNT("pro.drops_committed");
            }
            // probe rolls back: later drops in the round still see the
            // round-start powers, exactly as Algorithm 6 prescribes.
        }
        for (const ids::RsId i : field.rs_ids()) field.set_power(i, p_tmp[i]);  // Step 9

        if (remaining == before && remaining > 0) {
            // Steps 10-13: no RS could reach its coverage power; pay the
            // smallest SNR premium Psnr - Pc instead.
            ids::RsId arg = ids::RsId::invalid();
            units::Watt best_delta{std::numeric_limits<double>::infinity()};
            units::Watt best_power = pmax;
            for (const ids::RsId i : field.rs_ids()) {
                if (committed[i.index()]) continue;
                const units::Watt p_snr = std::max(p_min[i], snr_floor(i));
                const units::Watt delta = p_snr - p_min[i];
                if (delta < best_delta) {
                    best_delta = delta;
                    best_power = p_snr;
                    arg = i;
                }
                if (options.selection == ProOptions::Selection::FirstIndex &&
                    arg.valid()) {
                    break;  // ablation mode: take the first stuck RS
                }
            }
            p_tmp[arg] = std::min(best_power, pmax);
            field.set_power(arg, p_tmp[arg]);
            committed[arg.index()] = true;
            --remaining;
            SAG_OBS_COUNT("pro.premium_payments");
        }
    }
    SAG_OBS_COUNT_ADD("pro.rounds", out.iterations);

    out.powers.reserve(n);
    for (const units::Watt p : p_tmp) out.powers.push_back(p.watts());
    out.total = std::accumulate(out.powers.begin(), out.powers.end(), 0.0);
    out.feasible = allocation_feasible(scenario, plan, out.powers);
    return out;
}

PowerAllocation allocate_power_capped(const Scenario& scenario,
                                      const CoveragePlan& plan,
                                      std::span<const double> caps) {
    PowerAllocation out;
    const auto g = gain_matrix(scenario, plan);

    std::vector<double> floors(plan.rs_count());
    for (const ids::RsId i : plan.rs_ids()) {
        floors[i.index()] = coverage_power_floor(scenario, plan, i).watts();
    }

    // The power-control iterator is entity-agnostic; its raw index comes
    // back as an RsId at this boundary.
    const auto result = opt::fixed_point_power_control(
        floors, caps,
        [&](std::size_t i, std::span<const double> powers) {
            return snr_floor_from_gains(scenario, plan, g, ids::RsId{i}, powers)
                .watts();
        });

    out.powers = result.powers;
    out.total = std::accumulate(out.powers.begin(), out.powers.end(), 0.0);
    out.iterations = result.iterations;
    out.feasible = result.feasible;
    return out;
}

PowerAllocation allocate_power_optimal(const Scenario& scenario,
                                       const CoveragePlan& plan) {
    const std::vector<double> caps(plan.rs_count(), scenario.rs_max_power().watts());
    PowerAllocation out = allocate_power_capped(scenario, plan, caps);
    out.feasible = out.feasible && allocation_feasible(scenario, plan, out.powers);
    return out;
}

PowerAllocation allocate_power_optimal_lp(const Scenario& scenario,
                                          const CoveragePlan& plan) {
    PowerAllocation out;
    const std::size_t n = plan.rs_count();
    const auto g = gain_matrix(scenario, plan);

    opt::LinearProgram lp;
    lp.objective.assign(n, 1.0);
    lp.upper_bounds.assign(n, scenario.rs_max_power().watts());
    const double beta = scenario.snr_threshold_linear();
    for (const ids::SsId j : scenario.ss_ids()) {
        const ids::RsId i = plan.assignment[j];
        // (3.8) data rate: Pi * g_ij >= P^j_ss
        std::vector<double> rate(n, 0.0);
        rate[i.index()] = g[i.index()][j.index()];
        lp.add_constraint(std::move(rate), opt::LinearProgram::Relation::GreaterEq,
                          scenario.min_rx_power(j).watts());
        // (3.9) SNR, linearized with the ambient-noise term:
        // Pi*g_ij - beta * sum_{k != i} Pk*g_kj >= beta * N_amb
        std::vector<double> snr(n, 0.0);
        for (std::size_t k = 0; k < n; ++k) snr[k] = -beta * g[k][j.index()];
        snr[i.index()] = g[i.index()][j.index()];
        lp.add_constraint(std::move(snr), opt::LinearProgram::Relation::GreaterEq,
                          beta * scenario.radio.snr_ambient_noise.watts());
    }

    const auto result = opt::solve_lp(lp);
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

PowerAllocation allocate_power_baseline(const Scenario& scenario,
                                        const CoveragePlan& plan) {
    PowerAllocation out;
    out.powers.assign(plan.rs_count(), scenario.rs_max_power().watts());
    out.total =
        static_cast<double>(plan.rs_count()) * scenario.rs_max_power().watts();
    out.feasible = allocation_feasible(scenario, plan, out.powers);
    out.iterations = 0;
    return out;
}

}  // namespace sag::core
