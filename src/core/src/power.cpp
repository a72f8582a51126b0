#include "sag/core/power.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "sag/core/feasibility.h"
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

/// P_snr of RS `rs` over its `served` subscribers, with the interference
/// read off the gain matrix at `powers`.
units::Watt snr_floor_from_gains(const Scenario& scenario,
                                 const std::vector<std::vector<double>>& g,
                                 std::span<const ids::SsId> served, ids::RsId rs,
                                 std::span<const double> powers) {
    const units::SnrRatio beta = scenario.snr_threshold();
    units::Watt need{0.0};
    for (const ids::SsId j : served) {
        units::Watt interference = scenario.radio.snr_ambient_noise;
        for (std::size_t k = 0; k < g.size(); ++k) {
            if (k != rs.index()) {
                interference += units::Watt{powers[k] * g[k][j.index()]};
            }
        }
        need = std::max(need, beta * interference / g[rs.index()][j.index()]);
    }
    return need;
}

/// The fixed-point certificate of allocate_power_capped. `field` holds
/// every RS of the plan at p0 = min(P_c, cap), which must all be
/// non-negative, and for each RS i and each SS j it serves,
/// beta * (N_amb + total_rx(j)) * (1 + 1e-9) <= P_c,i * g_ij must hold.
/// total_rx(j) includes i's own term and every term is non-negative, so
/// it bounds the sweep's sum over k != i of p_k * g_kj: the sweep's
/// requirement for i stays below P_c,i, and the first Gauss-Seidel sweep
/// from p0 changes no entry. The 1e-9 slack covers the compensated versus
/// sequential sums and the ulp difference between scalar and batch gains;
/// for any pool below 10^6 RSs it is far larger than both. A NaN anywhere
/// fails the test.
bool certifies_fixed_point(const SnrField& field,
                           const ids::IdVec<ids::RsId, std::vector<ids::SsId>>& served,
                           std::span<const double> floors) {
    const Scenario& scenario = field.scenario();
    const wireless::GainKernel kernel = scenario.gain_kernel();
    const double beta = scenario.snr_threshold_linear();
    const double noise = scenario.radio.snr_ambient_noise.watts();
    for (const ids::RsId i : field.rs_ids()) {
        if (!(field.rs_power(i).watts() >= 0.0)) return false;
        const geom::Vec2& rs = field.rs_position(i);
        for (const ids::SsId j : served[i]) {
            const geom::Vec2& ss = scenario.subscriber(j).pos;
            const double g = kernel.gain(rs, ss, geom::distance(rs, ss));
            if (!(beta * (noise + field.total_rx(j)) * (1.0 + 1e-9) <=
                  floors[i.index()] * g)) {
                return false;
            }
        }
    }
    return true;
}

}  // namespace

ids::IdVec<ids::RsId, units::Watt> coverage_power_floors(
    const Scenario& scenario, const CoveragePlan& plan) {
    ids::IdVec<ids::RsId, units::Watt> floors(plan.rs_count(), units::Watt{0.0});
    for (const ids::SsId j : scenario.ss_ids()) {
        const ids::RsId i = plan.assignment[j];
        floors[i] = std::max(floors[i],
                             scenario.tx_power_for(scenario.min_rx_power(j),
                                                   plan.rs_position(i),
                                                   scenario.subscriber(j).pos));
    }
    return floors;
}

units::Watt snr_power_floor(const Scenario& scenario, const CoveragePlan& plan,
                            ids::RsId rs, std::span<const double> powers) {
    const auto g = gain_matrix(scenario, plan);
    return snr_floor_from_gains(scenario, g, plan.served_lists()[rs], rs,
                                powers);
}

PowerAllocation allocate_power_pro(const Scenario& scenario, const CoveragePlan& plan,
                                   const ProOptions& options) {
    SAG_OBS_SPAN("pro.allocate");
    PowerAllocation out;
    const std::size_t n = plan.rs_count();
    const units::Watt pmax = scenario.rs_max_power();
    const wireless::GainKernel kernel = scenario.gain_kernel();
    const double beta = scenario.snr_threshold_linear();

    const ids::IdVec<ids::RsId, units::Watt> p_min =
        coverage_power_floors(scenario, plan);
    // Per-RS served lists: a probe only re-checks the SNR of the RS's
    // own subscribers.
    const auto served = plan.served_lists();

    // Algorithm 6 state: the field's powers are the working vector p1
    // (Step 9 re-syncs them to the committed Ptmp before they are read
    // again), committed[i] marks removal from K. The field spans all
    // subscribers, so tracked-local SsIds coincide with global.
    const std::vector<double> start(n, pmax.watts());
    SnrField field(scenario, plan.rs_positions, start);
    ids::IdVec<ids::RsId, units::Watt> p_tmp(n, pmax);
    std::vector<bool> committed(n, false);
    std::size_t remaining = n;

    // Would RS i's own subscribers still clear beta with i at power p and
    // every other RS at this round's value? One what-if read per served
    // subscriber, O(|served|): the field itself stays at the round-start
    // powers, exactly as Algorithm 6 prescribes for the later drops.
    const auto drop_survives = [&](ids::RsId i, units::Watt p) {
        for (const ids::SsId j : served[i]) {
            const double snr = field.snr_with_power(j, i, p);
            // Mirror the historic check: an interference-free subscriber
            // passes vacuously (the read reports infinity there).
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
            if (drop_survives(i, p_min[i])) {
                committed[i.index()] = true;
                --remaining;
                p_tmp[i] = p_min[i];
                SAG_OBS_COUNT("pro.drops_committed");
            }
        }
        // Step 9, only when a next round or the premium reads the field.
        if (remaining == 0) break;
        for (const ids::RsId i : field.rs_ids()) field.set_power(i, p_tmp[i]);

        if (remaining == before) {
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
    out.feasible = verify_coverage(scenario, plan, out.powers).feasible;
    return out;
}

CappedPower allocate_power_capped(const Scenario& scenario, const CoveragePlan& plan,
                                  std::span<const double> caps) {
    const std::size_t n = plan.rs_count();
    const auto served = plan.served_lists();
    std::vector<double> floors;
    floors.reserve(n);
    for (const units::Watt floor : coverage_power_floors(scenario, plan)) {
        floors.push_back(floor.watts());
    }

    if (caps.size() != n) throw std::invalid_argument("one cap per RS required");

    // The Yates loop's starting vector p0 = min(P_c, cap), and one
    // from-scratch field at it: the certificate's interference, and the
    // audit whenever p0 is also the answer.
    std::vector<double> start(n);
    for (std::size_t i = 0; i < n; ++i) start[i] = std::min(floors[i], caps[i]);
    const SnrField field(scenario, plan.rs_positions, start);

    CappedPower out;
    PowerAllocation& alloc = out.allocation;
    if (certifies_fixed_point(field, served, floors)) {
        // The first sweep would change no entry: p0 is the fixed point,
        // reached in one iteration, infeasible only where a floor itself
        // breaks its cap.
        SAG_OBS_COUNT("power.capped.certified");
        alloc.powers = std::move(start);
        alloc.iterations = 1;
        alloc.feasible = true;
        for (std::size_t i = 0; i < n; ++i) {
            if (opt::exceeds_cap(floors[i], caps[i])) alloc.feasible = false;
        }
        out.coverage = verify_coverage(field, plan);
    } else {
        const auto g = gain_matrix(scenario, plan);
        // The power-control iterator is entity-agnostic; its raw index
        // comes back as an RsId at this boundary.
        const auto result = opt::fixed_point_power_control(
            floors, caps,
            [&](std::size_t i, std::span<const double> powers) {
                const ids::RsId rs{i};
                return snr_floor_from_gains(scenario, g, served[rs], rs, powers)
                    .watts();
            });
        SAG_OBS_COUNT_ADD("power.capped.sweeps", result.iterations);
        alloc.powers = result.powers;
        alloc.iterations = result.iterations;
        alloc.feasible = result.feasible;
        out.coverage = verify_coverage(scenario, plan, alloc.powers);
    }
    alloc.total = std::accumulate(alloc.powers.begin(), alloc.powers.end(), 0.0);
    return out;
}

PowerAllocation allocate_power_optimal(const Scenario& scenario,
                                       const CoveragePlan& plan) {
    const std::vector<double> caps(plan.rs_count(), scenario.rs_max_power().watts());
    CappedPower capped = allocate_power_capped(scenario, plan, caps);
    capped.allocation.feasible =
        capped.allocation.feasible && capped.coverage.feasible;
    return std::move(capped.allocation);
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
    out.feasible = verify_coverage(scenario, plan, out.powers).feasible;
    out.iterations = 0;
    return out;
}

}  // namespace sag::core
