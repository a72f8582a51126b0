#include "sag/core/power.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "sag/core/feasibility.h"
#include "sag/core/snr_field.h"
#include "sag/obs/obs.h"

namespace sag::core {

namespace {

/// P_snr of RS `rs` (paper §III-A2): the smallest power letting each of
/// its `served` subscribers clear beta against the interference `field`
/// holds at its current powers, the RS's own term taken out of the
/// subscriber's total. `field` tracks every subscriber of its scenario,
/// so tracked-local and global SsIds coincide. PRO's Steps 10-13 and the
/// capped Yates loop both read it.
units::Watt snr_floor(const SnrField& field, const wireless::GainKernel& kernel,
                      std::span<const ids::SsId> served, ids::RsId rs) {
    const Scenario& scenario = field.scenario();
    const geom::Vec2& pos = field.rs_position(rs);
    const double power = field.rs_power(rs).watts();
    units::Watt need{0.0};
    for (const ids::SsId j : served) {
        const geom::Vec2& ss = scenario.subscriber(j).pos;
        const double g = kernel.gain(pos, ss, geom::distance(pos, ss));
        const units::Watt own{power * g};
        const units::Watt interference =
            units::Watt{field.total_rx(j)} - own + scenario.radio.snr_ambient_noise;
        need = std::max(need, scenario.snr_threshold() * interference / g);
    }
    return need;
}

/// The capped loop's cap rule: a requirement more than 1e-9 relative (at
/// least 1e-9 absolute) above its cap marks infeasibility. Anything closer
/// is floating-point noise from geometry sitting exactly on a coverage
/// boundary, and the loop clamps it silently.
bool exceeds_cap(double want, double cap) {
    return want > cap + 1e-9 * std::max(1.0, std::abs(cap));
}

}  // namespace

ids::IdVec<ids::RsId, units::Watt> coverage_power_floors(
    const Scenario& scenario, const CoveragePlan& plan) {
    require_assignment(plan, scenario.subscriber_count());
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

PowerAllocation allocate_power_pro(const Scenario& scenario, const CoveragePlan& plan,
                                   const ProOptions& options) {
    SAG_OBS_SPAN("pro.allocate");
    PowerAllocation out;
    const std::size_t n = plan.rs_count();
    const units::Watt pmax = scenario.rs_max_power();
    const wireless::GainKernel kernel = scenario.gain_kernel();
    const double beta = scenario.snr_threshold_linear();

    // The floors check the assignment first (require_assignment): an
    // incomplete one throws before anything below indexes by it.
    const ids::IdVec<ids::RsId, units::Watt> p_min =
        coverage_power_floors(scenario, plan);
    // Per-RS served lists: a probe only re-checks the SNR of the RS's
    // own subscribers.
    const auto served = plan.served_lists();

    // Algorithm 6 state: the probe field's powers are the working vector
    // p1 (Step 9 re-syncs them to the committed Ptmp before they are read
    // again), committed[i] marks removal from K. The audit field holds
    // the coverage floors, which are the answer whenever every RS is
    // committed by a drop. One gain sweep builds both; they span all
    // subscribers, so tracked-local SsIds coincide with global.
    const std::vector<double> start(n, pmax.watts());
    std::vector<double> floors(n);
    for (const ids::RsId i : plan.rs_ids()) floors[i.index()] = p_min[i].watts();
    auto [field, floor_field] =
        SnrField::paired(scenario, plan.rs_positions, start, floors);
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
                const units::Watt p_snr =
                    std::max(p_min[i], snr_floor(field, kernel, served[i], i));
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
    // When the answer is P_c, the P_c field is a from-scratch field at
    // the answer: audit on it. A paid premium leaves another vector,
    // audited on a field of its own.
    out.feasible = std::ranges::equal(out.powers, floor_field.rs_powers())
                       ? verify_coverage(floor_field, plan).feasible
                       : verify_coverage(scenario, plan, out.powers).feasible;
    return out;
}

CappedPower allocate_power_capped(const Scenario& scenario, const CoveragePlan& plan,
                                  std::span<const double> caps) {
    constexpr int kMaxSweeps = 10'000;
    constexpr double kTolerance = 1e-10;  // largest change of a fixed-point sweep
    const std::size_t n = plan.rs_count();
    if (caps.size() != n) throw std::invalid_argument("one cap per RS required");
    // Throws on an incomplete assignment, like PRO, before any use of it.
    const ids::IdVec<ids::RsId, units::Watt> floors =
        coverage_power_floors(scenario, plan);
    const auto served = plan.served_lists();

    // Yates (1995): Gauss-Seidel sweeps of the standard interference
    // function max(P_c, P_snr), from p0 = min(P_c, cap), climb to its
    // minimal fixed point, the LPQC (3.6)-(3.9) optimum. One from-scratch
    // field at p0 carries the interference; an entry is written back only
    // when it changes.
    std::vector<double> start(n);
    for (const ids::RsId i : plan.rs_ids()) {
        start[i.index()] = std::min(floors[i].watts(), caps[i.index()]);
    }
    SnrField field(scenario, plan.rs_positions, start);
    const wireless::GainKernel kernel = scenario.gain_kernel();

    CappedPower out;
    PowerAllocation& alloc = out.allocation;
    bool moved = false;
    bool converged = false;
    bool capped = false;
    while (!converged && alloc.iterations < kMaxSweeps) {
        ++alloc.iterations;
        double max_change = 0.0;
        capped = false;
        for (const ids::RsId i : field.rs_ids()) {
            const double cap = caps[i.index()];
            double want =
                std::max(floors[i], snr_floor(field, kernel, served[i], i)).watts();
            if (want > cap) {
                if (exceeds_cap(want, cap)) capped = true;
                want = cap;
            }
            const double now = field.rs_power(i).watts();
            if (want == now) continue;
            max_change = std::max(max_change, std::abs(want - now));
            field.set_power(i, units::Watt{want});
            moved = true;
        }
        converged = max_change < kTolerance;
    }
    // At the fixed point a clamped entry means its true requirement
    // exceeds the cap: infeasible.
    alloc.feasible = converged && !capped;
    alloc.powers.assign(field.rs_powers().begin(), field.rs_powers().end());
    alloc.total = std::accumulate(alloc.powers.begin(), alloc.powers.end(), 0.0);
    if (moved) {
        // The field's totals drifted by the deltas' rounding: audit the
        // answer on a field of its own.
        SAG_OBS_COUNT_ADD("power.capped.sweeps", alloc.iterations);
        out.coverage = verify_coverage(scenario, plan, alloc.powers);
    } else {
        // p0 was the fixed point: the field is still the from-scratch
        // one, and the audit reads it.
        SAG_OBS_COUNT("power.capped.certified");
        out.coverage = verify_coverage(field, plan);
    }
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
