#pragma once

// The self-healing repair engine: turn a damaged deployment back into a
// verified-feasible (possibly smaller) network.
//
// Each stage is written once, as a member of RepairState, and shared by
// the two callers: repair() below (one failure batch, stages run
// ungated) and serve::Session (one churn event, stages run down its
// StageGate ladder with its own budgets). Stages, in order:
//   1. rehome — unserved SSs are re-homed onto surviving RSs within
//      reach, nearest-first with ties to the lower pool slot, via SNR
//      probes against a core::SnrField held at the per-RS caps;
//   2. patch — SSs no surviving RS can reach are served by new relays
//      drawn greedily from the IAC candidate pool of exactly those SSs;
//   3. reescalate — core::allocate_power_capped (the Yates fixed point,
//      swept on one interference field from the coverage floors)
//      recomputes the minimal lower-tier vector under per-RS caps: P_max
//      for healthy and patched RSs, factor * P_max for degraded ones. A
//      round whose allocation fails the allocator's own verify_coverage
//      report sheds the newly-assigned SSs that break it (all of them
//      when only older SSs fail) and retries; a shed in the last round
//      is followed by one closing allocation of what is left;
//   4. backhaul — MBMC rebuilds the whole upper tier over the active
//      coverage RSs, running Prim over a candidate graph the state keeps
//      by pool slot (extended by each patched relay, rebuilt only when
//      d_min changes), then UCPO re-optimizes the connectivity powers.
//
// repair() reports the subscribers it still cannot serve in
// `unrecoverable` — never asserted on. Everything it keeps is
// re-verified: RepairOutcome::repaired is a SagResult over
// `covered_scenario`, so verify_coverage / verify_connectivity run on it
// directly.

#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "sag/core/power.h"
#include "sag/core/sag.h"
#include "sag/core/scenario.h"
#include "sag/core/snr_field.h"
#include "sag/core/ucra.h"
#include "sag/geometry/vec2.h"
#include "sag/ids/ids.h"
#include "sag/resilience/damage.h"
#include "sag/resilience/failure.h"

namespace sag::resilience {

/// Compacted, independently verifiable view of a RepairState: the
/// scenario restricted to the served SSs plus the coverage plan over the
/// alive RSs serving at least one of them.
struct ActiveView {
    core::Scenario covered_scenario;
    std::vector<std::size_t> covered;  ///< SS slot per covered SS, ascending
    core::CoveragePlan plan;
    std::vector<double> caps;          ///< per plan RS, linear watts
    std::vector<std::size_t> active;   ///< plan RS -> pool slot
};

/// Result of the power re-escalation rounds: the allocation and audit of
/// the state reescalate leaves behind.
struct Reescalation {
    ActiveView view;  ///< the state's view when reescalate returned
    /// Per view RS; `feasible` is verify_coverage's verdict on it.
    core::PowerAllocation power;
    int rounds = 0;                 ///< allocations executed
    std::vector<std::size_t> shed;  ///< SS slots shed to unserved, in order
};

/// Working state of one repair. RS pool slots are stable: a dead RS
/// keeps its slot at zero power, patched relays append. SS slot k is the
/// scenario's subscriber k and the field's tracked slot k.
struct RepairState {
    static constexpr std::size_t kUnserved = static_cast<std::size_t>(-1);

    /// The pool at `caps` (linear watts; dead slots must be 0) with every
    /// SS unserved. The scenario must outlive the state.
    RepairState(const core::Scenario& scenario,
                std::span<const geom::Vec2> rs_positions,
                std::span<const double> caps, std::vector<bool> dead);

    /// The probe field: the pool at its caps, dead slots at 0 W. It is
    /// the one record of each slot's position and cap.
    core::SnrField field;
    std::vector<bool> dead;             ///< per pool slot
    std::vector<std::size_t> server;    ///< per SS slot: pool slot or kUnserved
    std::vector<bool> newly_assigned;   ///< per SS slot: placed by this repair

    const core::Scenario& scenario() const { return field.scenario(); }
    std::size_t pool_size() const { return field.rs_count(); }
    const geom::Vec2& position(std::size_t rs) const {
        return field.rs_position(ids::RsId{rs});
    }
    double cap(std::size_t rs) const {
        return field.rs_power(ids::RsId{rs}).watts();
    }
    std::size_t unserved_count() const;

    /// Can pool RS `rs` serve SS `slot` at its cap? core::check_link
    /// against the field's cached totals, the verifier's own link test.
    /// Dead slots transmit 0 W, so they fail the rate check.
    bool can_serve(std::size_t rs, std::size_t slot) const;
    /// Stage 1: each candidate SS, in order, goes to the first pool RS
    /// that can serve it, nearest first, ties to the lower slot. Only
    /// RSs within (d_j + 1e-6)^2 * (1 + 1e-9) squared distance are
    /// sorted and probed; check_link fails every other one on distance.
    /// Returns the number placed.
    std::size_t rehome(const std::vector<std::size_t>& candidates);
    /// Stage 2: up to `max_new` relays at P_max, each the IAC candidate
    /// serving the most still-unserved SSs. Returns the number added.
    std::size_t patch(std::size_t max_new);
    /// Stage 3: at most max(1, max_rounds) power/verify/shed rounds, and
    /// one closing power/verify round when the last of them shed, so the
    /// result always describes the state as it is left. A round's verdict
    /// is the report core::allocate_power_capped returns with its powers;
    /// no second audit runs.
    Reescalation reescalate(int max_rounds);
    /// The current served view.
    ActiveView view() const;
    /// Stage 4: MBMC backhaul plus UCPO powers over `v`, a view of this
    /// state. Prim runs over one core::MbmcGraph of every pool slot (dead
    /// ones included) that the state keeps: built on the first call,
    /// rebuilt when the view's d_min differs from the graph's, and
    /// extended by each relay patched in since, in O(pool + B). The arcs
    /// among the active slots are those of a graph over the view's plan,
    /// so the backhaul equals core::solve_mbmc on that plan, bit for bit.
    core::ConnectivityPlan backhaul(const ActiveView& v);

private:
    std::optional<core::MbmcGraph> graph_;  ///< over pool slots 0..size()-1
};

struct RepairOptions {
    /// Stage-2 budget of patched-in relays; 0 disables patching.
    std::size_t max_new_relays = 8;
};

/// Result of one repair run. `repaired` and its verification live in the
/// SsId space of `covered_scenario`; `covered[k]` maps its subscriber k
/// back to the original scenario's SsId.
struct RepairOutcome {
    /// The original scenario restricted to the subscribers the repaired
    /// network serves (ascending original-SsId order).
    core::Scenario covered_scenario;
    /// Original SsIds of covered_scenario's subscribers, ascending.
    std::vector<ids::SsId> covered;
    /// The repaired two-tier network over covered_scenario.
    core::SagResult repaired;
    /// Original SsIds the engine could not restore, ascending.
    std::vector<ids::SsId> unrecoverable;

    std::size_t reassigned = 0;   ///< orphans re-homed onto surviving RSs
    std::size_t new_relays = 0;   ///< stage-2 relays patched in
    int rounds = 0;               ///< power/verify rounds executed
    double power_before = 0.0;    ///< P_total of the intact deployment
    double power_after = 0.0;     ///< P_total of the repaired network

    /// Repaired-over-intact total power (the bench's overhead curve);
    /// 0/0 reports 1 (an empty network repaired to an empty network).
    double power_overhead() const {
        return power_before > 0.0 ? power_after / power_before
                                  : (power_after > 0.0 ? std::numeric_limits<
                                                             double>::infinity()
                                                       : 1.0);
    }
};

/// Runs the staged repair: assess the damage, seed a RepairState with
/// the survivors at their post-failure caps and the orphans unserved,
/// then run every stage once. Deterministic: no randomness, all stages
/// are greedy over sorted orders.
RepairOutcome repair(const core::Scenario& scenario,
                     const core::SagResult& deployment,
                     const FailureSet& failures, const RepairOptions& options = {});

}  // namespace sag::resilience
