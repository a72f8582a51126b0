#pragma once

// serve::Session — the online churn-serving engine (ROADMAP item 2).
//
// A Session owns a solved deployment plus its hot core::SnrField, both
// held in a resilience::RepairState, and keeps the plan valid as the
// world changes: each apply(event) runs a bounded-scope incremental
// repair from the same stage functions resilience::repair runs —
// re-home violated SSs onto surviving RSs, patch new relays from the
// IAC candidate pool, re-escalate powers with the Yates fixed point,
// re-steinerize the backhaul. What is serve's own is around them:
// event validation and mutation, the candidate scan, and the check of
// every stage against a shared exec::Deadline (the StageGate). When a
// stage's gate is expired the handler drops one rung down the
// degradation ladder
//
//     full repair -> re-home-only -> accept-degraded-with-flagged-SSs
//
// and *never* crashes or returns a silently wrong plan: after every
// event the served view either passes verify_coverage + verify_connectivity
// or the outcome carries degraded=true with the unserved SSs flagged.
//
// Plan-quality drift (excess active RSs / excess total power versus the
// last full solve, or any flagged SS) triggers a *background* full
// re-solve on an exec::ThreadPool. The solve runs over a snapshot taken
// at the trigger event and is adopted atomically at a fixed event
// horizon — the same horizon whether the solve ran inline (threads <=
// 1) or on a worker — so a threads=N run replays byte-identical to
// threads=1. A failed or injected-timeout solve retries with doubling
// event-count backoff.
//
// Determinism: with the default unlimited event budget the Session
// reads no clocks and draws no unseeded randomness; the degradation
// paths are exercised via FaultPlan's injected stage timeouts
// (StageGate::forced_mask — forced expiry without a clock read).
// Schema, ladder, drift budget, and report format: docs/SERVING.md.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sag/core/sag.h"
#include "sag/core/scenario.h"
#include "sag/exec/deadline.h"
#include "sag/exec/mutex.h"
#include "sag/exec/thread_annotations.h"
#include "sag/exec/thread_pool.h"
#include "sag/geometry/vec2.h"
#include "sag/ids/ids.h"
#include "sag/resilience/failure.h"
#include "sag/resilience/repair.h"
#include "sag/serve/event.h"
#include "sag/serve/fault.h"

namespace sag::serve {

/// Per-stage deadline check of one event handler: the shared wall-clock
/// deadline (unlimited by default, for determinism) plus the event's
/// injected-timeout mask from the FaultPlan. A stage runs iff its gate
/// has not expired when the handler reaches it.
struct StageGate {
    exec::Deadline deadline;
    unsigned forced_mask = 0;  ///< bit per RepairStage: injected expiry

    bool expired(RepairStage stage) const {
        return ((forced_mask >> static_cast<unsigned>(stage)) & 1u) != 0 ||
               deadline.expired();
    }
};

struct ServeOptions {
    /// Wall-clock budget per event handler; 0 (the default) is
    /// unlimited, which is also the byte-deterministic mode. With a
    /// real budget the ladder additionally reacts to actual elapsed
    /// time, at the cost of replay determinism.
    double event_budget_seconds = 0.0;
    /// Stage-2 budget of relays patched in per event.
    std::size_t max_new_relays_per_event = 2;
    /// Drift budget: background re-solve triggers when the active RS
    /// count exceeds the last full solve's by more than this...
    std::size_t drift_excess_rs = 4;
    /// ...or total power exceeds the last full solve's by this factor,
    /// or any SS is flagged unserved.
    double drift_power_ratio = 1.5;
    /// Events between a re-solve trigger and its atomic adoption (the
    /// fixed horizon that keeps threaded runs byte-identical).
    std::size_t resolve_horizon = 32;
    /// Initial retry backoff after a failed re-solve, in events; the
    /// backoff doubles per failure up to 1024 events.
    std::size_t resolve_backoff_start = 16;
    /// >= 2 runs re-solves on a background exec::ThreadPool worker;
    /// 0 or 1 solves inline at the trigger event (same adoption
    /// horizon, so the outcome stream is identical).
    std::size_t threads = 1;
    /// Options for full (re-)solves.
    core::SamcOptions solve{};
    /// Deterministic fault injection (none by default).
    FaultPlan faults{};
};

class Session {
public:
    /// Serve an already-solved deployment of `scenario`.
    Session(core::Scenario scenario, const core::SagResult& deployment,
            const ServeOptions& options = {});
    /// Convenience: runs the initial full solve internally.
    explicit Session(core::Scenario scenario, const ServeOptions& options = {});
    ~Session();

    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    /// Ingest one event: validate, mutate, repair down the ladder,
    /// verify, and account drift. Never throws on bad events — they
    /// return a Rejected outcome with the state untouched.
    EventOutcome apply(const Event& event);

    /// Events ingested so far (== the next event's index).
    std::size_t event_count() const { return event_index_; }
    std::size_t live_subscriber_count() const { return slot_key_.size(); }
    /// Total pool slots (alive + dead + patched): the valid range for
    /// Rs* event addressing.
    std::size_t pool_rs_count() const { return state_.pool_size(); }
    std::size_t unserved_count() const { return state_.unserved_count(); }
    /// Alive coverage RSs serving at least one SS.
    std::size_t active_rs_count() const;
    /// P_L + P_H of the current plan, watts.
    double total_power() const;
    /// Outstanding RS failures/degradations against the current pool
    /// (resilience::FailureSet semantics; cleared by re-solve adoption).
    const resilience::FailureSet& outstanding_failures() const {
        return failures_;
    }
    /// Session keys of the currently unserved (flagged) SSs, ascending.
    std::vector<std::uint64_t> unserved_keys() const;
    /// True when a triggered re-solve has not yet been adopted/failed.
    bool resolve_pending() const { return resolve_pending_; }
    /// The live scenario (subscribers mutate with churn). This is what a
    /// from-scratch oracle solve would be handed right now.
    const core::Scenario& scenario() const { return scenario_; }

    /// Compacted, independently verifiable view of the current plan:
    /// the scenario restricted to the served SSs plus the active-RS
    /// coverage plan, powers, and backhaul (the RepairOutcome pattern).
    struct Snapshot {
        core::Scenario covered_scenario;
        std::vector<std::uint64_t> covered_keys;  ///< per covered SS
        core::CoveragePlan plan;
        std::vector<double> powers;  ///< per active RS, linear watts
        core::ConnectivityPlan connectivity;
        bool verified = false;
        bool degraded = false;
    };
    Snapshot snapshot() const;

private:
    static constexpr std::size_t kUnserved = resilience::RepairState::kUnserved;

    /// Fresh all-alive pool at P_max over `positions`: no failures, no
    /// allocation, every SS unserved.
    void reset_pool(std::span<const geom::Vec2> positions);
    void init_from_deployment(const core::SagResult& deployment);
    std::size_t find_slot(std::uint64_t key) const;
    std::string validate(const Event& event) const;
    void apply_mutation(const Event& event);
    // Stage wrappers: gating, budgets and serve.* instrumentation around
    // the shared resilience::RepairState stages.
    void rehome(const std::vector<std::size_t>& candidates, EventOutcome& out);
    void patch(EventOutcome& out);
    void reallocate_power(EventOutcome& out);
    void rebuild_backhaul();
    void run_verify();
    void adopt_or_fail_resolve(EventOutcome& out);
    void maybe_trigger_resolve(EventOutcome& out);
    void adopt_plan(const core::SagResult& solved, EventOutcome& out);

    core::Scenario scenario_;  ///< live: subscribers mutate with churn
    ServeOptions options_;

    // Slot-stable RS pool (dead RSs keep their slot at zero power so
    // event RsIds and the server map survive failures), probe field and
    // per-SS-slot server map; SS slot k <-> scenario_.subscribers[k] <->
    // the field's tracked slot k (identity maintained by swap-remove).
    // state_.newly_assigned is reset per event.
    resilience::RepairState state_;
    resilience::FailureSet failures_;
    std::vector<std::uint64_t> slot_key_;  ///< slot -> session key

    std::vector<double> alloc_;  ///< per pool RS: allocated watts
    core::ConnectivityPlan conn_;
    std::vector<std::size_t> conn_active_;  ///< active set conn_ was built over
    bool backhaul_dirty_ = false;
    bool verified_ = false;

    std::size_t event_index_ = 0;

    // Drift baseline: the last adopted full solve.
    std::size_t baseline_rs_ = 0;
    double baseline_power_ = 0.0;

    // Background re-solve. The pool (when threads >= 2) runs exactly
    // one solve at a time; the result lands in pending_ under mutex_
    // and is consumed at the adoption horizon on the event thread.
    std::unique_ptr<exec::ThreadPool> pool_;
    exec::Mutex mutex_;
    std::unique_ptr<core::SagResult> pending_ SAG_GUARDED_BY(mutex_);
    bool resolve_pending_ = false;
    bool resolve_injected_fail_ = false;
    std::size_t adopt_at_ = 0;
    std::size_t resolve_backoff_ = 0;
    std::size_t next_resolve_allowed_ = 0;
};

}  // namespace sag::serve
