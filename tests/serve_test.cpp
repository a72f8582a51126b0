// serve::Session — the online churn-serving engine. The load-bearing
// contract under test is the never-silently-wrong invariant: after
// *every* event the outcome is either independently verified or
// explicitly degraded (`verified || degraded`), whatever the ladder
// did, whatever faults were injected, and at whatever thread count.
#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sag/core/feasibility.h"
#include "sag/core/sag.h"
#include "sag/io/event_io.h"
#include "sag/obs/obs.h"
#include "sag/serve/event.h"
#include "sag/serve/fault.h"
#include "sag/serve/session.h"
#include "sag/sim/scenario_gen.h"

namespace sag::serve {
namespace {

core::Scenario make_scenario(int seed, std::size_t subscribers = 20) {
    sim::GeneratorConfig cfg;
    cfg.field_side = 500.0;
    cfg.subscriber_count = subscribers;
    cfg.base_station_count = 4;
    return sim::generate_scenario(cfg, seed);
}

Event ss_join(std::uint64_t key, geom::Vec2 pos, double d) {
    Event e;
    e.kind = EventKind::SsJoin;
    e.key = key;
    e.pos = pos;
    e.distance_request = d;
    return e;
}

Event ss_leave(std::uint64_t key) {
    Event e;
    e.kind = EventKind::SsLeave;
    e.key = key;
    return e;
}

Event ss_move(std::uint64_t key, geom::Vec2 pos) {
    Event e;
    e.kind = EventKind::SsMove;
    e.key = key;
    e.pos = pos;
    return e;
}

Event rs_event(EventKind kind, std::size_t slot, double factor = 1.0) {
    Event e;
    e.kind = kind;
    e.rs = ids::RsId{slot};
    e.factor = factor;
    return e;
}

/// The per-event robustness contract, asserted after every apply().
void expect_contract(const EventOutcome& out) {
    EXPECT_TRUE(out.verified || out.degraded)
        << "event " << out.event_index << " (" << to_string(out.level)
        << "): neither verified nor flagged degraded";
}

/// Seeded churn stream over a session's key/slot space. Rejected events
/// (stale keys and slots are generated on purpose) are part of the
/// stream: the session must answer them, not die on them.
std::vector<Event> churn_stream(int seed, std::size_t initial_subscribers,
                                std::size_t rs_slots, std::size_t count,
                                double field_side = 500.0) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
    std::uniform_real_distribution<double> coord(0.0, field_side);
    std::uniform_real_distribution<double> rate(28.0, 42.0);
    std::uniform_real_distribution<double> factor(0.4, 1.0);
    std::vector<std::uint64_t> live(initial_subscribers);
    for (std::size_t k = 0; k < initial_subscribers; ++k) live[k] = k;
    std::uint64_t next_key = initial_subscribers;

    std::vector<Event> events;
    events.reserve(count);
    const std::size_t target = initial_subscribers;
    while (events.size() < count) {
        const int kind = static_cast<int>(rng() % 10);
        Event e;
        if (kind < 4) {  // population churn, regulated toward `target`
            if (live.size() < target ||
                (live.size() == target && rng() % 2 == 0)) {
                e = ss_join(next_key++, {coord(rng), coord(rng)}, rate(rng));
                live.push_back(e.key);
            } else {
                const std::size_t at = rng() % live.size();
                e = ss_leave(live[at]);
                live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
            }
        } else if (kind < 7 && !live.empty()) {  // move
            e = ss_move(live[rng() % live.size()], {coord(rng), coord(rng)});
        } else if (kind < 8 && !live.empty()) {  // rate change
            e.kind = EventKind::SsRate;
            e.key = live[rng() % live.size()];
            e.distance_request = rate(rng);
        } else if (kind < 9) {  // fail (may be rejected: already failed)
            e = rs_event(EventKind::RsFail, rng() % rs_slots);
        } else if (rng() % 2 == 0) {  // recover (may be rejected)
            e = rs_event(EventKind::RsRecover, rng() % rs_slots);
        } else {  // degrade (may be rejected)
            e = rs_event(EventKind::RsDegrade, rng() % rs_slots, factor(rng));
        }
        events.push_back(e);
    }
    return events;
}

// --- Lifecycle ---------------------------------------------------------------

TEST(ServeSessionTest, SeededDeploymentStartsHealthy) {
    const core::Scenario scenario = make_scenario(3);
    const core::SagResult deployment = core::solve_sag(scenario);
    ASSERT_TRUE(deployment.feasible);
    Session session(scenario, deployment);
    EXPECT_EQ(session.event_count(), 0u);
    EXPECT_EQ(session.live_subscriber_count(), scenario.subscriber_count());
    EXPECT_EQ(session.unserved_count(), 0u);
    EXPECT_GT(session.active_rs_count(), 0u);
    EXPECT_GT(session.total_power(), 0.0);
    const Session::Snapshot snap = session.snapshot();
    EXPECT_TRUE(snap.verified);
    EXPECT_FALSE(snap.degraded);
    EXPECT_TRUE(core::verify_coverage(snap.covered_scenario, snap.plan,
                                      snap.powers)
                    .feasible);
}

TEST(ServeSessionTest, JoinServeLeaveRoundTrip) {
    const core::Scenario scenario = make_scenario(5);
    Session session(scenario);
    const std::size_t before = session.live_subscriber_count();

    // Join at subscriber 0's exact position: coverable, so the repair
    // either re-homes it onto the existing plan or patches a relay in.
    const EventOutcome joined = session.apply(
        ss_join(100, scenario.subscribers[0].pos,
                scenario.subscribers[0].distance_request));
    expect_contract(joined);
    EXPECT_NE(joined.level, RepairLevel::Rejected);
    EXPECT_EQ(session.live_subscriber_count(), before + 1);
    EXPECT_EQ(session.unserved_count(), 0u);
    EXPECT_GE(joined.rehomed + joined.patched, 1u);

    const EventOutcome left = session.apply(ss_leave(100));
    expect_contract(left);
    EXPECT_EQ(session.live_subscriber_count(), before);
    EXPECT_EQ(session.unserved_count(), 0u);
    EXPECT_EQ(session.event_count(), 2u);
}

TEST(ServeSessionTest, MoveWithinReachStaysVerified) {
    const core::Scenario scenario = make_scenario(7);
    Session session(scenario);
    // A no-op move (same position) must keep the plan fully verified.
    const EventOutcome out =
        session.apply(ss_move(0, scenario.subscribers[0].pos));
    expect_contract(out);
    EXPECT_EQ(out.level, RepairLevel::Full);
    EXPECT_TRUE(out.verified);
    EXPECT_EQ(out.unserved, 0u);
}

// Every accepted event re-verifies the served view inside its serve.event
// span; a rejected event changes nothing and skips the verifiers.
TEST(ServeSessionTest, VerifySpanRunsOncePerAcceptedEvent) {
    const core::Scenario scenario = make_scenario(7);
    Session session(scenario);
    obs::ScopedRecorder rec;
    for (int i = 0; i < 3; ++i) {
        expect_contract(session.apply(ss_move(0, scenario.subscribers[0].pos)));
    }
    EXPECT_EQ(session.apply(ss_leave(999)).level, RepairLevel::Rejected);

    const obs::RunReport report = rec.snapshot();
    const auto named = [](const std::vector<obs::TraceNode>& nodes,
                          const std::string& name) {
        return std::find_if(nodes.begin(), nodes.end(),
                            [&](const obs::TraceNode& n) { return n.name == name; });
    };
    const auto event = named(report.trace, "serve.event");
    ASSERT_NE(event, report.trace.end());
    EXPECT_EQ(event->count, 4u);
    const auto verify = named(event->children, "serve.verify");
    ASSERT_NE(verify, event->children.end());
    EXPECT_EQ(verify->count, 3u);
}

// --- Validation: bad events are Rejected, never a crash or a mutation --------

TEST(ServeSessionTest, InvalidEventsAreRejectedWithoutMutation) {
    const core::Scenario scenario = make_scenario(11);
    Session session(scenario);
    const std::size_t live = session.live_subscriber_count();
    const std::size_t pool = session.pool_rs_count();
    const double power = session.total_power();

    const struct {
        Event event;
        const char* reason;
    } cases[] = {
        {ss_leave(9999), "unknown subscriber key"},
        {ss_join(0, {1.0, 1.0}, 30.0), "duplicate subscriber key"},
        {ss_join(200, {std::numeric_limits<double>::quiet_NaN(), 0.0}, 30.0),
         "non-finite position"},
        {ss_join(200, {1.0, 1.0}, -5.0), "non-positive distance request"},
        {ss_move(9999, {1.0, 1.0}), "unknown subscriber key"},
        {rs_event(EventKind::RsFail, pool + 7), "RS slot out of range"},
        {rs_event(EventKind::RsRecover, 0), "RS is not failed"},
        {rs_event(EventKind::RsDegrade, 0, 1.5),
         "degradation factor outside (0, 1]"},
        {rs_event(EventKind::RsDegrade, 0, 0.0),
         "degradation factor outside (0, 1]"},
    };
    for (const auto& c : cases) {
        const EventOutcome out = session.apply(c.event);
        EXPECT_EQ(out.level, RepairLevel::Rejected);
        EXPECT_EQ(out.reject_reason, c.reason);
        expect_contract(out);
    }
    EXPECT_EQ(session.live_subscriber_count(), live);
    EXPECT_EQ(session.pool_rs_count(), pool);
    EXPECT_EQ(session.total_power(), power);
    EXPECT_EQ(session.event_count(), std::size(cases));
}

TEST(ServeSessionTest, DoubleFailAndDegradeDeadAreRejected) {
    const core::Scenario scenario = make_scenario(11);
    Session session(scenario);
    expect_contract(session.apply(rs_event(EventKind::RsFail, 0)));
    EXPECT_EQ(session.apply(rs_event(EventKind::RsFail, 0)).reject_reason,
              "RS already failed");
    EXPECT_EQ(session.apply(rs_event(EventKind::RsDegrade, 0, 0.5)).reject_reason,
              "cannot degrade a failed RS");
}

// --- Failure repair ----------------------------------------------------------

TEST(ServeSessionTest, RsFailureRepairsOrFlags) {
    const core::Scenario scenario = make_scenario(13, 25);
    Session session(scenario);
    const std::size_t pool = session.pool_rs_count();
    for (std::size_t slot = 0; slot < pool; ++slot) {
        const EventOutcome out = session.apply(rs_event(EventKind::RsFail, slot));
        if (out.level == RepairLevel::Rejected) continue;
        expect_contract(out);
        // FailureSet semantics: the failure is tracked until recovery.
        const auto& down = session.outstanding_failures().coverage_down;
        EXPECT_TRUE(std::find(down.begin(), down.end(), ids::RsId{slot}) !=
                    down.end());
        // Every SS is either re-homed/patched back in or explicitly
        // flagged unserved — never silently kept on a dead server.
        EXPECT_EQ(out.unserved, session.unserved_keys().size());
        session.apply(rs_event(EventKind::RsRecover, slot));
    }
}

TEST(ServeSessionTest, DegradeThenRecoverRestoresHealth) {
    const core::Scenario scenario = make_scenario(17);
    Session session(scenario);
    const EventOutcome degraded =
        session.apply(rs_event(EventKind::RsDegrade, 0, 0.3));
    expect_contract(degraded);
    EXPECT_EQ(session.outstanding_failures().degraded.size(), 1u);

    // Recovery means replaced hardware: the degradation history clears.
    expect_contract(session.apply(rs_event(EventKind::RsFail, 0)));
    const EventOutcome recovered =
        session.apply(rs_event(EventKind::RsRecover, 0));
    expect_contract(recovered);
    EXPECT_TRUE(session.outstanding_failures().coverage_down.empty());
    EXPECT_TRUE(session.outstanding_failures().degraded.empty());
}

TEST(ServeSessionTest, UnreachableJoinIsFlaggedWhenPatchDisabled) {
    const core::Scenario scenario = make_scenario(19);
    ServeOptions opts;
    opts.max_new_relays_per_event = 0;
    // Flagged SSs trigger the drift re-solve; push it out of this test.
    opts.resolve_horizon = 1000;
    Session session(scenario, opts);
    const EventOutcome out =
        session.apply(ss_join(500, {50000.0, 50000.0}, 30.0));
    EXPECT_NE(out.level, RepairLevel::Rejected);
    expect_contract(out);
    EXPECT_TRUE(out.degraded);
    EXPECT_EQ(out.unserved, 1u);
    EXPECT_EQ(session.unserved_keys(), std::vector<std::uint64_t>{500});
    EXPECT_TRUE(out.resolve_triggered);  // flagged SS fires the budget
}

TEST(ServeSessionTest, UnreachableJoinIsPatchedFromCandidatePool) {
    const core::Scenario scenario = make_scenario(19);
    ServeOptions opts;
    opts.drift_excess_rs = 1000;     // keep the re-solve out of the way
    opts.drift_power_ratio = 1e9;
    Session session(scenario, opts);
    const std::size_t pool = session.pool_rs_count();
    // An isolated far-away SS: its own disc center is an IAC candidate,
    // so the patch stage can always reach it.
    const EventOutcome out =
        session.apply(ss_join(500, {50000.0, 50000.0}, 30.0));
    expect_contract(out);
    EXPECT_EQ(out.patched, 1u);
    EXPECT_EQ(out.unserved, 0u);
    EXPECT_EQ(session.pool_rs_count(), pool + 1);
}

// --- Injected faults exercise the ladder -------------------------------------

TEST(ServeSessionTest, InjectedRehomeTimeoutDegradesEveryEvent) {
    const core::Scenario scenario = make_scenario(23);
    ServeOptions opts;
    FaultOptions faults;
    faults.stage_timeout_probability = 1.0;  // every stage, every event
    faults.seed = 5;
    opts.faults = FaultPlan(faults);
    Session session(scenario, opts);
    for (const Event& e : churn_stream(23, 20, session.pool_rs_count(), 30)) {
        const EventOutcome out = session.apply(e);
        expect_contract(out);
        if (out.level != RepairLevel::Rejected) {
            EXPECT_EQ(out.level, RepairLevel::Degraded);
        }
    }
}

TEST(ServeSessionTest, PartialInjectionWalksTheWholeLadder) {
    const core::Scenario scenario = make_scenario(29);
    ServeOptions opts;
    FaultOptions faults;
    faults.stage_timeout_probability = 0.4;
    faults.seed = 7;
    opts.faults = FaultPlan(faults);
    Session session(scenario, opts);
    std::size_t full = 0, rehome_only = 0, degraded = 0;
    for (const Event& e : churn_stream(29, 20, session.pool_rs_count(), 80)) {
        const EventOutcome out = session.apply(e);
        expect_contract(out);
        full += out.level == RepairLevel::Full ? 1 : 0;
        rehome_only += out.level == RepairLevel::RehomeOnly ? 1 : 0;
        degraded += out.level == RepairLevel::Degraded ? 1 : 0;
    }
    // With p=0.4 per stage over 80 events every rung must have fired.
    EXPECT_GT(full, 0u);
    EXPECT_GT(rehome_only, 0u);
    EXPECT_GT(degraded, 0u);
}

// --- Drift-triggered background re-solve -------------------------------------

TEST(ServeSessionTest, DriftTriggersResolveAndAdoptsAtHorizon) {
    const core::Scenario scenario = make_scenario(31);
    ServeOptions opts;
    opts.drift_excess_rs = 0;  // any patched relay counts as drift
    opts.resolve_horizon = 2;
    Session session(scenario, opts);
    const EventOutcome trigger =
        session.apply(ss_join(500, {50000.0, 50000.0}, 30.0));
    expect_contract(trigger);
    EXPECT_EQ(trigger.patched, 1u);
    EXPECT_TRUE(trigger.resolve_triggered);
    EXPECT_TRUE(session.resolve_pending());

    const EventOutcome pad = session.apply(ss_move(0, scenario.subscribers[0].pos));
    expect_contract(pad);
    EXPECT_FALSE(pad.resolve_adopted);

    // Horizon reached: the snapshot solve swaps in atomically.
    const EventOutcome adopt =
        session.apply(ss_move(1, scenario.subscribers[1].pos));
    expect_contract(adopt);
    EXPECT_TRUE(adopt.resolve_adopted);
    EXPECT_FALSE(session.resolve_pending());
    EXPECT_EQ(session.unserved_count(), 0u);
    // Adoption is a re-deployment: outstanding failures clear.
    EXPECT_TRUE(session.outstanding_failures().coverage_down.empty());
}

TEST(ServeSessionTest, InjectedResolveTimeoutRetriesWithBackoff) {
    const core::Scenario scenario = make_scenario(31);
    ServeOptions opts;
    opts.drift_excess_rs = 0;
    opts.resolve_horizon = 1;
    opts.resolve_backoff_start = 2;
    FaultOptions faults;
    faults.resolve_timeout_probability = 1.0;  // every solve "times out"
    opts.faults = FaultPlan(faults);
    Session session(scenario, opts);
    const EventOutcome trigger =
        session.apply(ss_join(500, {50000.0, 50000.0}, 30.0));
    EXPECT_TRUE(trigger.resolve_triggered);

    // The injected-timeout solve fails at its horizon; no adoption, and
    // the session keeps serving (degraded where it must).
    bool adopted = false;
    std::size_t retriggers = 0;
    for (int i = 0; i < 12; ++i) {
        const EventOutcome out =
            session.apply(ss_move(0, scenario.subscribers[0].pos));
        expect_contract(out);
        adopted = adopted || out.resolve_adopted;
        retriggers += out.resolve_triggered ? 1 : 0;
    }
    EXPECT_FALSE(adopted);
    // Backoff gates the retries: more than one, fewer than every event.
    EXPECT_GE(retriggers, 2u);
    EXPECT_LT(retriggers, 12u);
}

// --- Thread-count determinism ------------------------------------------------

std::string outcome_fingerprint(Session& session,
                                const std::vector<Event>& events) {
    std::string fingerprint;
    for (const Event& e : events) {
        const EventOutcome out = session.apply(e);
        expect_contract(out);
        fingerprint += io::event_outcome_to_json(out).dump();
        fingerprint.push_back('\n');
    }
    return fingerprint;
}

TEST(ServeSessionTest, ThreadedReplayIsByteIdenticalToSerial) {
    const core::Scenario scenario = make_scenario(37, 24);
    const core::SagResult deployment = core::solve_sag(scenario);
    ASSERT_TRUE(deployment.feasible);
    ServeOptions opts;
    opts.drift_excess_rs = 1;   // tight budget: force re-solves to happen
    opts.resolve_horizon = 4;
    FaultOptions faults;
    faults.stage_timeout_probability = 0.1;
    faults.resolve_timeout_probability = 0.3;
    faults.seed = 41;
    opts.faults = FaultPlan(faults);
    const std::vector<Event> events =
        churn_stream(37, 24, deployment.coverage.rs_count(), 60);

    opts.threads = 1;
    Session serial(scenario, deployment, opts);
    const std::string a = outcome_fingerprint(serial, events);

    opts.threads = 2;
    Session threaded(scenario, deployment, opts);
    const std::string b = outcome_fingerprint(threaded, events);

    EXPECT_EQ(a, b);
    EXPECT_EQ(serial.event_count(), threaded.event_count());
    EXPECT_EQ(serial.unserved_keys(), threaded.unserved_keys());
}

}  // namespace
}  // namespace sag::serve
