// Fault-injected churn soak: thousands of events — joins, leaves,
// moves, rate changes, RS failures/degradations/recoveries, corrupted
// inputs, injected stage and solver timeouts — through one live
// Session. The soak asserts the serving contract on every single
// event: never a crash, never a silently wrong plan (`verified ||
// degraded`), rejected events leave the state untouched, and the whole
// run replays byte-identically (including at a different thread count).
//
// The replayed outcome JSONL, a churn stream over the 4 km / 300-SS city
// and resilience::repair outcomes on that city are also pinned to
// golden 64-bit FNV-1a digests, so a change under the serve event path
// or the repair stages that moves one output byte fails here. Gains may
// differ in the last ulps between the scalar and AVX2 kernels, so each
// digest is recorded per wireless::active_simd_mode() (on these streams
// both modes emit the same bytes today), and the suite also runs as
// scalar.* under SAG_SIMD=scalar. The scenarios and streams draw through
// libstdc++'s distributions (sim::generate_scenario does too), so the
// digests are of a libstdc++ build. When a change means to move an
// output, re-record the digest the failure prints and say why in
// CHANGES.md.
#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sag/core/feasibility.h"
#include "sag/core/sag.h"
#include "sag/core/ucra.h"
#include "sag/io/event_io.h"
#include "sag/io/resilience_io.h"
#include "sag/resilience/damage.h"
#include "sag/resilience/failure.h"
#include "sag/resilience/repair.h"
#include "sag/serve/event.h"
#include "sag/serve/fault.h"
#include "sag/serve/session.h"
#include "sag/sim/scenario_gen.h"
#include "sag/wireless/kernel_eval.h"

namespace sag::serve {
namespace {

core::Scenario make_scenario(int seed, std::size_t subscribers) {
    sim::GeneratorConfig cfg;
    cfg.field_side = 500.0;
    cfg.subscriber_count = subscribers;
    cfg.base_station_count = 4;
    return sim::generate_scenario(cfg, seed);
}

/// Seeded churn stream mixing every event kind, including deliberately
/// stale keys/slots the session must reject. Join and move coordinates
/// are drawn from [lo, hi).
std::vector<Event> churn_stream(int seed, std::size_t initial_subscribers,
                                std::size_t rs_slots, std::size_t count,
                                double lo = 0.0, double hi = 500.0) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed));
    std::uniform_real_distribution<double> coord(lo, hi);
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
        if (kind < 4) {
            // Regulated toward the initial population: an unregulated
            // join/leave mix drifts linearly and makes the soak quadratic.
            if (live.size() < target ||
                (live.size() == target && rng() % 2 == 0)) {
                e.kind = EventKind::SsJoin;
                e.key = next_key++;
                e.pos = {coord(rng), coord(rng)};
                e.distance_request = rate(rng);
                live.push_back(e.key);
            } else {
                e.kind = EventKind::SsLeave;
                const std::size_t at = rng() % live.size();
                e.key = live[at];
                live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
            }
        } else if (kind < 7 && !live.empty()) {
            e.kind = EventKind::SsMove;
            e.key = live[rng() % live.size()];
            e.pos = {coord(rng), coord(rng)};
        } else if (kind < 8 && !live.empty()) {
            e.kind = EventKind::SsRate;
            e.key = live[rng() % live.size()];
            e.distance_request = rate(rng);
        } else if (kind < 9) {
            e.kind = EventKind::RsFail;
            e.rs = ids::RsId{rng() % rs_slots};
        } else if (rng() % 2 == 0) {
            e.kind = EventKind::RsRecover;
            e.rs = ids::RsId{rng() % rs_slots};
        } else {
            e.kind = EventKind::RsDegrade;
            e.rs = ids::RsId{rng() % rs_slots};
            e.factor = factor(rng);
        }
        events.push_back(e);
    }
    return events;
}

/// FNV-1a over a byte string.
std::uint64_t fnv1a(const std::string& bytes) {
    std::uint64_t hash = 14695981039346656037ULL;
    for (const unsigned char c : bytes) {
        hash ^= c;
        hash *= 1099511628211ULL;
    }
    return hash;
}

/// A recorded digest per dispatch mode.
struct Golden {
    std::uint64_t avx2;
    std::uint64_t scalar;
};

void expect_digest(const std::string& bytes, const Golden& golden) {
    const bool avx2 = wireless::active_simd_mode() == wireless::SimdMode::Avx2;
    const std::uint64_t got = fnv1a(bytes);
    EXPECT_EQ(got, avx2 ? golden.avx2 : golden.scalar)
        << "digest under " << wireless::simd_mode_name(wireless::active_simd_mode())
        << ": 0x" << std::hex << got;
}

/// FNV-1a over a connectivity plan's 64-bit words: positions, kinds,
/// parents and powers (ucra_test's MbmcGolden digest).
std::uint64_t plan_digest(const core::ConnectivityPlan& plan) {
    std::uint64_t h = 14695981039346656037ULL;
    const auto add = [&](std::uint64_t v) {
        for (int b = 0; b < 64; b += 8) {
            h ^= (v >> b) & 0xffU;
            h *= 1099511628211ULL;
        }
    };
    add(plan.node_count());
    for (std::size_t v = 0; v < plan.node_count(); ++v) {
        add(std::bit_cast<std::uint64_t>(plan.positions[v].x));
        add(std::bit_cast<std::uint64_t>(plan.positions[v].y));
        add(static_cast<std::uint64_t>(plan.kinds[v]));
        add(plan.parent[v]);
        add(std::bit_cast<std::uint64_t>(plan.powers[v]));
    }
    return h;
}

/// The session's kept backhaul is the one a scratch MBMC + UCPO builds
/// over its snapshot's plan, bit for bit.
void expect_scratch_backhaul(const Session& session, std::size_t event) {
    const Session::Snapshot snap = session.snapshot();
    core::ConnectivityPlan scratch = core::solve_mbmc(snap.covered_scenario, snap.plan);
    core::allocate_power_ucpo(snap.covered_scenario, snap.plan, scratch);
    EXPECT_EQ(plan_digest(snap.connectivity), plan_digest(scratch))
        << "event " << event << ": backhaul differs from a scratch MBMC + UCPO";
}

struct SoakStats {
    std::size_t rejected = 0;
    std::size_t degraded_events = 0;
    std::size_t resolves_adopted = 0;
    std::string fingerprint;
};

/// Runs `events` through `session`, whose options carry `faults`. After
/// every accepted event whose backhaul stage was not gated off, the kept
/// backhaul must equal a scratch one.
SoakStats soak(Session& session, const std::vector<Event>& events,
               const FaultPlan& faults = {}) {
    SoakStats stats;
    const unsigned backhaul_bit = 1u << static_cast<unsigned>(RepairStage::Backhaul);
    for (const Event& e : events) {
        const EventOutcome out = session.apply(e);
        if (out.level != RepairLevel::Rejected &&
            (faults.stage_timeout_mask(out.event_index) & backhaul_bit) == 0) {
            expect_scratch_backhaul(session, out.event_index);
        }
        // The contract, event by event: verified or explicitly flagged.
        EXPECT_TRUE(out.verified || out.degraded)
            << "event " << out.event_index << " (" << to_string(out.level)
            << ")";
        if (out.level == RepairLevel::Rejected) {
            EXPECT_FALSE(out.reject_reason.empty());
            ++stats.rejected;
        }
        stats.degraded_events += out.degraded ? 1 : 0;
        stats.resolves_adopted += out.resolve_adopted ? 1 : 0;
        EXPECT_EQ(out.unserved, session.live_subscriber_count() -
                                    session.snapshot().covered_keys.size());
        stats.fingerprint += io::event_outcome_to_json(out).dump();
        stats.fingerprint.push_back('\n');
    }
    return stats;
}

TEST(ServeSoakTest, FaultInjectedChurnNeverBreaksTheContract) {
    const core::Scenario scenario = make_scenario(101, 24);
    const core::SagResult deployment = core::solve_sag(scenario);
    ASSERT_TRUE(deployment.feasible);

    ServeOptions opts;
    opts.resolve_horizon = 8;
    opts.resolve_backoff_start = 8;
    FaultOptions fopts;
    fopts.stage_timeout_probability = 0.05;
    fopts.resolve_timeout_probability = 0.25;
    fopts.corrupt_probability = 0.05;
    fopts.seed = 103;
    opts.faults = FaultPlan(fopts);

    // 1200 events keeps the soak inside its declared ctest budget even
    // under TSan's ~10x slowdown; bench_churn is the 10^5-event tier.
    const FaultPlan corrupter(fopts);
    const std::vector<Event> events = corrupter.corrupt(
        churn_stream(101, 24, deployment.coverage.rs_count(), 1200));

    Session session(scenario, deployment, opts);
    const SoakStats stats = soak(session, events, opts.faults);

    // Corruption guarantees rejected events; churn guarantees repairs;
    // the drift budget guarantees adopted re-solves over 2000 events.
    EXPECT_GT(stats.rejected, 0u);
    EXPECT_GT(stats.resolves_adopted, 0u);
    EXPECT_EQ(session.event_count(), events.size());

    // The session must end the soak still functional: a final verified
    // state is reachable via its own snapshot.
    const Session::Snapshot snap = session.snapshot();
    if (snap.verified) {
        EXPECT_TRUE(core::verify_coverage(snap.covered_scenario, snap.plan,
                                          snap.powers)
                        .feasible);
    } else {
        EXPECT_TRUE(snap.degraded);
    }
}

TEST(ServeSoakTest, SoakReplayIsByteIdenticalAcrossRunsAndThreads) {
    const core::Scenario scenario = make_scenario(107, 20);
    const core::SagResult deployment = core::solve_sag(scenario);
    ASSERT_TRUE(deployment.feasible);

    ServeOptions opts;
    opts.drift_excess_rs = 2;
    opts.resolve_horizon = 8;
    FaultOptions fopts;
    fopts.stage_timeout_probability = 0.05;
    fopts.resolve_timeout_probability = 0.25;
    fopts.corrupt_probability = 0.05;
    fopts.seed = 109;
    opts.faults = FaultPlan(fopts);
    const std::vector<Event> events = FaultPlan(fopts).corrupt(
        churn_stream(107, 20, deployment.coverage.rs_count(), 600));

    opts.threads = 1;
    Session serial_a(scenario, deployment, opts);
    Session serial_b(scenario, deployment, opts);
    const SoakStats a = soak(serial_a, events, opts.faults);
    const SoakStats b = soak(serial_b, events, opts.faults);
    EXPECT_EQ(a.fingerprint, b.fingerprint);  // run-to-run determinism

    opts.threads = 4;
    Session threaded(scenario, deployment, opts);
    const SoakStats c = soak(threaded, events, opts.faults);
    EXPECT_EQ(a.fingerprint, c.fingerprint);  // thread-count determinism

    expect_digest(a.fingerprint, Golden{0x5671aee7301bd53cULL, 0x5671aee7301bd53cULL});
}

/// The 4 km / 300-SS / 9-BS city at -15 dB and its solved deployment.
struct City {
    core::Scenario scenario = [] {
        sim::GeneratorConfig cfg;
        cfg.field_side = 4000.0;
        cfg.subscriber_count = 300;
        cfg.base_station_count = 9;
        cfg.snr_threshold_db = units::Decibel{-15.0};
        return sim::generate_scenario(cfg, 2026);
    }();
    core::SagResult deployment = core::solve_sag(scenario);
};

const City& city() {
    static const City instance;
    return instance;
}

TEST(ServeSoakTest, CityStreamOutcomesMatchGolden) {
    const City& c = city();
    ASSERT_TRUE(c.deployment.feasible);
    const std::vector<Event> events = churn_stream(
        2027, 300, c.deployment.coverage.rs_count(), 200, -2000.0, 2000.0);
    Session session(c.scenario, c.deployment, ServeOptions{});
    expect_digest(soak(session, events).fingerprint,
                  Golden{0x9f7cf861f648b8abULL, 0x9f7cf861f648b8abULL});
}

TEST(ServeSoakTest, CityRepairOutcomesMatchGolden) {
    const City& c = city();
    ASSERT_TRUE(c.deployment.feasible);
    std::string records;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const resilience::FailureSet failures[] = {
            resilience::inject_independent(c.deployment, {0.2, true}, seed),
            resilience::inject_disc_outage(c.scenario, c.deployment,
                                           {units::Meters{600.0}, {}, true}, seed),
            resilience::inject_power_degradation(c.deployment, {0.3, 0.5}, seed),
        };
        for (const resilience::FailureSet& f : failures) {
            const resilience::DamageReport damage =
                resilience::assess_damage(c.scenario, c.deployment, f);
            const resilience::RepairOutcome out =
                resilience::repair(c.scenario, c.deployment, f);
            records += io::survivability_to_json(f, damage, out).dump();
            records.push_back('\n');
        }
    }
    expect_digest(records, Golden{0xb667784384b91b8bULL, 0xb667784384b91b8bULL});
}

}  // namespace
}  // namespace sag::serve
