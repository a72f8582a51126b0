// Micro-benchmarks (google-benchmark) for the core algorithmic kernels:
// how each solver scales with instance size. Complements the paper-figure
// binaries, which measure end-to-end wall time.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "sag/core/candidates.h"
#include "sag/core/ilpqc.h"
#include "sag/core/power.h"
#include "sag/core/samc.h"
#include "sag/core/snr_field.h"
#include "sag/core/ucra.h"
#include "sag/core/zone_partition.h"
#include "sag/ids/ids.h"
#include "sag/obs/obs.h"
#include "sag/opt/hitting_set.h"
#include "sag/serve/event.h"
#include "sag/serve/fault.h"
#include "sag/serve/session.h"
#include "sag/sim/scenario_gen.h"

namespace {

using namespace sag;

core::Scenario make_scenario(std::size_t users, double side = 500.0,
                             std::size_t base_stations = 4) {
    sim::GeneratorConfig cfg;
    cfg.field_side = side;
    cfg.subscriber_count = users;
    cfg.base_station_count = base_stations;
    cfg.snr_threshold_db = units::Decibel{-15.0};
    return sim::generate_scenario(cfg, 97);
}

/// Zone Partition (Algorithm 2) on the perfbench field shapes: 60 SSs on
/// the 500 m `dense` field, 300 on the 4 km `churn` city, 2400 on the
/// 16 km `wide` field.
void BM_ZonePartition(benchmark::State& state) {
    const auto users = static_cast<std::size_t>(state.range(0));
    const double side = users <= 60 ? 500.0 : users <= 300 ? 4000.0 : 16000.0;
    const auto s = make_scenario(users, side);
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::zone_partition(s));
    }
}
BENCHMARK(BM_ZonePartition)->Arg(60)->Arg(300)->Arg(2400);

void BM_ZoneHittingSet(benchmark::State& state) {
    const auto s = make_scenario(static_cast<std::size_t>(state.range(0)));
    std::vector<geom::Circle> disks = s.feasible_circles();
    for (auto _ : state) {
        benchmark::DoNotOptimize(opt::geometric_hitting_set(disks, {}));
    }
}
BENCHMARK(BM_ZoneHittingSet)->Arg(10)->Arg(20)->Arg(40)->Arg(80)->Arg(160);

void BM_Samc(benchmark::State& state) {
    const auto s = make_scenario(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::solve_samc(s));
    }
}
BENCHMARK(BM_Samc)->Arg(10)->Arg(20)->Arg(40)->Arg(80)->Arg(160);

void BM_IlpqcIac(benchmark::State& state) {
    const auto s = make_scenario(static_cast<std::size_t>(state.range(0)));
    const auto cands = core::iac_candidates(s);
    core::IlpqcOptions opts;
    opts.node_budget = 100'000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::solve_ilpqc_coverage(s, cands, opts));
    }
}
BENCHMARK(BM_IlpqcIac)->Arg(10)->Arg(20)->Arg(30);

/// The scenario shapes of BM_Mbmc: 10-40 SSs on the 500 m / 4-BS field,
/// 300 on the 4 km / 9-BS `churn` city, 2400 on the 16 km / 64-BS `wide`
/// field.
core::Scenario mbmc_shape(std::size_t users) {
    return users <= 40    ? make_scenario(users)
           : users <= 300 ? make_scenario(users, 4000.0, 9)
                          : make_scenario(users, 16000.0, 64);
}

/// PRO (Algorithm 6) on a SAMC plan, on the BM_Mbmc shapes. At 2400 SSs
/// (~2200 RSs) a return to rolled-back set_power probes costs ~4x.
void BM_ProPowerReduction(benchmark::State& state) {
    const auto s = mbmc_shape(static_cast<std::size_t>(state.range(0)));
    const auto plan = core::solve_samc(s).plan;
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::allocate_power_pro(s, plan));
    }
}
BENCHMARK(BM_ProPowerReduction)->Arg(10)->Arg(20)->Arg(40)->Arg(300)->Arg(2400);

void BM_OptimalPowerFixedPoint(benchmark::State& state) {
    const auto s = make_scenario(static_cast<std::size_t>(state.range(0)));
    const auto plan = core::solve_samc(s).plan;
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::allocate_power_optimal(s, plan));
    }
}
BENCHMARK(BM_OptimalPowerFixedPoint)->Arg(10)->Arg(20)->Arg(40);

/// MBMC (Algorithm 7) on a SAMC plan: 10-40 SSs on the 500 m / 4-BS
/// field, then the perfbench shapes: 300 SSs on the 4 km / 9-BS `churn`
/// city and 2400 on the 16 km / 64-BS `wide` field (~2240 coverage RSs).
void BM_Mbmc(benchmark::State& state) {
    const auto s = mbmc_shape(static_cast<std::size_t>(state.range(0)));
    const auto plan = core::solve_samc(s).plan;
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::solve_mbmc(s, plan));
    }
}
BENCHMARK(BM_Mbmc)->Arg(10)->Arg(20)->Arg(40)->Arg(300)->Arg(2400);

// --- snr_field_delta: single-RS-move SNR re-evaluation, scratch vs
// incremental, at the paper's 800x800 m preset. One RS per 8 subscribers
// (the paper's coverage density ballpark); each iteration relocates one RS
// and re-reads every subscriber's snr_of, as the solvers do.

struct DeltaBenchFixture {
    core::Scenario scenario;
    std::vector<geom::Vec2> rs;
    std::vector<double> powers;
    ids::IdVec<ids::SsId, ids::RsId> serving;
    geom::Vec2 home, away;

    explicit DeltaBenchFixture(std::size_t users)
        : scenario(make_scenario(users, 800.0)) {
        for (std::size_t j = 0; j < users; j += 8) {
            rs.push_back(scenario.subscribers[j].pos);
        }
        powers.assign(rs.size(), scenario.radio.max_power.watts());
        serving.reserve(users);
        for (std::size_t j = 0; j < users; ++j) {
            serving.push_back(ids::RsId{j % rs.size()});
        }
        home = rs[0];
        away = home + geom::Vec2{15.0, -10.0};
    }
};

/// Every subscriber's snr_of under the fixture's serving map.
void read_snrs(const core::SnrField& field,
               const ids::IdVec<ids::SsId, ids::RsId>& serving,
               std::vector<double>& out) {
    for (const ids::SsId k : field.tracked_ids()) {
        out[k.index()] = field.snr_of(k, serving[k]);
    }
}

void BM_SnrFieldDeltaScratch(benchmark::State& state) {
    DeltaBenchFixture f(static_cast<std::size_t>(state.range(0)));
    std::vector<double> snrs(f.serving.size());
    bool flip = false;
    for (auto _ : state) {
        f.rs[0] = flip ? f.away : f.home;
        flip = !flip;
        const core::SnrField field(f.scenario, f.rs, f.powers);
        read_snrs(field, f.serving, snrs);
        benchmark::DoNotOptimize(snrs);
    }
}
BENCHMARK(BM_SnrFieldDeltaScratch)->Arg(500)->Arg(1000)->Arg(2000);

void BM_SnrFieldDeltaIncremental(benchmark::State& state) {
    DeltaBenchFixture f(static_cast<std::size_t>(state.range(0)));
    core::SnrField field(f.scenario, f.rs, f.powers);
    field.set_check_interval(0);
    std::vector<double> snrs(f.serving.size());
    bool flip = false;
    for (auto _ : state) {
        field.move_rs(ids::RsId{0}, flip ? f.away : f.home);
        flip = !flip;
        read_snrs(field, f.serving, snrs);
        benchmark::DoNotOptimize(snrs);
    }
}
BENCHMARK(BM_SnrFieldDeltaIncremental)->Arg(500)->Arg(1000)->Arg(2000);

// Overhead smoke for the obs instrumentation contract (see
// docs/OBSERVABILITY.md): the incremental-delta kernel runs the
// SAG_OBS_* macros on every mutation, so comparing this timing against
// BM_SnrFieldDeltaIncremental (no recorder installed: the macros reduce
// to one load + branch) bounds the no-sink cost, and the WithRecorder
// variant bounds the full recording cost. The acceptance budget is a
// no-sink delta <= 2% on snr_field_delta.
void BM_SnrFieldDeltaWithRecorder(benchmark::State& state) {
    DeltaBenchFixture f(static_cast<std::size_t>(state.range(0)));
    core::SnrField field(f.scenario, f.rs, f.powers);
    field.set_check_interval(0);
    obs::ScopedRecorder recorder;
    std::vector<double> snrs(f.serving.size());
    bool flip = false;
    for (auto _ : state) {
        field.move_rs(ids::RsId{0}, flip ? f.away : f.home);
        flip = !flip;
        read_snrs(field, f.serving, snrs);
        benchmark::DoNotOptimize(snrs);
    }
    const auto report = recorder.snapshot();
    state.counters["deltas"] = static_cast<double>(
        report.counters.count("snr_field.deltas.applied")
            ? report.counters.at("snr_field.deltas.applied")
            : 0);
}
BENCHMARK(BM_SnrFieldDeltaWithRecorder)->Arg(500)->Arg(1000)->Arg(2000);

// --- serve event path: per-event cost of the online churn engine. Both
// variants disable the background re-solve by injecting a guaranteed
// solver timeout (FaultPlan, deterministic) so the measurement is the
// pure event path — mutate, ladder, verify — not an occasional full
// pipeline run.

serve::ServeOptions serve_bench_options() {
    serve::ServeOptions opts;
    serve::FaultOptions faults;
    faults.resolve_timeout_probability = 1.0;
    opts.faults = serve::FaultPlan(faults);
    return opts;
}

/// The serve shapes: 20-80 SSs on the 500 m / 4-BS field, then 300 on
/// the 4 km / 9-BS `churn` city (mbmc_shape(300)), the first point of
/// the per-event cost against population.
core::Scenario serve_shape(std::size_t users) {
    return users <= 80 ? make_scenario(users) : mbmc_shape(users);
}

/// Steady state: a subscriber oscillates between two positions. Every
/// event runs the mutation delta, the candidate scan, the power stage
/// and the coverage/topology verifiers; no repair work is needed.
void BM_ServeEventMove(benchmark::State& state) {
    const auto s = serve_shape(static_cast<std::size_t>(state.range(0)));
    serve::Session session(s, serve_bench_options());
    const geom::Vec2 home = s.subscribers[0].pos;
    serve::Event move;
    move.kind = serve::EventKind::SsMove;
    move.key = 0;
    bool flip = false;
    for (auto _ : state) {
        move.pos = flip ? home + geom::Vec2{1.0, -1.0} : home;
        flip = !flip;
        benchmark::DoNotOptimize(session.apply(move));
    }
}
BENCHMARK(BM_ServeEventMove)->Arg(20)->Arg(40)->Arg(80)->Arg(300);

/// RS events: slot 0 fails and recovers alternately. Only the first
/// failure re-homes subscribers (onto survivors or a patched relay);
/// RS 0 serves nobody after it, so later events run the mutation, the
/// candidate scan, the power stage and the verifiers, and keep the
/// backhaul. BM_ServeEventJoinLeave is the row that rebuilds it.
void BM_ServeEventFailRecover(benchmark::State& state) {
    const auto s = serve_shape(static_cast<std::size_t>(state.range(0)));
    serve::Session session(s, serve_bench_options());
    serve::Event event;
    event.rs = ids::RsId{0};
    bool fail = true;
    for (auto _ : state) {
        event.kind = fail ? serve::EventKind::RsFail : serve::EventKind::RsRecover;
        fail = !fail;
        benchmark::DoNotOptimize(session.apply(event));
    }
}
BENCHMARK(BM_ServeEventFailRecover)->Arg(20)->Arg(40)->Arg(80)->Arg(300);

/// Backhaul state: one subscriber joins at the grid point of the field
/// farthest from every RS, with the largest request (so d_min holds),
/// and leaves again. The first join patches a relay there; after it
/// every join activates that relay and every leave idles it, so every
/// event re-homes or drops one subscriber and rebuilds the backhaul over
/// the kept pool graph.
void BM_ServeEventJoinLeave(benchmark::State& state) {
    const auto s = serve_shape(static_cast<std::size_t>(state.range(0)));
    serve::Session session(s, serve_bench_options());
    const std::vector<geom::Vec2> rs = session.snapshot().plan.rs_positions;
    serve::Event join;
    join.kind = serve::EventKind::SsJoin;
    join.key = s.subscriber_count();
    double farthest = 0.0;
    for (int gx = 0; gx <= 40; ++gx) {
        for (int gy = 0; gy <= 40; ++gy) {
            const geom::Vec2 p{s.field.min.x + s.field.width() * gx / 40.0,
                               s.field.min.y + s.field.height() * gy / 40.0};
            double nearest = std::numeric_limits<double>::infinity();
            for (const geom::Vec2& r : rs) nearest = std::min(nearest, geom::distance(p, r));
            if (nearest > farthest) {
                farthest = nearest;
                join.pos = p;
            }
        }
    }
    for (const core::Subscriber& sub : s.subscribers) {
        join.distance_request = std::max(join.distance_request, sub.distance_request);
    }
    serve::Event leave;
    leave.kind = serve::EventKind::SsLeave;
    leave.key = join.key;
    if (session.apply(join).patched != 1) state.SkipWithError("the join patched no relay");
    session.apply(leave);
    bool joining = true;
    for (auto _ : state) {
        benchmark::DoNotOptimize(session.apply(joining ? join : leave));
        joining = !joining;
    }
}
BENCHMARK(BM_ServeEventJoinLeave)->Arg(300);

}  // namespace

BENCHMARK_MAIN();
