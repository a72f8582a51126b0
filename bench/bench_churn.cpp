// Churn soak benchmark: a seeded, fault-injected event stream (joins,
// leaves, moves, rate changes, RS failures/degradations/recoveries,
// plus corrupted events the session must reject) through one live
// serve::Session, asserting the serving contract on every event and
// reporting:
//
//   - per-event repair latency percentiles (p50/p90/p99/max), split by
//     ladder level,
//   - the drift-vs-oracle curve: at fixed checkpoints, the session's
//     P_total and active-RS count against a from-scratch solve of the
//     same live scenario (how far does incremental repair drift from
//     what the full pipeline would build, and how well does the
//     background re-solve pull it back),
//   - fault/ladder accounting (rejected, degraded, re-solves).
//
// Any event that is neither verified nor explicitly degraded — a
// silently wrong plan — fails the binary. Default is the 10^5-event
// soak; --smoke is the CI tier (~2k events, threaded, plus a
// threads=N-vs-1 byte-identity replay check).
//
//   bench_churn [--smoke] [--events=N] [--threads=N] [--seed=K]
//               [--subs=N] [--out=FILE]
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "sag/core/feasibility.h"
#include "sag/core/sag.h"
#include "sag/io/event_io.h"
#include "sag/io/scenario_io.h"
#include "sag/serve/event.h"
#include "sag/serve/fault.h"
#include "sag/serve/session.h"
#include "sag/sim/paper_presets.h"
#include "sag/sim/stopwatch.h"

namespace {

using namespace sag;
using serve::Event;
using serve::EventKind;

struct ChurnConfig {
    std::size_t events = 100000;
    std::size_t threads = 1;
    std::uint64_t seed = 1;
    std::size_t subscribers = 30;
    bool smoke = false;
    std::string out_path;
};

[[noreturn]] void usage() {
    std::fprintf(stderr,
                 "usage: bench_churn [--smoke] [--events=N] [--threads=N] "
                 "[--seed=K] [--subs=N>0] [--out=FILE]\n");
    std::exit(2);
}

ChurnConfig parse(int argc, char** argv) {
    ChurnConfig cfg;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            cfg.smoke = true;
            cfg.events = 2000;
            cfg.subscribers = 20;
            cfg.threads = 2;
        } else if (arg.rfind("--events=", 0) == 0) {
            cfg.events = static_cast<std::size_t>(std::atoll(arg.c_str() + 9));
        } else if (arg.rfind("--threads=", 0) == 0) {
            cfg.threads = static_cast<std::size_t>(std::atoll(arg.c_str() + 10));
        } else if (arg.rfind("--seed=", 0) == 0) {
            cfg.seed = static_cast<std::uint64_t>(std::atoll(arg.c_str() + 7));
        } else if (arg.rfind("--subs=", 0) == 0) {
            cfg.subscribers = static_cast<std::size_t>(std::atoll(arg.c_str() + 7));
        } else if (arg.rfind("--out=", 0) == 0) {
            cfg.out_path = arg.substr(6);
        } else {
            usage();
        }
    }
    // The stream regulates the population toward --subs; an empty target
    // leaves nobody to leave or move.
    if (cfg.subscribers == 0) usage();
    return cfg;
}

/// Seeded churn stream mixing every event kind; deliberately includes
/// stale keys/slots the session must reject. `plan` is the corruption
/// plan the stream will be run through: events at indices it will
/// mangle are generated but excluded from the population bookkeeping
/// (the session rejects them), keeping the live count stationary over
/// arbitrarily long soaks.
std::vector<Event> churn_stream(std::uint64_t seed,
                                std::size_t initial_subscribers,
                                std::size_t rs_slots, std::size_t count,
                                const serve::FaultPlan& plan) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> coord(0.0, 500.0);
    std::uniform_real_distribution<double> rate(28.0, 42.0);
    std::uniform_real_distribution<double> factor(0.4, 1.0);
    std::vector<std::uint64_t> live(initial_subscribers);
    for (std::size_t k = 0; k < initial_subscribers; ++k) live[k] = k;
    std::uint64_t next_key = initial_subscribers;

    std::vector<Event> events;
    events.reserve(count);
    const std::size_t target = initial_subscribers;
    while (events.size() < count) {
        const bool voided = plan.corrupts(events.size());
        const int kind = static_cast<int>(rng() % 10);
        Event e;
        if (kind < 4) {
            // Population churn regulated toward the initial size: an
            // unregulated join/leave mix drifts the population linearly
            // and turns a long soak quadratic.
            if (live.size() < target ||
                (live.size() == target && rng() % 2 == 0)) {
                e.kind = EventKind::SsJoin;
                e.key = next_key++;
                e.pos = {coord(rng), coord(rng)};
                e.distance_request = rate(rng);
                if (!voided) live.push_back(e.key);
            } else {
                e.kind = EventKind::SsLeave;
                const std::size_t at = rng() % live.size();
                e.key = live[at];
                if (!voided) {
                    live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
                }
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

double percentile(std::vector<double>& sorted, double p) {
    if (sorted.empty()) return 0.0;
    const double rank = p * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

struct RunResult {
    std::string fingerprint;  ///< outcome JSONL (latency-free, replayable)
    std::size_t contract_broken = 0;
};

RunResult run(const core::Scenario& scenario,
              const core::SagResult& deployment,
              const serve::ServeOptions& opts, const std::vector<Event>& events,
              bool report, std::size_t oracle_every) {
    serve::Session session(scenario, deployment, opts);
    RunResult result;
    std::vector<double> latency_ms;          // all non-rejected events
    std::vector<double> latency_repair_ms;   // events that re-homed/patched/shed
    latency_ms.reserve(events.size());
    std::size_t rejected = 0, degraded = 0, full = 0, rehome_only = 0,
                level_degraded = 0, triggered = 0, adopted = 0;
    double worst_ms = 0.0;
    std::size_t worst_at = 0;

    struct OracleSample {
        std::size_t event;
        std::size_t session_rs, oracle_rs;
        double session_power, oracle_power;
        std::size_t unserved;
    };
    std::vector<OracleSample> drift;

    sim::Stopwatch watch;
    for (std::size_t i = 0; i < events.size(); ++i) {
        watch.reset();
        const serve::EventOutcome out = session.apply(events[i]);
        const double ms = watch.milliseconds();

        result.contract_broken += (out.verified || out.degraded) ? 0 : 1;
        switch (out.level) {
            case serve::RepairLevel::Rejected: ++rejected; break;
            case serve::RepairLevel::Full: ++full; break;
            case serve::RepairLevel::RehomeOnly: ++rehome_only; break;
            case serve::RepairLevel::Degraded: ++level_degraded; break;
        }
        if (out.level != serve::RepairLevel::Rejected) {
            latency_ms.push_back(ms);
            if (out.rehomed + out.patched + out.shed > 0) {
                latency_repair_ms.push_back(ms);
            }
            if (ms > worst_ms) {
                worst_ms = ms;
                worst_at = i;
            }
        }
        degraded += out.degraded ? 1 : 0;
        triggered += out.resolve_triggered ? 1 : 0;
        adopted += out.resolve_adopted ? 1 : 0;
        result.fingerprint += io::event_outcome_to_json(out).dump();
        result.fingerprint.push_back('\n');

        if (oracle_every > 0 && (i + 1) % oracle_every == 0) {
            // Drift vs oracle: a from-scratch solve of the live scenario.
            const core::SagResult oracle =
                core::solve_sag(session.scenario(), opts.solve);
            drift.push_back({i + 1, session.active_rs_count(),
                             oracle.feasible ? oracle.coverage_rs_count() : 0,
                             session.total_power(),
                             oracle.feasible ? oracle.total_power() : 0.0,
                             session.unserved_count()});
        }
    }

    if (!report) return result;

    std::sort(latency_ms.begin(), latency_ms.end());
    std::sort(latency_repair_ms.begin(), latency_repair_ms.end());
    std::printf("\nevents          : %zu (%zu rejected)\n", events.size(),
                rejected);
    std::printf("ladder          : %zu full, %zu rehome-only, %zu degraded\n",
                full, rehome_only, level_degraded);
    std::printf("degraded events : %zu (%.2f%%)\n", degraded,
                100.0 * static_cast<double>(degraded) /
                    static_cast<double>(events.size()));
    std::printf("re-solves       : %zu triggered, %zu adopted\n", triggered,
                adopted);
    std::printf("contract broken : %zu\n", result.contract_broken);
    std::printf("\nper-event latency (ms, %zu applied events)\n",
                latency_ms.size());
    std::printf("  p50 %8.3f  p90 %8.3f  p99 %8.3f  max %8.3f (event %zu)\n",
                percentile(latency_ms, 0.50), percentile(latency_ms, 0.90),
                percentile(latency_ms, 0.99), worst_ms, worst_at);
    std::printf("repair-event latency (ms, %zu events with ladder work)\n",
                latency_repair_ms.size());
    std::printf("  p50 %8.3f  p90 %8.3f  p99 %8.3f\n",
                percentile(latency_repair_ms, 0.50),
                percentile(latency_repair_ms, 0.90),
                percentile(latency_repair_ms, 0.99));

    if (!drift.empty()) {
        std::printf("\ndrift vs oracle (session / from-scratch solve)\n");
        std::printf("  %8s %14s %22s %9s\n", "event", "active RSs", "P_total",
                    "unserved");
        for (const auto& s : drift) {
            std::printf("  %8zu %6zu / %-5zu %10.2f / %-9.2f %9zu\n", s.event,
                        s.session_rs, s.oracle_rs, s.session_power,
                        s.oracle_power, s.unserved);
        }
    }
    return result;
}

}  // namespace

int main(int argc, char** argv) {
    const ChurnConfig cfg = parse(argc, argv);

    const core::Scenario scenario = sim::generate_scenario(
        sim::presets::field500(cfg.subscribers), static_cast<int>(cfg.seed));
    const core::SagResult deployment = core::solve_sag(scenario);
    if (!deployment.feasible) {
        std::fprintf(stderr, "seed scenario infeasible; pick another seed\n");
        return 1;
    }

    serve::ServeOptions opts;
    opts.threads = cfg.threads;
    opts.resolve_horizon = 16;
    opts.resolve_backoff_start = 16;
    serve::FaultOptions faults;
    faults.stage_timeout_probability = 0.02;
    faults.resolve_timeout_probability = 0.10;
    faults.corrupt_probability = 0.02;
    faults.seed = cfg.seed;
    opts.faults = serve::FaultPlan(faults);

    const std::vector<Event> events = opts.faults.corrupt(
        churn_stream(cfg.seed, cfg.subscribers,
                     deployment.coverage.rs_count(), cfg.events, opts.faults));

    std::printf("bench_churn: %zu events, %zu initial subscribers, "
                "threads=%zu, seed=%llu%s\n",
                cfg.events, cfg.subscribers, cfg.threads,
                static_cast<unsigned long long>(cfg.seed),
                cfg.smoke ? " (smoke)" : "");

    const std::size_t oracle_every =
        cfg.smoke ? cfg.events / 4 : cfg.events / 10;
    const RunResult main_run =
        run(scenario, deployment, opts, events, /*report=*/true, oracle_every);
    if (!cfg.out_path.empty()) {
        io::write_text_file(cfg.out_path, main_run.fingerprint);
        std::printf("wrote %s\n", cfg.out_path.c_str());
    }

    std::size_t broken = main_run.contract_broken;
    if (cfg.smoke) {
        // Thread-count byte-identity: the same stream at threads=1 must
        // replay the threaded run's outcome JSONL exactly.
        serve::ServeOptions serial = opts;
        serial.threads = 1;
        const RunResult serial_run = run(scenario, deployment, serial, events,
                                         /*report=*/false, /*oracle_every=*/0);
        broken += serial_run.contract_broken;
        if (serial_run.fingerprint != main_run.fingerprint) {
            std::fprintf(stderr,
                         "FAIL: threads=%zu replay diverges from threads=1\n",
                         cfg.threads);
            return 1;
        }
        std::printf("replay          : threads=%zu byte-identical to "
                    "threads=1 (%zu outcome bytes)\n",
                    cfg.threads, main_run.fingerprint.size());
    }

    if (broken > 0) {
        std::fprintf(stderr,
                     "FAIL: serving contract broken on %zu events "
                     "(neither verified nor degraded)\n",
                     broken);
        return 1;
    }
    std::printf("serving contract: every event verified or explicitly "
                "degraded\n");
    return 0;
}
