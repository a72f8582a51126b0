// sag_bench — end-to-end benchmark workloads for the SAG solver stack.
//
//   sag_bench --workload=dense|wide|churn [--seed=K] [--seconds=S]
//             [--trace=FILE] [--smoke] [--commit=SHA]
//
// One workload per process. Inputs derive from --seed only. The last
// line of stdout is one JSON document: host record, correctness verdict,
// attempted/failed counts, an output digest, and the metrics — the
// end-to-end set for an untraced run, the per-layer set when --trace is
// given (spans and the obs run report are then written to FILE). run.py
// builds this binary and turns that line into the benchmark result.
// Workload rationale and the metric table: README.md.
//
// Every layer is timed from outside, around calls to the public API
// (solve_sag, solve_samc, allocate_power_pro, solve_mbmc,
// allocate_power_ucpo, verify_coverage/verify_connectivity,
// serve::Session::apply); an installed obs::Recorder supplies the
// attribution inside those calls.
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "sag/core/feasibility.h"
#include "sag/core/power.h"
#include "sag/core/sag.h"
#include "sag/core/samc.h"
#include "sag/core/ucra.h"
#include "sag/io/event_io.h"
#include "sag/io/json.h"
#include "sag/io/report_io.h"
#include "sag/io/scenario_io.h"
#include "sag/obs/obs.h"
#include "sag/serve/session.h"
#include "sag/sim/scenario_gen.h"
#include "sag/wireless/kernel_eval.h"

namespace {

using namespace sag;
using Clock = std::chrono::steady_clock;
using io::Json;

// ---------------------------------------------------------------------
// Command line

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    std::string trace_path;  ///< empty = untraced run
    bool smoke = false;
    std::string commit = "unknown";
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "sag_bench: %s\n"
                 "usage: sag_bench --workload=dense|wide|churn [--seed=K] "
                 "[--seconds=S] [--trace=FILE] [--smoke] [--commit=SHA]\n",
                 why);
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](std::string_view flag) -> const char* {
            return arg.rfind(flag, 0) == 0 ? arg.c_str() + flag.size() : nullptr;
        };
        char* end = nullptr;
        if (const char* v = value("--workload=")) {
            a.workload = v;
        } else if (const char* v = value("--seed=")) {
            a.seed = std::strtoull(v, &end, 10);
            if (*v == '\0' || *end != '\0') usage("--seed needs an integer");
        } else if (const char* v = value("--seconds=")) {
            a.seconds = std::strtod(v, &end);
            if (*v == '\0' || *end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0) {
                usage("--seconds needs a number in (0, 600]");
            }
        } else if (const char* v = value("--trace=")) {
            a.trace_path = v;
            if (a.trace_path.empty()) usage("--trace needs a file name");
        } else if (const char* v = value("--commit=")) {
            a.commit = v;
        } else if (arg == "--smoke") {
            a.smoke = true;
        } else {
            usage(("unknown argument '" + arg + "'").c_str());
        }
    }
    if (a.workload != "dense" && a.workload != "wide" && a.workload != "churn") {
        usage("--workload must be dense, wide or churn");
    }
    return a;
}

// ---------------------------------------------------------------------
// Small helpers

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// SplitMix64 over (seed, stream, index): independent instance seeds
/// for each input stream of a run.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL +
                      index * 0x8CB92BA72F3D8DD7ULL + 0x632BE59BD9B4E019ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/// Linear-interpolated percentile (p in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double sum(const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// FNV-1a over the bytes of trivially copyable values: the run's
/// output digest, identical across runs of one seed and build.
class Digest {
public:
    template <class T>
    void add(const T& value) {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &value, sizeof(T));
        for (const unsigned char b : bytes) h_ = (h_ ^ b) * 0x100000001B3ULL;
    }
    void add_text(std::string_view s) {
        for (const char c : s) h_ = (h_ ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
    }
    std::string hex() const {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
        return buf;
    }

private:
    std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
    unsigned int regs[12] = {};
    unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
    if (max_leaf >= 0x80000004u) {
        for (unsigned int leaf = 0; leaf < 3; ++leaf) {
            __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                        &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
        }
        std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
        s.erase(s.find_last_not_of(std::string(" \0", 2)) + 1);
        s.erase(0, s.find_first_not_of(' '));
        return s;
    }
#endif
    return "unknown";
}

// ---------------------------------------------------------------------
// Metrics and spans

class Metrics {
public:
    void add(const char* name, double value, const char* unit) {
        Json entry = Json::Object{};
        entry["value"] = value;
        entry["unit"] = unit;
        values_[name] = std::move(entry);
    }
    Json json() const { return values_; }

private:
    Json values_ = Json::Object{};
};

/// In-memory span log of the traced run, recorded around each public
/// call: name, start, end, parent, and the request (solve or event) it
/// belongs to. Written with the obs run report when the run ends.
class SpanLog {
public:
    class Scope {
    public:
        Scope(SpanLog& log, const char* name, std::uint64_t request)
            : log_(log), index_(log.begin(name, request)) {}
        ~Scope() { log_.end(index_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        /// Seconds since the span opened.
        double elapsed() const {
            return seconds_between(log_.spans_[index_].start, Clock::now());
        }

    private:
        SpanLog& log_;
        std::size_t index_;
    };

    /// Total seconds of the spans named `name`.
    double seconds(std::string_view name) const {
        double s = 0.0;
        for (const Span& sp : spans_) {
            if (name == sp.name) s += seconds_between(sp.start, sp.end);
        }
        return s;
    }
    std::vector<double> durations_ms(std::string_view name) const {
        std::vector<double> out;
        for (const Span& sp : spans_) {
            if (name == sp.name) out.push_back(1e3 * seconds_between(sp.start, sp.end));
        }
        return out;
    }
    /// Total seconds of the direct children of spans named `parent`.
    double child_seconds(std::string_view parent) const {
        double s = 0.0;
        for (const Span& sp : spans_) {
            if (sp.parent != kNone && parent == spans_[sp.parent].name) {
                s += seconds_between(sp.start, sp.end);
            }
        }
        return s;
    }

    Json json(Clock::time_point epoch) const {
        Json::Array out;
        out.reserve(spans_.size());
        for (const Span& sp : spans_) {
            Json s = Json::Object{};
            s["name"] = sp.name;
            s["start_s"] = seconds_between(epoch, sp.start);
            s["end_s"] = seconds_between(epoch, sp.end);
            s["parent"] = sp.parent == kNone ? Json(nullptr) : Json(sp.parent);
            s["request"] = static_cast<double>(sp.request);
            out.push_back(std::move(s));
        }
        return out;
    }

private:
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    struct Span {
        const char* name;
        Clock::time_point start, end;
        std::size_t parent;
        std::uint64_t request;
    };

    std::size_t begin(const char* name, std::uint64_t request) {
        const std::size_t parent = open_.empty() ? kNone : open_.back();
        spans_.push_back({name, Clock::now(), {}, parent, request});
        open_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }
    void end(std::size_t index) {
        spans_[index].end = Clock::now();
        open_.pop_back();
    }

    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/// Total seconds of the obs trace nodes named `name`, wherever they sit
/// in the tree (outermost occurrences, so a span nested in itself
/// counts once).
double obs_seconds(const std::vector<obs::TraceNode>& nodes, std::string_view name) {
    double s = 0.0;
    for (const obs::TraceNode& n : nodes) {
        s += n.name == name ? n.seconds : obs_seconds(n.children, name);
    }
    return s;
}

double obs_seconds(const obs::RunReport& r, std::string_view name) {
    return obs_seconds(r.trace, name);
}

/// Summed seconds of the direct children of every node named `parent`.
double obs_child_seconds(const std::vector<obs::TraceNode>& nodes, std::string_view parent) {
    double s = 0.0;
    for (const obs::TraceNode& n : nodes) {
        if (n.name == parent) {
            for (const obs::TraceNode& c : n.children) s += c.seconds;
        } else {
            s += obs_child_seconds(n.children, parent);
        }
    }
    return s;
}

double counter(const obs::RunReport& r, const char* name) {
    const auto it = r.counters.find(name);
    return it == r.counters.end() ? 0.0 : static_cast<double>(it->second);
}

/// What a traced run measured. A request is one solve (dense, wide) or
/// one event (churn). Layer seconds come from the bench's own spans
/// around public calls where the workload makes them, and from the obs
/// trace for the calls Session::apply makes internally.
struct Layers {
    std::vector<double> service_ms;  ///< traced service time per request
    double samc = 0, pro = 0, mbmc = 0, ucpo = 0;  ///< seconds
    double verify = 0;       ///< seconds in the public verifiers, outside requests
    double zone_max_ss = 0;  ///< largest SAMC zone, summed over solves
    double queue_share = 0;  ///< open loop: queue wait over latency from due time
    double degraded_share = 0;  ///< serve: events left explicitly degraded
    double coverage = 0;     ///< share of request time under layer spans
    double overhead = 0;     ///< traced over untraced median service time, minus 1
};

/// The per-layer metric set, identical for every workload: times are
/// per request and only for layers every workload runs; other layers
/// report their share of request time, so a layer a workload bypasses
/// reads 0. Counts are per request.
void add_layer_metrics(Metrics& m, const Layers& L, const obs::RunReport& r) {
    const double n = std::max(static_cast<double>(L.service_ms.size()), 1.0);
    const double request_s = sum(L.service_ms) / 1e3;
    const auto ms = [&](double s) { return 1e3 * s / n; };
    const auto share = [&](double s) { return ratio(s, request_s); };
    const auto per_request = [&](const char* name) { return counter(r, name) / n; };

    m.add("bench.request.ms", ms(request_s), "ms");
    m.add("bench.request.ms_p50", percentile(L.service_ms, 0.50), "ms");
    m.add("bench.request.ms_p90", percentile(L.service_ms, 0.90), "ms");
    m.add("bench.span_coverage", L.coverage, "share");
    m.add("bench.trace_overhead", L.overhead, "ratio");
    m.add("bench.queue_wait.share", L.queue_share, "share");

    m.add("opt.hitting_set.share", share(obs_seconds(r, "opt.hitting_set.batch")), "share");
    m.add("opt.hitting_set.candidates", per_request("opt.hitting_set.candidates"), "count");
    m.add("opt.hitting_set.swaps", per_request("opt.hitting_set.swaps"), "count");

    m.add("core.samc.share", share(L.samc), "share");
    m.add("core.zone_partition.share", share(obs_seconds(r, "samc.zone_partition")), "share");
    m.add("core.zones", per_request("samc.zones"), "count");
    m.add("core.zone_max_ss", L.zone_max_ss / n, "count");
    m.add("core.samc.link_escape.share", share(obs_seconds(r, "samc.link_escape")), "share");
    m.add("core.samc.sliding.share", share(obs_seconds(r, "samc.sliding")), "share");
    m.add("core.samc.sliding.probes", per_request("samc.sliding.probes"), "count");
    m.add("core.pro.share", share(L.pro), "share");
    m.add("core.pro.drop_probes", per_request("pro.drop_probes"), "count");
    m.add("core.pro.drop_yield",
          ratio(counter(r, "pro.drops_committed"), counter(r, "pro.drop_probes")), "ratio");
    m.add("core.mbmc.ms", ms(L.mbmc), "ms");
    m.add("core.mbmc.share", share(L.mbmc), "share");
    m.add("core.mbmc.relays_placed", per_request("ucra.relays_placed"), "count");
    m.add("core.ucpo.ms", ms(L.ucpo), "ms");
    const double applied = counter(r, "snr_field.deltas.applied");
    m.add("core.snr_field.deltas", applied / n, "count");
    m.add("core.snr_field.revert_share", ratio(counter(r, "snr_field.deltas.reverted"), applied),
          "share");
    m.add("core.verify.ms", ms(L.verify), "ms");

    m.add("serve.rehome.share", share(obs_seconds(r, "serve.rehome")), "share");
    m.add("serve.patch.share", share(obs_seconds(r, "serve.patch")), "share");
    m.add("serve.power.share", share(obs_seconds(r, "serve.power")), "share");
    m.add("serve.backhaul.share", share(obs_seconds(r, "serve.backhaul")), "share");
    m.add("serve.rehomed_ss", per_request("serve.rehomed_ss"), "count");
    m.add("serve.patched_relays", per_request("serve.patched_relays"), "count");
    m.add("serve.degraded_share", L.degraded_share, "share");
}

struct Result {
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    Digest digest;
    Metrics metrics;
    Metrics info;  ///< printed by run.py; not listed in BENCHMARK.json
    Json trace;    ///< traced runs: spans + obs run report
};

/// Median of `reps` timed set-ups; returns the median seconds.
template <class F>
double median_setup(int reps, F&& setup) {
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        setup();
        t.push_back(seconds_between(t0, Clock::now()));
    }
    return percentile(t, 0.5);
}

constexpr int kSetupReps = 11;

// ---------------------------------------------------------------------
// dense / wide: closed-loop full solves of independent instances

struct SolveSpec {
    double field;
    std::size_t subscribers;
    std::size_t base_stations;
    /// Instances every run solves at least, and over which the quality
    /// metrics and the digest are taken (so both are fixed per seed).
    std::size_t quality_instances;
};

SolveSpec solve_spec(const Args& a) {
    if (a.workload == "dense") {
        return a.smoke ? SolveSpec{500.0, 40, 4, 3} : SolveSpec{500.0, 60, 4, 256};
    }
    return a.smoke ? SolveSpec{5600.0, 300, 8, 3} : SolveSpec{16000.0, 2400, 64, 48};
}

core::Scenario make_instance(const SolveSpec& spec, std::uint64_t seed) {
    sim::GeneratorConfig gen;
    gen.field_side = spec.field;
    gen.subscriber_count = spec.subscribers;
    gen.base_station_count = spec.base_stations;
    gen.snr_threshold_db = units::Decibel{-15.0};
    return sim::generate_scenario(gen, seed);
}

bool verified(const core::Scenario& s, const core::SagResult& r) {
    return r.feasible &&
           core::verify_coverage(s, r.coverage, r.lower_power.powers).feasible &&
           core::verify_connectivity(s, r.coverage, r.connectivity).feasible;
}

Digest result_digest(const core::SagResult& r) {
    Digest d;
    d.add(r.feasible);
    for (const geom::Vec2& p : r.coverage.rs_positions) d.add(p);
    for (const ids::SsId j : r.coverage.assignment.ids()) d.add(r.coverage.assignment[j]);
    for (const double p : r.lower_power.powers) d.add(p);
    for (const geom::Vec2& p : r.connectivity.positions) d.add(p);
    for (const std::size_t p : r.connectivity.parent) d.add(p);
    for (const double p : r.connectivity.powers) d.add(p);
    return d;
}

/// solve_sag() call for call (src/core/src/sag.cpp), with each public
/// stage under its own span; the traced run checks the two agree.
core::SagResult traced_solve(const core::Scenario& s, SpanLog& log, std::uint64_t request,
                             Layers& L) {
    SpanLog::Scope solve(log, "solve", request);
    core::SagResult r;
    {
        SpanLog::Scope span(log, "core.samc", request);
        core::SamcResult samc = core::solve_samc(s);
        L.samc += span.elapsed();
        std::size_t largest = 0;
        for (const auto& zone : samc.zones) largest = std::max(largest, zone.size());
        L.zone_max_ss += static_cast<double>(largest);
        r.coverage = std::move(samc.plan);
    }
    if (r.coverage.feasible) {
        {
            SpanLog::Scope span(log, "core.pro", request);
            r.lower_power = core::allocate_power_pro(s, r.coverage);
            L.pro += span.elapsed();
        }
        {
            SpanLog::Scope span(log, "core.mbmc", request);
            r.connectivity = core::solve_mbmc(s, r.coverage);
            L.mbmc += span.elapsed();
        }
        {
            SpanLog::Scope span(log, "core.ucpo", request);
            core::allocate_power_ucpo(s, r.coverage, r.connectivity);
            L.ucpo += span.elapsed();
        }
        r.feasible = r.lower_power.feasible && r.connectivity.feasible;
    }
    L.service_ms.push_back(1e3 * solve.elapsed());
    return r;
}

Result run_solves(const Args& a) {
    const SolveSpec spec = solve_spec(a);
    constexpr std::uint64_t kWarmStream = 1, kInstanceStream = 2;
    Result res;

    // Set-up: build and solve a warm-up instance, so lazy initialisation
    // and cold caches stay out of the timed solves. The instance is the
    // same for every seed: solve times differ by instance, and set-up
    // time is compared across runs of different seeds.
    const double setup_s = median_setup(kSetupReps, [&] {
        const core::Scenario s = make_instance(spec, derive_seed(0, kWarmStream, 0));
        if (!core::solve_sag(s).feasible) res.correct = false;
    });

    const bool traced = !a.trace_path.empty();
    std::vector<double> solve_ms;         // untraced service times
    std::vector<double> overhead_ratio;   // traced / untraced, per instance
    double power_sum = 0.0, rs_sum = 0.0;
    SpanLog log;
    Layers layers;
    obs::Recorder recorder;

    const double budget_s = a.smoke ? 0.0 : a.seconds;
    const auto start = Clock::now();
    for (std::size_t i = 0;; ++i) {
        const double elapsed = seconds_between(start, Clock::now());
        if (i >= spec.quality_instances && elapsed >= budget_s) break;
        const core::Scenario s = make_instance(spec, derive_seed(a.seed, kInstanceStream, i));

        core::SagResult r, tr;
        double plain_s = 0.0;
        const auto solve_plain = [&] {
            const auto t0 = Clock::now();
            r = core::solve_sag(s);
            plain_s = seconds_between(t0, Clock::now());
        };
        // The traced run solves each instance a second time through the
        // traced split pipeline, which must reproduce solve_sag exactly;
        // the order alternates so neither side always runs on warm caches.
        const auto solve_traced = [&] {
            recorder.install();
            tr = traced_solve(s, log, i, layers);
            recorder.uninstall();
        };
        if (traced && i % 2 == 1) solve_traced();
        solve_plain();
        if (traced && i % 2 == 0) solve_traced();
        solve_ms.push_back(1e3 * plain_s);
        ++res.attempted;

        bool ok = verified(s, r);
        const Digest d = result_digest(r);
        if (traced) {
            SpanLog::Scope span(log, "core.verify", i);
            ok = ok && verified(s, tr) && result_digest(tr).hex() == d.hex();
            layers.verify += span.elapsed();
            overhead_ratio.push_back(layers.service_ms.back() / (1e3 * plain_s));
        }
        if (!ok) ++res.failed;
        if (i < spec.quality_instances) {
            power_sum += r.total_power();
            rs_sum += static_cast<double>(r.coverage_rs_count());
            res.digest.add_text(d.hex());
        }
    }
    const double wall_s = seconds_between(start, Clock::now());
    const double k = static_cast<double>(spec.quality_instances);
    res.correct = res.correct && res.failed == 0;

    res.info.add("instances", static_cast<double>(solve_ms.size()), "count");
    res.info.add("subscribers", static_cast<double>(spec.subscribers), "count");
    res.info.add("measure_wall_s", wall_s, "s");
    if (!traced) {
        res.metrics.add("setup_s", setup_s, "s");
        res.metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
        res.metrics.add("latency_ms_p50", percentile(solve_ms, 0.50), "ms");
        res.metrics.add("latency_ms_p90", percentile(solve_ms, 0.90), "ms");
        res.metrics.add("throughput_per_s", 1e3 * solve_ms.size() / sum(solve_ms), "1/s");
        res.metrics.add("power_total_w", power_sum / k, "W");
        res.metrics.add("coverage_rs_mean", rs_sum / k, "count");
        return res;
    }

    const obs::RunReport report = recorder.snapshot();
    layers.coverage = ratio(log.child_seconds("solve"), log.seconds("solve"));
    layers.overhead = percentile(overhead_ratio, 0.5) - 1.0;
    add_layer_metrics(res.metrics, layers, report);
    res.trace = Json::Object{};
    res.trace["spans"] = log.json(start);
    res.trace["obs"] = io::run_report_to_json(report);
    return res;
}

// ---------------------------------------------------------------------
// churn: an open-loop event stream through one serve::Session

struct ChurnSpec {
    double field = 4000.0;           ///< examples/city_scale layout
    std::size_t subscribers = 300;
    std::size_t base_stations = 9;
    std::size_t spare_sites = 60;    ///< sites where subscribers may join
    double rate_per_s = 50.0;        ///< open-loop arrival rate
    double move_radius_m = 30.0;
};

/// Uniform double in [lo, hi) from the raw 64-bit words of `rng`; no
/// standard-library distribution, so the stream is the same under every
/// standard library.
double draw_uniform(std::mt19937_64& rng, double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// Seeded churn stream: 40% join/leave regulated to hold the initial
/// population, 30% local moves, 10% rate changes, 20% RS fail / recover /
/// degrade.
///
/// The stream is built to be stationary, so runs of different seeds serve
/// statistically the same city. Subscribers are fixed sites, as the
/// paper's SSs (stores, gas stations) are: the layout's own plus spare
/// sites that are the same for every seed. Joins and leaves switch sites
/// on and off, and a move jitters a subscriber within move_radius_m of
/// its site. The kinds are dealt from shuffled blocks of ten and the RS
/// kinds take turns, so every run has the same mix; event kinds differ
/// in cost by up to 1.4x.
///
/// RS events address live pool state (the generator reads the session's
/// pool size and failure set), and none lands on an event at which a
/// background re-solve is adopted, since adoption replaces the pool; so
/// no event is rejected. The stream is a pure function of the seed
/// because the session is deterministic.
class ChurnStream {
public:
    ChurnStream(std::uint64_t seed, const core::Scenario& initial, const ChurnSpec& spec,
                std::size_t resolve_horizon)
        : rng_(seed), spec_(spec), horizon_(resolve_horizon) {
        for (std::size_t k = 0; k < initial.subscriber_count(); ++k) {
            sites_.push_back(initial.subscribers[k].pos);
            live_.push_back({k, k});
        }
        std::mt19937_64 spare(derive_seed(0, kSpareSiteStream, 0));
        for (std::size_t k = 0; k < spec.spare_sites; ++k) {
            offline_.push_back(sites_.size());
            sites_.push_back(
                {draw_uniform(spare, 0.0, spec.field), draw_uniform(spare, 0.0, spec.field)});
        }
        next_key_ = initial.subscriber_count();
    }

    serve::Event next(const serve::Session& session) {
        enum Kind { JoinLeave, Move, Rate, Rs };
        static constexpr Kind kBlock[10] = {JoinLeave, JoinLeave, JoinLeave, JoinLeave, Move,
                                            Move,      Move,      Rate,      Rs,        Rs};
        if (dealt_ == 10) {
            std::copy(std::begin(kBlock), std::end(kBlock), block_);
            for (std::size_t i = 9; i > 0; --i) std::swap(block_[i], block_[pick(i + 1)]);
            dealt_ = 0;
        }
        const int kind = block_[dealt_++];
        const bool rs_ok =
            session.event_count() != adopt_at_ && session.pool_rs_count() > 0;
        if (kind == JoinLeave) return join_or_leave();
        if (kind == Move || (kind == Rs && !rs_ok)) return move();
        if (kind == Rate) return rate_change();
        return rs_event(session);
    }

    void observe(const serve::EventOutcome& out) {
        if (out.resolve_triggered) adopt_at_ = out.event_index + horizon_;
    }

private:
    static constexpr std::uint64_t kSpareSiteStream = 4;

    struct Live {
        std::uint64_t key;
        std::size_t site;
    };

    double uniform(double lo, double hi) { return draw_uniform(rng_, lo, hi); }
    std::size_t pick(std::size_t n) { return static_cast<std::size_t>(rng_() % n); }

    serve::Event join_or_leave() {
        serve::Event e;
        const std::size_t target = spec_.subscribers;
        const bool join = offline_.size() > 0 &&
                          (live_.size() < target || (live_.size() == target && rng_() % 2 == 0));
        if (join) {
            const std::size_t at = pick(offline_.size());
            e.kind = serve::EventKind::SsJoin;
            e.key = next_key_++;
            e.pos = sites_[offline_[at]];
            e.distance_request = uniform(30.0, 40.0);
            live_.push_back({e.key, offline_[at]});
            offline_[at] = offline_.back();
            offline_.pop_back();
        } else {
            const std::size_t at = pick(live_.size());
            e.kind = serve::EventKind::SsLeave;
            e.key = live_[at].key;
            offline_.push_back(live_[at].site);
            live_[at] = live_.back();
            live_.pop_back();
        }
        return e;
    }

    serve::Event move() {
        const Live& who = live_[pick(live_.size())];
        const double r = spec_.move_radius_m * std::sqrt(uniform(0.0, 1.0));
        const double phi = uniform(0.0, 6.283185307179586);
        const geom::Vec2& home = sites_[who.site];
        serve::Event e;
        e.kind = serve::EventKind::SsMove;
        e.key = who.key;
        e.pos = {std::clamp(home.x + r * std::cos(phi), 0.0, spec_.field),
                 std::clamp(home.y + r * std::sin(phi), 0.0, spec_.field)};
        return e;
    }

    serve::Event rate_change() {
        serve::Event e;
        e.kind = serve::EventKind::SsRate;
        e.key = live_[pick(live_.size())].key;
        e.distance_request = uniform(30.0, 40.0);
        return e;
    }

    serve::Event rs_event(const serve::Session& session) {
        const auto& dead = session.outstanding_failures().coverage_down;
        std::vector<std::size_t> alive;
        for (std::size_t r = 0; r < session.pool_rs_count(); ++r) {
            if (!std::binary_search(dead.begin(), dead.end(), ids::RsId{r})) alive.push_back(r);
        }
        serve::Event e;
        const int sub = rs_turn_;
        rs_turn_ = (rs_turn_ + 1) % 3;
        if (sub == 1 && !dead.empty()) {
            e.kind = serve::EventKind::RsRecover;
            e.rs = dead[pick(dead.size())];
        } else if (alive.empty()) {
            return move();
        } else if (sub == 2) {
            e.kind = serve::EventKind::RsDegrade;
            e.rs = ids::RsId{alive[pick(alive.size())]};
            e.factor = uniform(0.4, 1.0);
        } else {
            e.kind = serve::EventKind::RsFail;
            e.rs = ids::RsId{alive[pick(alive.size())]};
        }
        return e;
    }

    std::mt19937_64 rng_;
    ChurnSpec spec_;
    std::size_t horizon_;
    std::size_t adopt_at_ = static_cast<std::size_t>(-1);
    int block_[10] = {};
    std::size_t dealt_ = 10;
    int rs_turn_ = 0;  ///< fail, recover, degrade in turn
    std::vector<geom::Vec2> sites_;     ///< home positions
    std::vector<Live> live_;
    std::vector<std::size_t> offline_;  ///< sites without a live subscriber
    std::uint64_t next_key_ = 0;
};

/// Closed-loop replay of `events` on a fresh session; every outcome must
/// match `expected` byte for byte. Returns per-event service times (ms).
std::vector<double> replay(const core::Scenario& city, const core::SagResult& deployment,
                           const serve::ServeOptions& opts,
                           const std::vector<serve::Event>& events,
                           const std::vector<std::string>& expected, Result& res,
                           double& wall_s, SpanLog* log) {
    serve::Session session(city, deployment, opts);
    std::vector<double> service_ms;
    service_ms.reserve(events.size());
    const auto start = Clock::now();
    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto t0 = Clock::now();
        serve::EventOutcome out;
        if (log) {
            SpanLog::Scope span(*log, "serve.apply.replay", i);
            out = session.apply(events[i]);
        } else {
            out = session.apply(events[i]);
        }
        service_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
        ++res.attempted;
        if (io::event_outcome_to_json(out).dump() != expected[i]) ++res.failed;
    }
    wall_s = seconds_between(start, Clock::now());
    return service_ms;
}

Result run_churn(const Args& a) {
    const ChurnSpec spec;
    constexpr std::uint64_t kLayoutSeed = 20'26;  // examples/city_scale.cpp
    constexpr std::uint64_t kEventStream = 3;
    const bool traced = !a.trace_path.empty();
    Result res;

    serve::ServeOptions opts;
    opts.threads = 2;  // background re-solves on one pool worker

    sim::GeneratorConfig gen;
    gen.field_side = spec.field;
    gen.subscriber_count = spec.subscribers;
    gen.base_station_count = spec.base_stations;
    gen.snr_threshold_db = units::Decibel{-15.0};
    core::Scenario city;
    core::SagResult deployment;
    const double setup_s = median_setup(kSetupReps, [&] {
        city = sim::generate_scenario(gen, kLayoutSeed);
        deployment = core::solve_sag(city);
        serve::Session warm(city, deployment, opts);
    });
    if (!deployment.feasible) {
        std::fprintf(stderr, "sag_bench: churn layout has no feasible deployment\n");
        res.correct = false;
        res.failed = res.attempted = 1;
        return res;
    }

    // Open loop, paced: event i is due at start + i / rate, whatever the
    // session is doing. Its latency runs from the due time, so a slow
    // event also charges the events queued behind it. Even spacing leaves
    // out the burst queueing of Poisson arrivals, which doubled the
    // run-to-run spread of latency_ms_p90 on a shared host (README.md).
    // The open loop takes half of the run; the replays below take most
    // of the rest.
    const double rate = a.smoke ? 1000.0 : spec.rate_per_s;
    const std::size_t n_open =
        a.smoke ? 200 : std::max<std::size_t>(1, static_cast<std::size_t>(a.seconds * 0.5 * rate));
    ChurnStream stream(derive_seed(a.seed, kEventStream, 0), city, spec, opts.resolve_horizon);
    std::vector<serve::Event> events;
    std::vector<std::string> lines;
    std::vector<double> latency_ms, wait_ms, service_ms;
    double gen_lag_max_ms = 0.0, power_sum = 0.0, rs_sum = 0.0;
    std::size_t degraded = 0, resolves = 0;
    SpanLog log;
    Layers layers;
    obs::Recorder recorder;
    if (traced) recorder.install();

    Clock::time_point start, open_end;
    {
        serve::Session session(city, deployment, opts);
        start = Clock::now() + std::chrono::milliseconds(5);
        Clock::time_point prev_end = start;
        const auto period = std::chrono::duration<double>(1.0 / rate);
        for (std::size_t i = 0; i < n_open; ++i) {
            events.push_back(stream.next(session));
            const auto due =
                start + std::chrono::duration_cast<Clock::duration>(period * static_cast<double>(i));
            std::this_thread::sleep_until(due);
            const auto t0 = Clock::now();
            serve::EventOutcome out;
            if (traced) {
                SpanLog::Scope span(log, "serve.apply", i);
                out = session.apply(events.back());
            } else {
                out = session.apply(events.back());
            }
            const auto t1 = Clock::now();
            latency_ms.push_back(1e3 * seconds_between(due, t1));
            wait_ms.push_back(1e3 * seconds_between(due, t0));
            service_ms.push_back(1e3 * seconds_between(t0, t1));
            gen_lag_max_ms =
                std::max(gen_lag_max_ms, 1e3 * seconds_between(std::max(due, prev_end), t0));
            prev_end = t1;
            stream.observe(out);

            ++res.attempted;
            const bool contract = out.verified || out.degraded;
            if (!contract || out.level == serve::RepairLevel::Rejected) ++res.failed;
            power_sum += out.total_power;
            rs_sum += static_cast<double>(out.rs_count);
            degraded += out.degraded ? 1 : 0;
            resolves += out.resolve_triggered ? 1 : 0;
            lines.push_back(io::event_outcome_to_json(out).dump());
            res.digest.add_text(lines.back());

            if (traced) {
                // Outside the request: re-verify the served view with the
                // public verifiers.
                SpanLog::Scope span(log, "core.verify", i);
                const serve::Session::Snapshot snap = session.snapshot();
                const bool ok =
                    snap.plan.rs_count() == 0 ||
                    (core::verify_coverage(snap.covered_scenario, snap.plan, snap.powers)
                         .feasible &&
                     core::verify_connectivity(snap.covered_scenario, snap.plan,
                                               snap.connectivity)
                         .feasible);
                if (out.verified && !ok) ++res.failed;
                layers.verify += span.elapsed();
            }
        }
        open_end = Clock::now();
    }  // the session drains its background re-solve here
    recorder.uninstall();

    // Closed loop: the same events, back to back, each time on a fresh
    // session. Capacity is the median over the replays, so a replay that
    // a short slowdown of the host catches does not set it.
    constexpr int kReplays = 3;
    std::vector<double> replay_ms, replay_rates;
    for (int k = 0; k < kReplays; ++k) {
        double wall_s = 0.0;
        replay_ms = replay(city, deployment, opts, events, lines, res, wall_s, nullptr);
        replay_rates.push_back(static_cast<double>(events.size()) / wall_s);
    }
    res.correct = res.failed == 0;

    const double open_s = seconds_between(start, open_end);
    res.info.add("events_open", static_cast<double>(n_open), "count");
    res.info.add("replays", static_cast<double>(kReplays), "count");
    res.info.add("open_wall_s", open_s, "s");
    res.info.add("offered_rate_per_s", rate, "1/s");
    res.info.add("gen_lag_ms_max", gen_lag_max_ms, "ms");
    res.info.add("queue_wait_ms_p90", percentile(wait_ms, 0.90), "ms");
    res.info.add("service_ms_p50", percentile(service_ms, 0.50), "ms");
    res.info.add("degraded_events", static_cast<double>(degraded), "count");
    res.info.add("resolves_triggered", static_cast<double>(resolves), "count");
    if (!traced) {
        const double n = static_cast<double>(n_open);
        res.metrics.add("setup_s", setup_s, "s");
        res.metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
        res.metrics.add("latency_ms_p50", percentile(latency_ms, 0.50), "ms");
        res.metrics.add("latency_ms_p90", percentile(latency_ms, 0.90), "ms");
        res.metrics.add("throughput_per_s", percentile(replay_rates, 0.5), "1/s");
        res.metrics.add("power_total_w", power_sum / n, "W");
        res.metrics.add("coverage_rs_mean", rs_sum / n, "count");
        return res;
    }

    // Tracing overhead: a traced closed-loop replay against the last
    // untraced one above, same events.
    double traced_wall_s = 0.0;
    std::vector<double> traced_replay_ms;
    {
        obs::Recorder overhead_recorder;
        overhead_recorder.install();
        traced_replay_ms =
            replay(city, deployment, opts, events, lines, res, traced_wall_s, &log);
        overhead_recorder.uninstall();
    }
    res.correct = res.failed == 0;

    // Every solver call of a churn run happens inside Session::apply (or
    // on its background re-solve worker), so the obs trace times them.
    const obs::RunReport report = recorder.snapshot();
    layers.service_ms = log.durations_ms("serve.apply");
    layers.samc = obs_seconds(report, "samc.solve");
    layers.pro = obs_seconds(report, "pro.allocate");
    layers.mbmc = obs_seconds(report, "ucra.mbmc");
    layers.ucpo = obs_seconds(report, "ucra.ucpo");
    layers.queue_share = ratio(sum(wait_ms), sum(latency_ms));
    layers.degraded_share = static_cast<double>(degraded) / static_cast<double>(n_open);
    layers.coverage = ratio(obs_child_seconds(report.trace, "serve.event"),
                            log.seconds("serve.apply"));
    layers.overhead = percentile(traced_replay_ms, 0.5) / percentile(replay_ms, 0.5) - 1.0;
    add_layer_metrics(res.metrics, layers, report);
    res.trace = Json::Object{};
    res.trace["spans"] = log.json(start);
    res.trace["obs"] = io::run_report_to_json(report);
    return res;
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
#ifndef NDEBUG
    // Debug builds run SnrField's periodic scratch-equivalence checks,
    // which distort every timing; only the smoke run may use them.
    if (!args.smoke) {
        std::fprintf(stderr,
                     "sag_bench: refusing a timed run from a build without NDEBUG "
                     "(configure with -DCMAKE_BUILD_TYPE=Release)\n");
        return 2;
    }
#endif

    Result res;
    try {
        res = args.workload == "churn" ? run_churn(args) : run_solves(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "sag_bench: %s\n", e.what());
        return 1;
    }

    if (!args.trace_path.empty()) {
        const std::filesystem::path p(args.trace_path);
        if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
        io::write_text_file(args.trace_path, res.trace.dump(1) + "\n");
    }

    Json host = Json::Object{};
    host["nproc"] = static_cast<std::size_t>(std::thread::hardware_concurrency());
    host["cpu_model"] = cpu_model();
    host["build_type"] = SAG_BENCH_BUILD_TYPE;
    host["compiler"] = __VERSION__;
    host["simd"] = std::string(wireless::simd_mode_name(wireless::active_simd_mode()));
    host["commit"] = args.commit;

    Json out = Json::Object{};
    out["workload"] = args.workload;
    out["seed"] = std::to_string(args.seed);
    out["seconds"] = args.seconds;
    out["traced"] = !args.trace_path.empty();
    out["smoke"] = args.smoke;
    out["host"] = std::move(host);
    out["correct"] = res.correct;
    out["attempted"] = res.attempted;
    out["failed"] = res.failed;
    out["digest"] = res.digest.hex();
    out["metrics"] = res.metrics.json();
    out["info"] = res.info.json();
    std::printf("%s\n", out.dump().c_str());
    return res.correct ? 0 : 1;
}
