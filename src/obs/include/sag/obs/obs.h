#pragma once

// sag::obs — zero-dependency solver observability: named monotonic
// counters, value gauges, and RAII phase spans that assemble into a
// nested trace tree. The metrics contract (every name, unit, and the
// paper phase it maps to) is documented in docs/OBSERVABILITY.md; CI
// greps that the doc and the source agree.
//
// Cost model (the "no-sink" contract):
//   * With no Recorder installed, every SAG_OBS_* macro is one relaxed
//     atomic load and a predictable branch — cheap enough for the
//     per-delta hot paths of core::SnrField (bench_micro's
//     snr_field_delta kernels quantify it at <2%).
//   * With a Recorder installed, counters are a pointer-compare scan
//     over a small per-thread cell list plus one relaxed fetch_add;
//     spans additionally take the thread buffer's (uncontended) mutex
//     and two steady_clock reads. Spans are meant for phases, not for
//     per-subscriber inner loops.
//   * Compiling with -DSAG_OBS_ENABLED=0 (CMake: -DSAG_OBS=OFF) turns
//     every macro into a no-op with zero codegen at the call sites.
//
// Thread model: each thread records into its own buffer (registered
// with the Recorder on first use); Recorder::snapshot() merges all
// buffers — counters by sum, trace roots by name — so work done on
// exec::ThreadPool workers lands in the same report as the main thread.
// Locking goes through the annotated exec::Mutex so Clang Thread Safety
// Analysis checks the discipline at compile time (the one deliberate
// exemption — the owner-thread lock-free counter-cell scan — is marked
// SAG_NO_THREAD_SAFETY_ANALYSIS in obs.cpp with its justification).

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sag/exec/mutex.h"
#include "sag/exec/thread_annotations.h"

#ifndef SAG_OBS_ENABLED
#define SAG_OBS_ENABLED 1
#endif

namespace sag::obs {

/// One node of the (merged) phase trace. Spans with the same name under
/// the same parent aggregate into a single node: `seconds` is the total
/// wall time and `count` the number of instances (e.g. one
/// `samc.sliding` node summarizing all zones).
struct TraceNode {
    std::string name;
    double seconds = 0.0;
    std::uint64_t count = 0;
    std::vector<TraceNode> children;
};

/// A flushed run: merged counters, gauges, and trace roots. Serialized
/// to JSON by io::run_report_to_json (schema in docs/OBSERVABILITY.md).
struct RunReport {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::vector<TraceNode> trace;
};

class Recorder;

namespace detail {
/// The process-wide sink. Null (the default) means every macro is a
/// single load-and-branch. Exposed only so Recorder::current() inlines.
extern std::atomic<Recorder*> g_current;
}  // namespace detail

/// The observability sink: owns per-thread buffers and merges them into
/// a RunReport on snapshot(). Install one around the work you want
/// traced; the Recorder must outlive every Span opened while it is
/// installed. Counter/gauge/span names must be string literals (or
/// otherwise outlive the Recorder) — per-thread cells key on the
/// pointer and snapshot() merges by string value.
class Recorder {
public:
    Recorder();
    ~Recorder();
    Recorder(const Recorder&) = delete;
    Recorder& operator=(const Recorder&) = delete;

    /// Make this the process-wide sink (replacing any previous one).
    void install();
    /// Remove this recorder as the sink (no-op when not installed).
    void uninstall();

    /// The installed sink, or nullptr. One relaxed-acquire load.
    static Recorder* current() {
        return detail::g_current.load(std::memory_order_acquire);
    }

    /// Add `delta` to the named monotonic counter (calling thread's cell).
    void add_count(const char* name, std::uint64_t delta);
    /// Set the named gauge (last write wins; merge order is thread
    /// registration order, main thread typically first).
    void set_gauge(const char* name, double value);

    /// Span protocol (use the Span RAII class, not these directly).
    void begin_span(const char* name);
    void end_span();

    /// Merge every thread's buffer into one report. Open (unfinished)
    /// spans are not included; call after the traced work completes.
    /// Safe to call while other threads are still recording counters.
    RunReport snapshot();

private:
    struct ThreadBuffer;
    ThreadBuffer& local();

    exec::Mutex mutex_;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers_  // registration order
        SAG_GUARDED_BY(mutex_);
    std::uint64_t id_;  // process-unique, defeats address-reuse aliasing
};

/// RAII phase timer: opens a span on the installed recorder (if any) at
/// construction, closes it at destruction. Captures the recorder once,
/// so installing/uninstalling mid-span is safe.
class Span {
public:
    explicit Span(const char* name) : rec_(Recorder::current()) {
        if (rec_) rec_->begin_span(name);
    }
    ~Span() {
        if (rec_) rec_->end_span();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    Recorder* rec_;
};

/// Convenience: a Recorder installed for the scope's lifetime.
class ScopedRecorder {
public:
    ScopedRecorder() { recorder_.install(); }
    ~ScopedRecorder() { recorder_.uninstall(); }
    ScopedRecorder(const ScopedRecorder&) = delete;
    ScopedRecorder& operator=(const ScopedRecorder&) = delete;

    RunReport snapshot() { return recorder_.snapshot(); }

private:
    Recorder recorder_;
};

}  // namespace sag::obs

#define SAG_OBS_CONCAT_INNER(a, b) a##b
#define SAG_OBS_CONCAT(a, b) SAG_OBS_CONCAT_INNER(a, b)

#if SAG_OBS_ENABLED

/// Time the enclosing scope as a named phase span.
#define SAG_OBS_SPAN(name) \
    ::sag::obs::Span SAG_OBS_CONCAT(sag_obs_span_, __LINE__)(name)
/// Add `delta` to a named monotonic counter (literal name required).
#define SAG_OBS_COUNT_ADD(name, delta)                                        \
    do {                                                                      \
        if (::sag::obs::Recorder* sag_obs_rec = ::sag::obs::Recorder::current()) \
            sag_obs_rec->add_count(name, static_cast<std::uint64_t>(delta));  \
    } while (0)
/// Increment a named monotonic counter by one.
#define SAG_OBS_COUNT(name) SAG_OBS_COUNT_ADD(name, 1)
/// Set a named gauge to `value` (double).
#define SAG_OBS_GAUGE(name, value)                                            \
    do {                                                                      \
        if (::sag::obs::Recorder* sag_obs_rec = ::sag::obs::Recorder::current()) \
            sag_obs_rec->set_gauge(name, static_cast<double>(value));         \
    } while (0)

#else  // !SAG_OBS_ENABLED

#define SAG_OBS_SPAN(name) ((void)0)
#define SAG_OBS_COUNT_ADD(name, delta) ((void)0)
#define SAG_OBS_COUNT(name) ((void)0)
#define SAG_OBS_GAUGE(name, value) ((void)0)

#endif  // SAG_OBS_ENABLED
