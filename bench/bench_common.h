#pragma once

// Shared helpers for the figure/table reproduction binaries. Each binary
// regenerates one paper artifact: it sweeps the paper's x-axis, averages
// over seeds (the paper uses 10 test runs per point), and prints an
// aligned table whose columns mirror the figure's series.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sag/io/report_io.h"
#include "sag/obs/obs.h"
#include "sag/sim/scenario_gen.h"
#include "sag/sim/stats.h"
#include "sag/sim/stopwatch.h"
#include "sag/sim/table.h"

namespace sag::bench {

/// Command-line knobs shared by all benchmark binaries.
///   --seeds=N    runs per point (default 10, the paper's count)
///   --fast       3 seeds and reduced ILP budgets (CI-friendly)
///   --report[=FILE]  write an obs::RunReport with per-phase spans and
///                solver counters (default results/<binary>_report.json;
///                schema in docs/OBSERVABILITY.md)
/// `own_flags` lists the flags a binary parses itself: an entry ending in
/// '=' matches as a prefix, any other entry exactly. Any other argument
/// prints the usage and exits 2, so a typo never runs with defaults.
struct BenchConfig {
    int seeds = 10;
    bool fast = false;
    std::string report_path;  ///< empty = no run report requested

    static BenchConfig parse(int argc, char** argv,
                             std::initializer_list<std::string_view> own_flags = {}) {
        const auto usage = [&](std::FILE* out) {
            std::fprintf(out, "usage: %s [--seeds=N] [--fast]"
                              " [--report[=FILE]]", argv[0]);
            for (const std::string_view f : own_flags) {
                std::fprintf(out, " [%.*s%s]", static_cast<int>(f.size()), f.data(),
                             f.ends_with('=') ? "..." : "");
            }
            std::fprintf(out, "\n");
        };
        const auto own = [&](std::string_view arg) {
            for (const std::string_view f : own_flags) {
                if (f.ends_with('=') ? arg.starts_with(f) : arg == f) return true;
            }
            return false;
        };
        BenchConfig cfg;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg.rfind("--seeds=", 0) == 0) {
                cfg.seeds = std::atoi(arg.c_str() + 8);
            } else if (arg == "--fast") {
                cfg.fast = true;
                cfg.seeds = 3;
            } else if (arg.rfind("--report=", 0) == 0) {
                cfg.report_path = arg.substr(9);
            } else if (arg == "--report") {
                cfg.report_path =
                    "results/" +
                    std::filesystem::path(argv[0]).filename().string() +
                    "_report.json";
            } else if (arg == "--help") {
                usage(stdout);
                std::exit(0);
            } else if (!own(arg)) {
                usage(stderr);
                std::exit(2);
            }
        }
        if (cfg.seeds < 1) cfg.seeds = 1;
        return cfg;
    }
};

/// Installs an obs::Recorder for the binary's lifetime when --report was
/// given and writes the merged report on destruction. With no --report
/// the recorder is never created, so the solvers stay on the no-sink
/// instrumentation path and wall-clock numbers are untouched.
class ReportScope {
public:
    explicit ReportScope(const BenchConfig& cfg) : path_(cfg.report_path) {
        if (!path_.empty()) recorder_.emplace();
    }
    ~ReportScope() {
        if (!recorder_) return;
        try {
            const std::filesystem::path p(path_);
            if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
            io::write_run_report(recorder_->snapshot(), path_);
            std::printf("\nwrote run report: %s\n", path_.c_str());
        } catch (const std::exception& e) {
            std::fprintf(stderr, "failed writing run report %s: %s\n",
                         path_.c_str(), e.what());
        }
    }
    ReportScope(const ReportScope&) = delete;
    ReportScope& operator=(const ReportScope&) = delete;

private:
    std::string path_;
    std::optional<obs::ScopedRecorder> recorder_;
};

/// NaN marks "no feasible solution" — the paper's missing data points
/// (e.g. IAC/GAC beyond 50 users in Fig. 3b). Averages skip NaN seeds and
/// come back NaN only when every seed failed.
inline constexpr double kInfeasible = std::numeric_limits<double>::quiet_NaN();

class SeedAverage {
public:
    void add(double v) {
        if (v == v) stat_.add(v);  // skip NaN
        ++total_;
    }
    double mean() const { return stat_.count() > 0 ? stat_.mean() : kInfeasible; }
    /// Fraction of seeds that produced a feasible value.
    double feasible_share() const {
        return total_ > 0 ? static_cast<double>(stat_.count()) /
                                static_cast<double>(total_)
                          : 0.0;
    }

private:
    sim::RunningStat stat_;
    std::size_t total_ = 0;
};

inline void print_header(const char* figure, const char* description) {
    std::printf("=== %s ===\n%s\n\n", figure, description);
}

}  // namespace sag::bench
