// Reproduces paper Fig. 5 (a)-(d): the 800x800 playing field suite.
#include "bench_fig45_impl.h"

int main(int argc, char** argv) {
    const auto bc = sag::bench::BenchConfig::parse(argc, argv);
    const sag::bench::ReportScope report_scope(bc);
    sag::bench::run_field_suite("Fig. 5 (800x800 field, SNR=-15dB)",
                                sag::sim::presets::field800,
                                {20, 30, 40, 50, 60, 70}, 20.0, bc);
    return 0;
}
