// Reproduces paper Fig. 4 (a)-(d): the 500x500 playing field suite.
#include "bench_fig45_impl.h"

int main(int argc, char** argv) {
    const auto bc = sag::bench::BenchConfig::parse(argc, argv);
    const sag::bench::ReportScope report_scope(bc);
    sag::bench::run_field_suite("Fig. 4 (500x500 field, SNR=-15dB)",
                                sag::sim::presets::field500,
                                {5, 10, 15, 20, 25, 30, 35, 40, 45, 50}, 15.0, bc);
    return 0;
}
