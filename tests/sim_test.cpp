#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "sag/sim/paper_presets.h"
#include "sag/sim/stats.h"
#include "sag/sim/stopwatch.h"
#include "sag/sim/table.h"

namespace sag::sim {
namespace {

TEST(RunningStatTest, MeanAndCount) {
    RunningStat s;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_NEAR(s.mean(), 5.0, 1e-12);
}

TEST(RunningStatTest, DegenerateCases) {
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    s.add(3.5);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
    Stopwatch sw;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const double t = sw.seconds();
    EXPECT_GE(t, 0.015);
    EXPECT_LT(t, 5.0);
    sw.reset();
    EXPECT_LT(sw.seconds(), 0.015);
    EXPECT_NEAR(sw.milliseconds(), sw.seconds() * 1e3, 1.0);
}

TEST(TableTest, PrintAlignsColumns) {
    Table t({"users", "RSs"});
    t.add_row({"15", "9"});
    t.add_numeric_row({20.0, 11.5}, 1);
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("users"), std::string::npos);
    EXPECT_NE(out.find("20.0"), std::string::npos);
    EXPECT_NE(out.find("11.5"), std::string::npos);
    // Header, rule, two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(TableTest, RejectsWrongWidth) {
    Table t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TableTest, NanRendersAsNa) {
    EXPECT_EQ(format_cell(std::nan(""), 2), "n/a");
    EXPECT_EQ(format_cell(3.14159, 2), "3.14");
    Table t({"x"});
    t.add_numeric_row({std::nan("")});
    std::ostringstream os;
    t.print(os);
    EXPECT_EQ(os.str(), "    x\n-----\n  n/a\n");
}

TEST(PaperPresetsTest, MatchSectionFourSettings) {
    // The presets start from GeneratorConfig's defaults: the §IV base.
    const GeneratorConfig base;
    EXPECT_DOUBLE_EQ(base.min_distance_request, 30.0);
    EXPECT_DOUBLE_EQ(base.max_distance_request, 40.0);
    EXPECT_DOUBLE_EQ(base.snr_threshold_db.db(), -15.0);
    EXPECT_EQ(base.base_station_count, 4u);

    EXPECT_DOUBLE_EQ(presets::field500(20).field_side, 500.0);
    EXPECT_EQ(presets::field500(20).subscriber_count, 20u);
    EXPECT_DOUBLE_EQ(presets::field800(70).field_side, 800.0);
    EXPECT_DOUBLE_EQ(presets::field800_relaxed(50).snr_threshold_db.db(), -40.0);
    EXPECT_DOUBLE_EQ(presets::field300(10).field_side, 300.0);
    EXPECT_DOUBLE_EQ(presets::snr_sweep_point(units::Decibel{-11.55}).snr_threshold_db.db(), -11.55);
    EXPECT_EQ(presets::topology_showcase().bs_layout, BsLayout::Corners);
}

TEST(PaperPresetsTest, PresetsGenerateValidScenarios) {
    for (const auto& cfg :
         {presets::field500(20), presets::field800(70), presets::field300(10),
          presets::topology_showcase()}) {
        EXPECT_NO_THROW((void)generate_scenario(cfg, 1));
    }
}

}  // namespace
}  // namespace sag::sim
