#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace sag::sim
