#include <gtest/gtest.h>

#include "sag/core/sag.h"
#include "sag/io/svg.h"
#include "sag/sim/scenario_gen.h"

namespace sag::io {
namespace {

core::Scenario sample() {
    sim::GeneratorConfig cfg;
    cfg.field_side = 500.0;
    cfg.subscriber_count = 8;
    cfg.base_station_count = 2;
    return sim::generate_scenario(cfg, 4);
}

std::size_t count_occurrences(const std::string& haystack, const std::string& needle) {
    std::size_t count = 0, pos = 0;
    while ((pos = haystack.find(needle, pos)) != std::string::npos) {
        ++count;
        pos += needle.size();
    }
    return count;
}

TEST(SvgTest, ScenarioRenderHasAllStations) {
    // With no deployment yet, only the scenario layer draws.
    const auto s = sample();
    const std::string svg = render_deployment_svg(s, {}, {});
    EXPECT_EQ(svg.rfind("<svg", 0), 0u);
    EXPECT_NE(svg.find("</svg>"), std::string::npos);
    // One hollow circle per subscriber plus one dashed feasible circle.
    EXPECT_EQ(count_occurrences(svg, "fill='white' stroke="),
              s.subscriber_count());
    EXPECT_EQ(count_occurrences(svg, "stroke-dasharray='3,3'"),
              s.subscriber_count());
    // One filled square per base station (plus the canvas + field rects
    // and the legend's base-station square).
    EXPECT_EQ(count_occurrences(svg, "<rect"), 3u + s.base_stations.size());
}

TEST(SvgTest, DeploymentRenderHasMarkersAndEdges) {
    const auto s = sample();
    const auto result = core::solve_sag(s);
    ASSERT_TRUE(result.feasible);
    const std::string svg = render_deployment_svg(s, result.coverage,
                                                  result.connectivity, "test render");
    EXPECT_NE(svg.find("test render"), std::string::npos);
    // One diamond per connectivity RS + 1 legend diamond.
    EXPECT_EQ(count_occurrences(svg, "<polygon"),
              result.connectivity_rs_count() + 1);
    // A tree edge for every non-root node.
    std::size_t non_root = 0;
    for (std::size_t v = 0; v < result.connectivity.node_count(); ++v) {
        if (result.connectivity.parent[v] != v) ++non_root;
    }
    std::size_t edge_lines = 0;
    for (std::size_t pos = svg.find("<line"); pos != std::string::npos;
         pos = svg.find("<line", pos + 1)) {
        if (svg.find("stroke='#b0b0b0'", pos) == svg.find("stroke='", pos)) {
            ++edge_lines;
        }
    }
    EXPECT_EQ(count_occurrences(svg, "stroke='#b0b0b0'"), non_root);
    // Access links: one dashed line per subscriber.
    EXPECT_EQ(count_occurrences(svg, "stroke='#cfe0ef'"), s.subscriber_count());
}

TEST(SvgTest, CoordinatesStayOnCanvas) {
    const auto s = sample();
    const auto result = core::solve_sag(s);
    ASSERT_TRUE(result.feasible);
    const std::string svg =
        render_deployment_svg(s, result.coverage, result.connectivity);
    // Every cx attribute must lie on the 720 px canvas.
    for (std::size_t pos = svg.find("cx='"); pos != std::string::npos;
         pos = svg.find("cx='", pos + 1)) {
        const double v = std::stod(svg.substr(pos + 4));
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 720.0);
    }
}

TEST(SvgTest, YAxisPointsUp) {
    // A subscriber near the field top must render with a *smaller* SVG y
    // than one near the bottom.
    core::Scenario s;
    s.field = geom::Rect::centered_square(200.0);
    s.subscribers = {{{0.0, 90.0}, 35.0}, {{0.0, -90.0}, 35.0}};
    s.base_stations = {{{0.0, 0.0}}};
    const std::string svg = render_deployment_svg(s, {}, {});
    // Hollow subscriber markers appear in declaration order.
    const std::size_t first = svg.find("fill='white' stroke=");
    const std::size_t second = svg.find("fill='white' stroke=", first + 1);
    const auto cy_before = [&](std::size_t pos) {
        const std::size_t cy = svg.rfind("cy='", pos);
        return std::stod(svg.substr(cy + 4));
    };
    EXPECT_LT(cy_before(first), cy_before(second));
}

}  // namespace
}  // namespace sag::io
