#include "sag/io/svg.h"

#include <cmath>
#include <sstream>

namespace sag::io {

namespace {

/// Palette (colorblind-friendly): subscribers gray, BSs dark, coverage RSs
/// blue, connectivity RSs orange.
constexpr const char* kSubscriber = "#7f7f7f";
constexpr const char* kBaseStation = "#1a1a1a";
constexpr const char* kCoverageRs = "#2166ac";
constexpr const char* kConnectivityRs = "#e08214";
constexpr const char* kTreeEdge = "#b0b0b0";
constexpr const char* kAccessLink = "#cfe0ef";
/// Width and height of the square canvas.
constexpr double kCanvasPx = 720.0;

class Canvas {
public:
    explicit Canvas(const geom::Rect& world) : world_(world) {
        const double margin = 0.06 * kCanvasPx;
        scale_ = (kCanvasPx - 2 * margin) /
                 std::max(world.width(), world.height());
        offset_ = margin;
    }

    double x(double wx) const { return offset_ + (wx - world_.min.x) * scale_; }
    /// SVG y grows downward; world y grows upward.
    double y(double wy) const {
        return kCanvasPx - offset_ - (wy - world_.min.y) * scale_;
    }
    double len(double w) const { return w * scale_; }
    double size() const { return kCanvasPx; }

private:
    geom::Rect world_;
    double scale_;
    double offset_;
};

void line(std::ostringstream& os, const Canvas& c, const geom::Vec2& a,
          const geom::Vec2& b, const char* stroke, double width,
          const char* dash = nullptr) {
    os << "<line x1='" << c.x(a.x) << "' y1='" << c.y(a.y) << "' x2='" << c.x(b.x)
       << "' y2='" << c.y(b.y) << "' stroke='" << stroke << "' stroke-width='"
       << width << '\'';
    if (dash) os << " stroke-dasharray='" << dash << '\'';
    os << "/>\n";
}

void circle(std::ostringstream& os, const Canvas& c, const geom::Vec2& p, double r_px,
            const char* fill, const char* stroke = nullptr,
            const char* dash = nullptr) {
    os << "<circle cx='" << c.x(p.x) << "' cy='" << c.y(p.y) << "' r='" << r_px
       << "' fill='" << fill << '\'';
    if (stroke) os << " stroke='" << stroke << "' stroke-width='1'";
    if (dash) os << " stroke-dasharray='" << dash << '\'';
    os << "/>\n";
}

void world_circle(std::ostringstream& os, const Canvas& c, const geom::Circle& wc,
                  const char* stroke, const char* dash) {
    os << "<circle cx='" << c.x(wc.center.x) << "' cy='" << c.y(wc.center.y)
       << "' r='" << c.len(wc.radius) << "' fill='none' stroke='" << stroke
       << "' stroke-width='0.8' stroke-dasharray='" << dash << "'/>\n";
}

void square(std::ostringstream& os, const Canvas& c, const geom::Vec2& p,
            double half_px, const char* fill) {
    os << "<rect x='" << c.x(p.x) - half_px << "' y='" << c.y(p.y) - half_px
       << "' width='" << 2 * half_px << "' height='" << 2 * half_px << "' fill='"
       << fill << "'/>\n";
}

void diamond(std::ostringstream& os, const Canvas& c, const geom::Vec2& p,
             double half_px, const char* fill) {
    const double cx = c.x(p.x), cy = c.y(p.y);
    os << "<polygon points='" << cx << ',' << cy - half_px << ' ' << cx + half_px
       << ',' << cy << ' ' << cx << ',' << cy + half_px << ' ' << cx - half_px << ','
       << cy << "' fill='" << fill << "'/>\n";
}

std::ostringstream document_open(const core::Scenario& scenario, const Canvas& c,
                                 std::string_view title) {
    std::ostringstream os;
    os << "<svg xmlns='http://www.w3.org/2000/svg' width='" << c.size()
       << "' height='" << c.size() << "' viewBox='0 0 " << c.size() << ' ' << c.size()
       << "'>\n";
    os << "<rect width='100%' height='100%' fill='white'/>\n";
    if (!title.empty()) {
        os << "<text x='" << c.size() / 2
           << "' y='18' text-anchor='middle' font-family='sans-serif' "
              "font-size='14'>"
           << title << "</text>\n";
    }
    // Field boundary.
    os << "<rect x='" << c.x(scenario.field.min.x) << "' y='"
       << c.y(scenario.field.max.y) << "' width='" << c.len(scenario.field.width())
       << "' height='" << c.len(scenario.field.height())
       << "' fill='none' stroke='#d0d0d0' stroke-width='1'/>\n";
    return os;
}

}  // namespace

std::string render_deployment_svg(const core::Scenario& scenario,
                                  const core::CoveragePlan& coverage,
                                  const core::ConnectivityPlan& connectivity,
                                  std::string_view title) {
    const Canvas c(scenario.field);
    std::ostringstream os = document_open(scenario, c, title);

    // Edges first so markers draw on top.
    for (std::size_t v = 0; v < connectivity.node_count(); ++v) {
        if (connectivity.parent[v] != v) {
            line(os, c, connectivity.positions[v],
                 connectivity.positions[connectivity.parent[v]], kTreeEdge, 1.2);
        }
    }
    for (const sag::ids::SsId j : scenario.ss_ids()) {
        if (j.index() < coverage.assignment.size() &&
            coverage.assignment[j].valid() &&
            coverage.assignment[j].index() < coverage.rs_count()) {
            line(os, c, scenario.subscriber(j).pos,
                 coverage.rs_position(coverage.assignment[j]), kAccessLink, 1.0,
                 "2,2");
        }
    }

    // The scenario layer: feasible circles, subscribers, base stations.
    for (const sag::ids::SsId j : scenario.ss_ids()) {
        world_circle(os, c, scenario.feasible_circle(j), kSubscriber, "3,3");
    }
    for (const auto& sub : scenario.subscribers) {
        circle(os, c, sub.pos, 3.5, "white", kSubscriber);
    }
    for (const auto& bs : scenario.base_stations) {
        square(os, c, bs.pos, 5.0, kBaseStation);
    }

    for (std::size_t v = 0; v < connectivity.node_count(); ++v) {
        switch (connectivity.kinds[v]) {
            case core::NodeKind::BaseStation:
                break;  // drawn by the scenario layer
            case core::NodeKind::CoverageRs:
                circle(os, c, connectivity.positions[v], 4.0, kCoverageRs);
                break;
            case core::NodeKind::ConnectivityRs:
                diamond(os, c, connectivity.positions[v], 4.0, kConnectivityRs);
                break;
        }
    }

    // Legend.
    const double lx = 14.0;
    double ly = c.size() - 64.0;
    const auto legend_row = [&](const char* label, const char* color,
                                const char* shape) {
        if (std::string(shape) == "circle") {
            os << "<circle cx='" << lx << "' cy='" << ly << "' r='4' fill='" << color
               << "'/>";
        } else if (std::string(shape) == "square") {
            os << "<rect x='" << lx - 4 << "' y='" << ly - 4
               << "' width='8' height='8' fill='" << color << "'/>";
        } else {
            os << "<polygon points='" << lx << ',' << ly - 4 << ' ' << lx + 4 << ','
               << ly << ' ' << lx << ',' << ly + 4 << ' ' << lx - 4 << ',' << ly
               << "' fill='" << color << "'/>";
        }
        os << "<text x='" << lx + 10 << "' y='" << ly + 4
           << "' font-family='sans-serif' font-size='11'>" << label << "</text>\n";
        ly += 16.0;
    };
    legend_row("subscriber", kSubscriber, "circle");
    legend_row("base station", kBaseStation, "square");
    legend_row("coverage RS", kCoverageRs, "circle");
    legend_row("connectivity RS", kConnectivityRs, "diamond");

    os << "</svg>\n";
    return os.str();
}

}  // namespace sag::io
