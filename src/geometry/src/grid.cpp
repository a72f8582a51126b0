#include "sag/geometry/grid.h"

#include <cmath>
#include <stdexcept>

namespace sag::geom {

namespace {

std::size_t cells_along(double extent, double cell_size) {
    return static_cast<std::size_t>(std::ceil(extent / cell_size - kEps));
}

}  // namespace

std::vector<Vec2> grid_centers(const Rect& field, double cell_size) {
    if (cell_size <= 0.0) throw std::invalid_argument("grid cell_size must be positive");
    const std::size_t nx = cells_along(field.width(), cell_size);
    const std::size_t ny = cells_along(field.height(), cell_size);
    std::vector<Vec2> centers;
    centers.reserve(nx * ny);
    for (std::size_t iy = 0; iy < ny; ++iy) {
        for (std::size_t ix = 0; ix < nx; ++ix) {
            Vec2 p{field.min.x + (static_cast<double>(ix) + 0.5) * cell_size,
                   field.min.y + (static_cast<double>(iy) + 0.5) * cell_size};
            // Clamp centers of overhanging cells back inside the field.
            p.x = std::min(p.x, field.max.x);
            p.y = std::min(p.y, field.max.y);
            centers.push_back(p);
        }
    }
    return centers;
}

}  // namespace sag::geom
