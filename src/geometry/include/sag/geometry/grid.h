#pragma once

#include <vector>

#include "sag/geometry/circle.h"

namespace sag::geom {

/// Centers of the square cells of side `cell_size` tiling `field`,
/// row-major from the minimum corner. This is the paper's GAC candidate
/// construction (Fig. 2b): every grid center is a candidate RS position.
/// Cells sticking out past the field edge are kept (their centers are
/// clamped inside), so the whole field is covered.
std::vector<Vec2> grid_centers(const Rect& field, double cell_size);

}  // namespace sag::geom
