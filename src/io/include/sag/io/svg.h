#pragma once

#include <string>
#include <string_view>

#include "sag/core/deployment.h"
#include "sag/core/scenario.h"

namespace sag::io {

/// Renders a deployment as a standalone 720 px square SVG document — the
/// direct visual analogue of the paper's Fig. 6 scatter plots:
/// subscribers as hollow circles inside their dashed feasible circles,
/// base stations as filled squares, coverage RSs as filled circles,
/// connectivity RSs as diamonds, tree edges and subscriber access links
/// as lines. A non-empty `title` is rendered as a caption at the top.
std::string render_deployment_svg(const core::Scenario& scenario,
                                  const core::CoveragePlan& coverage,
                                  const core::ConnectivityPlan& connectivity,
                                  std::string_view title = {});

}  // namespace sag::io
