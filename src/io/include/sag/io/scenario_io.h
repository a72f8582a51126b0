#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "sag/core/deployment.h"
#include "sag/core/sag.h"
#include "sag/core/scenario.h"
#include "sag/io/json.h"

namespace sag::io {

/// Thrown by scenario_from_json on well-formed JSON carrying a
/// non-physical scenario (non-finite coordinates, negative powers,
/// duplicate station positions, ...). Carries the JSON path of the
/// offending field (e.g. "subscribers[3].pos") so CLI users see *where*
/// the input is broken, not just a bare exception text.
class ScenarioFormatError : public std::runtime_error {
public:
    ScenarioFormatError(const std::string& path, const std::string& what)
        : std::runtime_error(path + ": " + what), path_(path) {}
    const std::string& path() const { return path_; }

private:
    std::string path_;
};

/// Scenario <-> JSON. The format is versioned ("format": 1) and
/// round-trips every field, including all radio constants, so experiment
/// inputs can be archived and replayed exactly.
Json scenario_to_json(const core::Scenario& scenario);
core::Scenario scenario_from_json(const Json& json);

/// Deployment (both tiers + powers) -> JSON report. One-way: reports are
/// for archiving/plotting, not for feeding back into solvers.
Json sag_result_to_json(const core::SagResult& result);

/// Node/edge CSV of a deployment (kind,x,y,power,parent_x,parent_y), the
/// format the Fig. 6 plots consume. Subscribers are included with kind
/// "SS" and no parent.
void write_deployment_csv(std::ostream& os, const core::Scenario& scenario,
                          const core::ConnectivityPlan& connectivity);

/// File helpers; throw std::runtime_error on I/O failure.
void save_scenario(const std::string& path, const core::Scenario& scenario);
core::Scenario load_scenario(const std::string& path);
std::string read_text_file(const std::string& path);
void write_text_file(const std::string& path, const std::string& content);

}  // namespace sag::io
