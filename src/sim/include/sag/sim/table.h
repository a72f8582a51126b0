#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace sag::sim {

/// Column-aligned text table. Every benchmark binary prints one of these
/// per paper table/figure so EXPERIMENTS.md can quote rows verbatim.
class Table {
public:
    explicit Table(std::vector<std::string> headers);

    /// Adds a row of already formatted cells (must match header count).
    void add_row(std::vector<std::string> cells);
    /// Convenience: formats doubles with `precision` digits after the point;
    /// NaN renders as "n/a" (the paper's infeasible marker).
    void add_numeric_row(const std::vector<double>& values, int precision = 2);

    void print(std::ostream& os) const;

private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/// Formats a double like add_numeric_row does (NaN -> "n/a").
std::string format_cell(double value, int precision = 2);

}  // namespace sag::sim
