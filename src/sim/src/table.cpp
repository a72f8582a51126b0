#include "sag/sim/table.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace sag::sim {

std::string format_cell(double value, int precision) {
    if (std::isnan(value)) return "n/a";
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
    if (cells.size() != headers_.size())
        throw std::invalid_argument("row width does not match header count");
    rows_.push_back(std::move(cells));
}

void Table::add_numeric_row(const std::vector<double>& values, int precision) {
    std::vector<std::string> cells;
    cells.reserve(values.size());
    for (const double v : values) cells.push_back(format_cell(v, precision));
    add_row(std::move(cells));
}

void Table::print(std::ostream& os) const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }
    const auto print_row = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << std::setw(static_cast<int>(widths[c]) + 2) << row[c];
        }
        os << '\n';
    };
    print_row(headers_);
    std::size_t total = 0;
    for (const std::size_t w : widths) total += w + 2;
    os << std::string(total, '-') << '\n';
    for (const auto& row : rows_) print_row(row);
}

}  // namespace sag::sim
