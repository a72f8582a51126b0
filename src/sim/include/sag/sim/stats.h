#pragma once

#include <cstddef>

namespace sag::sim {

/// Streaming mean accumulator (Welford's update), used to average the 10
/// test runs behind every plotted point (paper §IV).
class RunningStat {
public:
    void add(double x) {
        ++count_;
        mean_ += (x - mean_) / static_cast<double>(count_);
    }
    std::size_t count() const { return count_; }
    double mean() const { return mean_; }

private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
};

}  // namespace sag::sim
