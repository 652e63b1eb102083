#include "src/common/stats.hh"

#include <algorithm>
#include <cmath>

#include "src/common/log.hh"

namespace modm {

void
RunningStat::add(double x)
{
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (count_ == 1) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
}

double
RunningStat::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

void
PercentileTracker::add(double x)
{
    samples_.push_back(x);
    sorted_ = false;
}

double
PercentileTracker::percentile(double p) const
{
    MODM_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range: %f", p);
    if (samples_.empty())
        return 0.0;
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double
PercentileTracker::mean() const
{
    if (samples_.empty())
        return 0.0;
    double acc = 0.0;
    for (double s : samples_)
        acc += s;
    return acc / static_cast<double>(samples_.size());
}

double
PercentileTracker::max() const
{
    if (samples_.empty())
        return 0.0;
    return *std::max_element(samples_.begin(), samples_.end());
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0)
{
    MODM_ASSERT(hi > lo, "histogram range must be non-empty");
    MODM_ASSERT(bins > 0, "histogram needs at least one bin");
}

void
Histogram::add(double x)
{
    const double unit = (x - lo_) / (hi_ - lo_);
    const auto n = static_cast<double>(counts_.size());
    std::size_t bin;
    if (unit <= 0.0)
        bin = 0;
    else if (unit >= 1.0)
        bin = counts_.size() - 1;
    else
        bin = static_cast<std::size_t>(unit * n);
    ++counts_[bin];
    ++total_;
    sum_ += x;
}

std::uint64_t
Histogram::binCount(std::size_t i) const
{
    MODM_ASSERT(i < counts_.size(), "histogram bin out of range");
    return counts_[i];
}

double
Histogram::binFraction(std::size_t i) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(binCount(i)) / static_cast<double>(total_);
}

double
Histogram::binCenter(std::size_t i) const
{
    MODM_ASSERT(i < counts_.size(), "histogram bin out of range");
    const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
    return lo_ + (static_cast<double>(i) + 0.5) * width;
}

} // namespace modm
