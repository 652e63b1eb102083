#include "src/obs/metrics.hh"

#include <algorithm>
#include <cmath>

#include "src/common/log.hh"

namespace modm::obs {

std::vector<double>
bucketCounts(const std::vector<double> &times, double width,
             double duration)
{
    MODM_ASSERT(width > 0.0, "bucket width must be positive");
    const auto buckets = static_cast<std::size_t>(
        std::ceil(std::max(duration, 1.0) / width));
    std::vector<double> out(buckets, 0.0);
    for (const double t : times) {
        const auto b = static_cast<std::size_t>(t / width);
        if (b < buckets)
            out[b] += 1.0;
    }
    return out;
}

std::vector<double>
groupMeans(const std::vector<double> &series, std::size_t group)
{
    MODM_ASSERT(group > 0, "group size must be positive");
    std::vector<double> out;
    out.reserve((series.size() + group - 1) / group);
    for (std::size_t start = 0; start < series.size(); start += group) {
        double acc = 0.0;
        for (std::size_t i = start;
             i < std::min(series.size(), start + group); ++i)
            acc += series[i];
        out.push_back(acc / static_cast<double>(group));
    }
    return out;
}

} // namespace modm::obs
