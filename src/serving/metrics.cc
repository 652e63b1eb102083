#include "src/serving/metrics.hh"

#include <algorithm>

#include "src/common/log.hh"
#include "src/obs/metrics.hh"

namespace modm::serving {

void
MetricsCollector::record(const RequestRecord &record)
{
    MODM_ASSERT(record.finish >= record.arrival,
                "request finished before it arrived");
    records_.push_back(record);
}

double
MetricsCollector::hitRate() const
{
    if (records_.empty())
        return 0.0;
    std::size_t hits = 0;
    for (const auto &r : records_)
        hits += r.cacheHit ? 1 : 0;
    return static_cast<double>(hits) /
        static_cast<double>(records_.size());
}

double
MetricsCollector::meanK() const
{
    std::size_t hits = 0;
    double sum = 0.0;
    for (const auto &r : records_) {
        if (r.cacheHit) {
            ++hits;
            sum += r.k;
        }
    }
    return hits ? sum / static_cast<double>(hits) : 0.0;
}

double
MetricsCollector::latencyPercentile(double p) const
{
    PercentileTracker tracker;
    for (const auto &r : records_)
        tracker.add(r.latency());
    return tracker.percentile(p);
}

double
MetricsCollector::meanLatency() const
{
    if (records_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &r : records_)
        sum += r.latency();
    return sum / static_cast<double>(records_.size());
}

double
MetricsCollector::sloViolationRate(double threshold_seconds) const
{
    if (records_.empty())
        return 0.0;
    std::size_t violations = 0;
    for (const auto &r : records_)
        violations += r.latency() > threshold_seconds ? 1 : 0;
    return static_cast<double>(violations) /
        static_cast<double>(records_.size());
}

double
MetricsCollector::throughputPerMinute() const
{
    if (records_.empty())
        return 0.0;
    const double span = lastCompletion();
    if (span <= 0.0)
        return 0.0;
    return static_cast<double>(records_.size()) * 60.0 / span;
}

double
MetricsCollector::lastCompletion() const
{
    double last = 0.0;
    for (const auto &r : records_)
        last = std::max(last, r.finish);
    return last;
}

std::vector<double>
MetricsCollector::completionsPerMinute(double duration) const
{
    // The standardized bucketing in obs reproduces the historical
    // accounting exactly (same bucket math, same past-end drop).
    std::vector<double> finishes;
    finishes.reserve(records_.size());
    for (const auto &r : records_)
        finishes.push_back(r.finish);
    return obs::bucketCounts(finishes, 60.0, duration);
}

} // namespace modm::serving
