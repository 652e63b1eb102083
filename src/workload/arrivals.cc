#include "src/workload/arrivals.hh"

#include "src/common/log.hh"

namespace modm::workload {

PoissonArrivals::PoissonArrivals(double rate_per_min)
    : ratePerMin_(rate_per_min)
{
    MODM_ASSERT(rate_per_min > 0.0, "arrival rate must be positive");
}

double
PoissonArrivals::next(Rng &rng)
{
    now_ += rng.exponential(ratePerMin_ / 60.0);
    return now_;
}

PiecewiseArrivals::PiecewiseArrivals(std::vector<RateSegment> segments)
    : segments_(std::move(segments))
{
    MODM_ASSERT(!segments_.empty(), "need at least one rate segment");
    for (const auto &seg : segments_) {
        MODM_ASSERT(seg.duration > 0.0, "segment duration must be positive");
        MODM_ASSERT(seg.ratePerMin > 0.0, "segment rate must be positive");
    }
}

double
PiecewiseArrivals::rateAt(double time) const
{
    double start = 0.0;
    for (const auto &seg : segments_) {
        if (time < start + seg.duration)
            return seg.ratePerMin;
        start += seg.duration;
    }
    return segments_.back().ratePerMin;
}

double
PiecewiseArrivals::next(Rng &rng)
{
    // Thinning-free approach: advance with the rate in effect at the
    // current time. Exact at segment interiors; the boundary error is at
    // most one inter-arrival gap, negligible for minutes-long segments.
    const double rate = rateAt(now_);
    now_ += rng.exponential(rate / 60.0);
    return now_;
}

} // namespace modm::workload
