/**
 * @file
 * Request arrival processes.
 *
 * The paper models arrivals as a homogeneous Poisson process with varying
 * rates (§6), plus step-increasing (Fig. 10) and fluctuating (Fig. 17)
 * rate schedules for the adaptivity experiments.
 */

#ifndef MODM_WORKLOAD_ARRIVALS_HH
#define MODM_WORKLOAD_ARRIVALS_HH

#include <vector>

#include "src/common/rng.hh"

namespace modm::workload {

/** Interface: produces monotonically increasing arrival timestamps. */
class ArrivalProcess
{
  public:
    virtual ~ArrivalProcess() = default;

    /** Timestamp (seconds) of the next arrival. */
    virtual double next(Rng &rng) = 0;
};

/** Homogeneous Poisson arrivals at a fixed rate. */
class PoissonArrivals : public ArrivalProcess
{
  public:
    /** Rate in requests per minute. */
    explicit PoissonArrivals(double rate_per_min);

    double next(Rng &rng) override;

    /** Configured rate (requests/minute). */
    double ratePerMin() const { return ratePerMin_; }

  private:
    double ratePerMin_;
    double now_ = 0.0;
};

/** One segment of a piecewise-constant rate schedule. */
struct RateSegment
{
    /** Segment duration in seconds. */
    double duration;
    /** Poisson rate in requests per minute during the segment. */
    double ratePerMin;
};

/**
 * Piecewise-constant-rate Poisson arrivals; used for the increasing-rate
 * (Fig. 10) and fluctuating-rate (Fig. 17) experiments. After the last
 * segment the final rate holds forever.
 */
class PiecewiseArrivals : public ArrivalProcess
{
  public:
    /** Construct from segments; at least one is required. */
    explicit PiecewiseArrivals(std::vector<RateSegment> segments);

    double next(Rng &rng) override;

    /** Rate in effect at an absolute time. */
    double rateAt(double time) const;

  private:
    std::vector<RateSegment> segments_;
    double now_ = 0.0;
};

} // namespace modm::workload

#endif // MODM_WORKLOAD_ARRIVALS_HH
