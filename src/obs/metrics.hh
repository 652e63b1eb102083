/**
 * @file
 * Fixed-width bucketing helpers for per-interval telemetry.
 *
 * ServingResult reports end-of-run aggregates only; the figures that
 * plot a series over the run (throughput per minute in Fig. 10) bucket
 * completion times through these two helpers instead of hand-rolling
 * the accounting. Both are pure functions of their inputs, so series
 * produced by concurrent sweep cells are bit-identical to serial ones.
 */

#ifndef MODM_OBS_METRICS_HH
#define MODM_OBS_METRICS_HH

#include <cstddef>
#include <vector>

namespace modm::obs {

/**
 * Count samples into fixed-width buckets over [0, duration): the
 * standardized form of the per-minute completion bucketing the
 * throughput-over-time figures use. ceil(max(duration,1)/width)
 * buckets; samples past the end are dropped (they belong to the
 * simulator's trailing drain, which the figures never plot).
 */
std::vector<double> bucketCounts(const std::vector<double> &times,
                                 double width, double duration);

/**
 * Mean of consecutive groups of `group` entries (last group padded
 * with zeros): the "per 4-minute window" re-bucketing the rate
 * figures apply on top of per-minute series.
 */
std::vector<double> groupMeans(const std::vector<double> &series,
                               std::size_t group);

} // namespace modm::obs

#endif // MODM_OBS_METRICS_HH
