/**
 * @file
 * Serving metrics collector: per-request records plus the aggregates the
 * paper evaluates — throughput, p99 tail latency, SLO violation rates at
 * configurable multiples of the large model's inference latency, cache
 * hit rates, and the skipped-step distribution.
 */

#ifndef MODM_SERVING_METRICS_HH
#define MODM_SERVING_METRICS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/stats.hh"

namespace modm::serving {

/** How one request was served. */
enum class ServeKind
{
    FullGeneration,     ///< cache miss: full T-step generation
    Refinement,         ///< cache hit refined with a model
    DirectReturn,       ///< cache hit returned without refinement
};

/** One completed request. */
struct RequestRecord
{
    std::uint64_t promptId = 0;
    double arrival = 0.0;
    /**
     * Scheduler classification instant (cache lookup time). The hit
     * decision reflects cache state *here*, so failover recovery
     * analysis buckets hit rates by this stamp. Not part of the
     * digest line (whose format is frozen).
     */
    double classified = 0.0;
    double start = 0.0;    ///< dispatch to a worker (or direct return)
    double finish = 0.0;
    bool cacheHit = false;
    int k = 0;             ///< skipped steps (0 for full generation)
    double similarity = -1.0;
    ServeKind kind = ServeKind::FullGeneration;
    std::string servedBy;  ///< model name ("-" for direct returns)

    /** End-to-end latency. */
    double latency() const { return finish - arrival; }

    /** Queueing delay before dispatch. */
    double queueDelay() const { return start - arrival; }
};

/**
 * Collects request records and computes the paper's aggregates.
 */
class MetricsCollector
{
  public:
    /** Record one completed request. */
    void record(const RequestRecord &record);

    /** Make room for `n` records, so recording them never reallocates. */
    void reserve(std::size_t n) { records_.reserve(n); }

    /** All records, in completion order. */
    const std::vector<RequestRecord> &records() const { return records_; }

    /** Number of completed requests. */
    std::size_t count() const { return records_.size(); }

    /** Fraction of requests served from cache. */
    double hitRate() const;

    /** Mean k over cache hits (0 when no hits). */
    double meanK() const;

    /** p-th percentile of end-to-end latency. */
    double latencyPercentile(double p) const;

    /** Mean end-to-end latency. */
    double meanLatency() const;

    /**
     * Fraction of requests with latency above the threshold (the
     * paper's SLO violation rate; thresholds are 2x / 4x the large
     * model's full inference latency).
     */
    double sloViolationRate(double threshold_seconds) const;

    /** Completed requests per minute over the span of the records. */
    double throughputPerMinute() const;

    /** Time of the last completion (0 when empty). */
    double lastCompletion() const;

    /**
     * Completions per minute bucketed by wall-clock minute, for the
     * throughput-over-time figures (Fig. 10 / Fig. 17).
     */
    std::vector<double> completionsPerMinute(double duration) const;

  private:
    std::vector<RequestRecord> records_;
};

} // namespace modm::serving

#endif // MODM_SERVING_METRICS_HH
