/**
 * @file
 * Cache-hit threshold and k-selection heuristic (paper §5.2, Fig. 5b).
 *
 * Given the similarity of the best cached match, decide whether the
 * request is a cache hit and, if so, how many de-noising steps k can be
 * skipped while keeping the refined image's quality above alpha x
 * full-generation quality (Eq. 5). Higher similarity permits larger k
 * (more savings); below the lowest floor the request is a miss.
 *
 * The default table is the paper's Fig. 5b decision logic, which MoDM
 * applies to text-to-image similarity over its image-keyed cache. The
 * text-keyed caches of Nirvana and Pinecone run the same class over
 * text-to-text similarity with their own tables (scheduler.hh). The
 * calibrate() helper re-derives the table from quality sweeps the way
 * §5.2 does, and is exercised by the Fig. 5 benchmark.
 */

#ifndef MODM_SERVING_K_DECISION_HH
#define MODM_SERVING_K_DECISION_HH

#include <vector>

namespace modm::serving {

/** Similarity floors -> k table. */
struct KDecisionConfig
{
    /** Ascending similarity floors; floors[0] is the cache-hit gate. */
    std::vector<double> floors = {0.25, 0.27, 0.28, 0.29, 0.30};
    /** k granted at each floor (parallel to floors). */
    std::vector<int> ks = {5, 10, 15, 25, 30};
};

/** One calibration observation: quality factor at (k, similarity). */
struct CalibrationPoint
{
    int k = 0;
    double similarity = 0.0;
    double qualityFactor = 0.0;
};

/**
 * The k-decision heuristic.
 */
class KDecision
{
  public:
    /** Construct from a table; defaults to the paper's Fig. 5b values. */
    explicit KDecision(KDecisionConfig config = {});

    /** True when the similarity clears the cache-hit gate. */
    bool isHit(double similarity) const;

    /**
     * De-noising steps to skip for a hit; panics when called for a
     * similarity below the hit gate.
     */
    int decide(double similarity) const;

    /** The active table. */
    const KDecisionConfig &config() const { return config_; }

    /**
     * Re-derive a threshold table from calibration sweeps: for every
     * distinct k, the lowest similarity bucket whose mean quality factor
     * stays >= alpha becomes that k's floor (paper §5.2 methodology).
     * Buckets of width `bucket` are averaged before thresholding.
     */
    static KDecisionConfig calibrate(
        const std::vector<CalibrationPoint> &points, double alpha,
        double bucket = 0.005);

  private:
    KDecisionConfig config_;
};

} // namespace modm::serving

#endif // MODM_SERVING_K_DECISION_HH
