/**
 * @file
 * The coarse quantizer IvfIndex and IvfPqIndex share, and the seeded
 * Lloyd k-means behind it (IVF-PQ's codebooks train with the same loop
 * under the L2 metric).
 *
 * A CoarseQuantizer holds nlist spherical k-means centroids over the
 * embedding space. Rows bin to their nearest centroid's list; a query
 * probes the lists of its nprobe nearest centroids.
 *
 * Determinism: the training sample, the seeding, every Lloyd iteration
 * and every tie-break are pure functions of (rows in order, kIndexSeed,
 * training generation), so equal construction sequences give equal
 * centroids on any machine.
 */

#ifndef MODM_EMBEDDING_COARSE_QUANTIZER_HH
#define MODM_EMBEDDING_COARSE_QUANTIZER_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "src/embedding/vector_index.hh"

namespace modm::embedding {

/** What a k-means clusters by. */
enum class KmeansMetric
{
    Cosine, ///< max dot; centroids are normalized means (spherical)
    L2,     ///< min squared distance; centroids are plain means
};

/**
 * The centroid among `k` (contiguous, `dim` floats each) that `row`
 * fits best, ties to the lowest index, and its fit: the dot (Cosine)
 * or the negated squared distance (L2), so higher fits better either
 * way. k must be positive.
 */
std::pair<std::size_t, double> nearestCentroid(const float *row,
                                               const float *centroids,
                                               std::size_t k,
                                               std::size_t dim,
                                               KmeansMetric metric);

/**
 * Seeded Lloyd k-means: writes `k` centroids of `dim` floats to `out`.
 * Seeds are k distinct rows picked by a partial Fisher-Yates shuffle
 * driven by Rng(seed). Each of `iters` iterations assigns every row to
 * its nearestCentroid, moves each non-empty centroid to its members'
 * mean (normalized under Cosine, where a zero mean keeps the old
 * centroid), and reseeds each empty cluster with the worst-fitting row
 * of a cluster that keeps at least one member. Needs rows.size() >= k.
 */
void lloydKmeans(const std::vector<const float *> &rows, std::size_t dim,
                 std::size_t k, std::size_t iters, KmeansMetric metric,
                 std::uint64_t seed, float *out);

/**
 * Spherical k-means centroids plus the probe count that picks which of
 * their lists a query scans. Untrained (no centroids) until train().
 */
class CoarseQuantizer
{
  public:
    /** Rows-per-list factor that triggers initial training. */
    static constexpr std::size_t kTrainFactor = 4;
    /** Training-set cap; larger indexes train on a stride sample. */
    static constexpr std::size_t kMaxTrainRows = 16384;

    /**
     * Asserts the nlist / nprobe bounds that validateRetrievalConfig
     * reports as a thrown diagnostic.
     */
    CoarseQuantizer(const RetrievalBackendConfig &config, std::size_t dim);

    /**
     * Train config.nlist centroids on a stride sample (capped at
     * kMaxTrainRows) of `rows`, seeded by kIndexSeed mixed with
     * `generation` so retrains explore fresh seedings. Returns false,
     * changing nothing, when `rows` holds too few rows to seed nlist
     * distinct centroids.
     */
    bool train(const std::vector<const float *> &rows,
               std::uint64_t generation);

    /** Drop the centroids (keeps the probe count). */
    void clear() { centroids_.clear(); }

    bool trained() const { return !centroids_.empty(); }

    /** Trained centroids (0 before training). */
    std::size_t lists() const { return centroids_.size() / dim_; }

    const float *centroid(std::size_t list) const
    {
        return &centroids_[list * dim_];
    }

    /** Nearest centroid's list for a row (ties: lowest index). */
    std::size_t assign(const float *row) const;

    /**
     * The nprobe() highest-scoring lists for a query, best first (ties:
     * lowest index); all of them when that exceeds lists().
     */
    std::vector<std::size_t> probe(const float *query) const;

    /** Rows needed before the first training. */
    std::size_t trainFloor() const { return kTrainFactor * config_.nlist; }

    /**
     * True when the lists, the largest holding `maxList` of `rows`
     * rows, have skewed past retrainThreshold x the mean. Never before
     * max(rows / 4, nlist) inserts since the last training, so
     * adversarial skew (e.g. every row identical) cannot retrain on
     * every insert; never when retrainThreshold <= 1.
     */
    bool skewed(std::size_t maxList, std::size_t rows,
                std::size_t insertsSinceTrain) const;

    /** Lists a query asks for: config.nprobe or its runtime override. */
    std::size_t nprobe() const { return config_.nprobe; }

    /** Runtime nprobe override (scenario knob); 0 ignored. */
    void setNprobe(std::size_t nprobe);

    /** Centroid floats. */
    std::size_t memoryBytes() const
    {
        return centroids_.size() * sizeof(float);
    }

  private:
    std::size_t dim_;
    RetrievalBackendConfig config_;
    std::vector<float> centroids_; // lists() * dim_
};

} // namespace modm::embedding

#endif // MODM_EMBEDDING_COARSE_QUANTIZER_HH
