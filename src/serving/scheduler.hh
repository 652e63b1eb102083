/**
 * @file
 * Request Scheduler (paper §4.2, §5.2): classifies incoming requests
 * into cache hits and misses, performs retrieval and k-selection, and
 * maintains cache content as generations complete.
 *
 * The scheduler owns the text tower (the paper hosts a CLIP model in the
 * scheduler process), MoDM's image cache, and — when running the Nirvana
 * baseline — the latent cache.
 */

#ifndef MODM_SERVING_SCHEDULER_HH
#define MODM_SERVING_SCHEDULER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/cache/image_cache.hh"
#include "src/cache/latent_cache.hh"
#include "src/diffusion/image.hh"
#include "src/embedding/encoder.hh"
#include "src/serving/config.hh"
#include "src/serving/k_decision.hh"
#include "src/workload/prompt.hh"

namespace modm::serving {

/**
 * Pinecone's direct-return threshold. Pinecone retrieves by
 * *text-to-text* similarity (paper §6: "the most similar prompt using
 * CLIP text embedding similarity") and returns the cached image
 * unrefined — the root of its weak image-text alignment in Tables 2/3.
 */
inline constexpr double kPineconeThreshold = 0.94;

/** A classified request ready for queueing/dispatch. */
struct ClassifiedJob
{
    /** The request classify() was given; it must outlive the job. */
    const workload::Request *request = nullptr;
    embedding::Embedding textEmbedding;
    /** True when served from cache (refinement or direct return). */
    bool hit = false;
    /** True when the cached image is returned without refinement. */
    bool direct = false;
    /** Steps to skip when refining. */
    int k = 0;
    /** Retrieval similarity (text-to-image for MoDM/Pinecone,
     *  text-to-text for Nirvana); -1 on miss. */
    double similarity = -1.0;
    /** Copy of the retrieved image (valid when hit). */
    diffusion::Image base;
    /** Classification timestamp. */
    double classifiedAt = 0.0;
};

/** Aggregate scheduler counters. */
struct SchedulerStats
{
    std::uint64_t classified = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t directReturns = 0;
    std::map<int, std::uint64_t> kCounts;
};

/**
 * The request scheduler. Behaviour varies with the configured
 * SystemKind, so one implementation serves MoDM and every baseline.
 */
class RequestScheduler
{
  public:
    /** Construct per the experiment configuration. */
    explicit RequestScheduler(const ServingConfig &config);

    /**
     * Classify a request at simulated time `now`: embed the prompt,
     * retrieve from the appropriate cache, apply thresholds, select k.
     * The job points at `request`, which must outlive it.
     */
    ClassifiedJob classify(const workload::Request &request, double now);

    /**
     * Pre-size the system's cache (image or latent) for an expected
     * number of entries — the warm-up phase calls this so bulk
     * admission avoids index reallocation and rehash churn.
     */
    void reserveCache(std::size_t expected);

    /**
     * Re-bound whichever cache this system runs (image and/or latent)
     * to a new shard capacity; shrinking evicts down under the shard's
     * own eviction policy. Scripted knob changes land here.
     */
    void setCacheCapacity(std::size_t capacity);

    /**
     * Admit a finished generation to the cache per the system's
     * admission policy.
     *
     * @param image The generated image.
     * @param text_embedding Text embedding of the producing prompt.
     * @param from_miss True when the image came from a cache miss
     *        (i.e., was produced by the large model from scratch).
     * @param now Simulated time.
     */
    void admitGenerated(const diffusion::Image &image,
                        const embedding::Embedding &text_embedding,
                        bool from_miss, double now);

    /** MoDM/Pinecone image cache (present for those kinds). */
    cache::ImageCache *imageCache() { return imageCache_.get(); }

    /** Const image-cache access. */
    const cache::ImageCache *imageCache() const { return imageCache_.get(); }

    /** Nirvana latent cache (null for other kinds). */
    cache::LatentCache *latentCache() { return latentCache_.get(); }

    /** Const latent-cache access. */
    const cache::LatentCache *latentCache() const
    {
        return latentCache_.get();
    }

    /** Text tower. */
    const embedding::TextEncoder &textEncoder() const { return text_; }

    /** The k-decision table. */
    const KDecision &kDecision() const { return kDecision_; }

    /** Counters. */
    const SchedulerStats &stats() const { return stats_; }

    /**
     * Ages (seconds between retrieval and the retrieved image's
     * creation) of every cache hit — the Fig. 15 temporal-locality
     * data.
     */
    const std::vector<double> &hitAges() const { return hitAges_; }

    /**
     * The retrieval index of whichever cache this system runs; null
     * for Vanilla and StandaloneSmall.
     */
    const embedding::FlatIndex *retrievalIndex() const;

    /**
     * Drop all cached content (image and latent caches): a killed
     * node's shard dies with it, so a rejoin starts cold. Aggregate
     * counters survive — they are run telemetry, not cache state.
     */
    void clearCaches();

  private:
    SystemKind kind_;
    embedding::TextEncoder text_;
    KDecision kDecision_;
    AdmissionPolicy admission_;
    std::unique_ptr<cache::ImageCache> imageCache_;
    std::unique_ptr<cache::LatentCache> latentCache_;
    SchedulerStats stats_;
    std::vector<double> hitAges_;
};

} // namespace modm::serving

#endif // MODM_SERVING_SCHEDULER_HH
