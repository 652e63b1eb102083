/**
 * @file
 * Request Scheduler (paper §4.2, §5.2): classifies incoming requests
 * into cache hits and misses, performs retrieval and k-selection, and
 * maintains cache content as generations complete.
 *
 * The scheduler owns the text tower (the paper hosts a CLIP model in the
 * scheduler process), the system's image cache and its similarity -> k
 * table. MoDM keys its cache by image embedding and applies the
 * configured Fig. 5b table; Nirvana and Pinecone key theirs by the
 * producing prompt's text embedding and apply their own tables below.
 */

#ifndef MODM_SERVING_SCHEDULER_HH
#define MODM_SERVING_SCHEDULER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/cache/image_cache.hh"
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

/**
 * Nirvana's text-to-text similarity -> k table (paper §2.2). Text
 * similarity has no visual grounding, so the gate is high and the
 * skips conservative: the root of Nirvana's ~20 % saving cap.
 */
inline const KDecisionConfig kNirvanaKDecision = {{0.82, 0.90, 0.96},
                                                  {5, 10, 15}};

/**
 * Bytes charged per Nirvana or Pinecone cache entry: one multi-k latent
 * set (paper §3.1: ~2.5 MB per image, vs 1.4 MB for a final image).
 */
inline constexpr double kLatentSetBytes = 2.5e6;

/**
 * What a cache keys an admitted miss by: nothing (no cache: Vanilla,
 * StandaloneSmall), its image embedding (MoDM), or its prompt's text
 * embedding (Nirvana, Pinecone).
 */
enum class CacheKeying
{
    None,
    Image,
    Text,
};

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
    /** Retrieval similarity (text-to-image for MoDM, text-to-text
     *  for Nirvana and Pinecone); -1 on miss. */
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
     * retrieve from the cache, apply the hit gate, select k. The job
     * points at `request`, which must outlive it.
     */
    ClassifiedJob classify(const workload::Request &request, double now);

    /**
     * Pre-size the system's cache for an expected number of entries —
     * the warm-up phase calls this so bulk admission avoids index
     * reallocation and rehash churn.
     */
    void reserveCache(std::size_t expected);

    /**
     * Re-bound the system's cache to a new shard capacity; shrinking
     * evicts down under the shard's own eviction policy. Scripted knob
     * changes land here.
     */
    void setCacheCapacity(std::size_t capacity);

    /**
     * The key a finished generation is cached under, or null when the
     * admission policy turns it away (always, without a cache): MoDM's
     * image embedding, encoded into `image_key`, or for Nirvana and
     * Pinecone the producing prompt's text embedding. Replicated
     * admission asks the origin node once and hands the key to every
     * owner's admitKeyed.
     *
     * @param image The generated image.
     * @param text_embedding Text embedding of the producing prompt.
     * @param from_miss True when the image came from a cache miss
     *        (i.e., was produced by the large model from scratch).
     * @param image_key Receives MoDM's key; the result points at it.
     */
    const embedding::Embedding *
    admissionKey(const diffusion::Image &image,
                 const embedding::Embedding &text_embedding,
                 bool from_miss, embedding::Embedding &image_key);

    /** Cache `image` under an admissionKey at simulated time `now`. */
    void admitKeyed(const diffusion::Image &image,
                    const embedding::Embedding &key, double now);

    /** The same admission, moving `image` into the cache. */
    void admitKeyed(diffusion::Image &&image,
                    const embedding::Embedding &key, double now);

    /** What this scheduler's cache keys an admitted miss by. */
    CacheKeying keying() const;

    /**
     * admissionKey for a warm generation (a miss) keyed off this
     * scheduler's thread: `key`, computed as keying() says with copies
     * of this scheduler's encoders (its textEncoder(), or an image
     * tower built from ServingConfig::imageEncoder), or null without a
     * cache. Counts MoDM's image encode, as admissionKey does.
     */
    const embedding::Embedding *warmKey(const embedding::Embedding &key);

    /**
     * Admit a finished generation to this scheduler's own cache per
     * the system's admission policy: admissionKey, then admitKeyed.
     */
    void admitGenerated(const diffusion::Image &image,
                        const embedding::Embedding &text_embedding,
                        bool from_miss, double now);

    /** The image cache (null for Vanilla and StandaloneSmall). */
    cache::ImageCache *imageCache() { return cache_.get(); }

    /** Const image-cache access. */
    const cache::ImageCache *imageCache() const { return cache_.get(); }

    /**
     * Bytes the cache is charged: the cached images' bytes for MoDM,
     * kLatentSetBytes per entry for Nirvana and Pinecone; 0 without a
     * cache.
     */
    double cacheBytes() const;

    /** Text tower. */
    const embedding::TextEncoder &textEncoder() const { return text_; }

    /** Counters. */
    const SchedulerStats &stats() const { return stats_; }

    /**
     * Ages (seconds between retrieval and the retrieved image's
     * creation) of every cache hit — the Fig. 15 temporal-locality
     * data.
     */
    const std::vector<double> &hitAges() const { return hitAges_; }

    /**
     * Drop all cached content: a killed node's shard dies with it, so
     * a rejoin starts cold. Aggregate counters survive — they are run
     * telemetry, not cache state.
     */
    void clearCaches();

  private:
    SystemKind kind_;
    embedding::TextEncoder text_;
    KDecision kDecision_;
    AdmissionPolicy admission_;
    std::unique_ptr<cache::ImageCache> cache_;
    SchedulerStats stats_;
    std::vector<double> hitAges_;
};

} // namespace modm::serving

#endif // MODM_SERVING_SCHEDULER_HH
