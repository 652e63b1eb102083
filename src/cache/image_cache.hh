/**
 * @file
 * The final-image cache every cached system runs (paper §3.1, §5.4).
 *
 * The cache stores *final generated images* — the model-agnostic design
 * that lets any diffusion model family consume cached content — under
 * one of two keyings:
 *  - MoDM keys each image by its CLIP image embedding and retrieves by
 *    text-to-image cosine similarity (paper Eq. 1);
 *  - Nirvana and Pinecone key each image by the text embedding of the
 *    prompt that produced it and retrieve by text-to-text similarity.
 * Either way retrieval is an exact flat scan over the keys.
 *
 * Eviction policies:
 *  - FIFO: the paper's choice — a sliding window over recent generations,
 *    justified by the strong temporal locality of production traffic
 *    (>90 % of hits retrieve images generated within 4 h, Fig. 15) and
 *    by the diversity benefit of automatically expiring popular items.
 *  - LRU and Utility: provided for the cache-policy ablation. Utility
 *    eviction uses sampled eviction (candidate sampling, as production
 *    caches do) to stay O(1)-ish per insert.
 *  - LeastHit: Utility's sampled eviction on hit counts alone, the
 *    policy of the text-keyed caches (Nirvana keeps high-utility
 *    entries).
 */

#ifndef MODM_CACHE_IMAGE_CACHE_HH
#define MODM_CACHE_IMAGE_CACHE_HH

#include <cstdint>
#include <deque>
#include <list>
#include <unordered_map>

#include "src/common/rng.hh"
#include "src/diffusion/image.hh"
#include "src/embedding/encoder.hh"
#include "src/embedding/index.hh"

namespace modm::cache {

/** Cache eviction policy. */
enum class EvictionPolicy
{
    FIFO,     ///< sliding window (the paper's choice)
    LRU,      ///< least-recently-hit
    Utility,  ///< keep frequently-hit items, mildly weighted by recency
    LeastHit, ///< sampled lowest hit count (the text-keyed caches)
};

/** Printable policy name. */
const char *policyName(EvictionPolicy policy);

/** Result of a best-match lookup. */
struct RetrievalResult
{
    /** True when the cache is non-empty and a best match exists. */
    bool found = false;
    /** Best-match entry id. */
    std::uint64_t entryId = 0;
    /** Cosine similarity of the best match. */
    double similarity = -1.0;
};

/** One cached image plus retrieval metadata. */
struct CacheEntry
{
    diffusion::Image image;
    double lastHitTime = 0.0;
    std::uint64_t hits = 0;
};

/** Aggregate cache statistics. */
struct ImageCacheStats
{
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t lookups = 0;
    std::uint64_t hitsRecorded = 0;
    /** Times the FIFO deque was compacted to drop stale slots. */
    std::uint64_t fifoCompactions = 0;
    /** Image-tower encodes run to key images (imageKey calls). */
    std::uint64_t encodes = 0;
};

/** Fixed-capacity image cache with embedding-keyed retrieval. */
class ImageCache
{
  public:
    /**
     * @param capacity Maximum number of cached images.
     * @param policy Eviction policy.
     * @param encoder_config Image-tower configuration for keying
     *        images inserted without a key.
     * @param seed Seed for sampled (Utility, LeastHit) eviction.
     */
    ImageCache(std::size_t capacity, EvictionPolicy policy,
               embedding::ImageEncoderConfig encoder_config = {},
               std::uint64_t seed = 1);

    /**
     * Pre-size the entry map, retrieval index, and (under LRU) the
     * recency bookkeeping for `expected` entries (clamped to
     * capacity). Called before warm-up so bulk insertion pays neither
     * repeated embedding-row reallocation nor hash rehashing.
     */
    void reserve(std::size_t expected);

    /**
     * The key insert(image, now) files `image` under: its image-tower
     * embedding. Every cache built from one ImageEncoderConfig computes
     * the same key bit for bit, so a generation admitted to several
     * shards needs one encode, not one per shard.
     */
    embedding::Embedding imageKey(const diffusion::Image &image);

    /**
     * Insert an image at simulated time `now`, keyed by
     * imageKey(image), evicting per policy when full.
     */
    void insert(const diffusion::Image &image, double now);

    /**
     * Insert an image under a caller-supplied key: an imageKey computed
     * once for every replica, or a prompt's text embedding.
     */
    void insert(const diffusion::Image &image,
                const embedding::Embedding &key, double now);

    /** Best match for a query embedding (no threshold applied). */
    RetrievalResult retrieve(const embedding::Embedding &query) const;

    /**
     * Record that a retrieval was used (affects LRU, Utility and
     * LeastHit ordering).
     */
    void recordHit(std::uint64_t entry_id, double now);

    /** Entry access; panics when absent. */
    const CacheEntry &entry(std::uint64_t entry_id) const;

    /** True when the id is cached. */
    bool contains(std::uint64_t entry_id) const;

    /** Number of cached images. */
    std::size_t size() const { return entries_.size(); }

    /** Capacity. */
    std::size_t capacity() const { return capacity_; }

    /**
     * Change the capacity mid-run (scripted knob change). Shrinking
     * evicts down to the new bound under the active eviction policy;
     * growing just raises the bound.
     */
    void setCapacity(std::size_t capacity);

    /** Total bytes of cached images (their byteSize). */
    double storedBytes() const { return storedBytes_; }

    /** Statistics. */
    ImageCacheStats stats() const;

    /** The flat retrieval index. */
    const embedding::FlatIndex &index() const { return index_; }

    /**
     * Slots currently held by the FIFO deque, live + stale. Bounded at
     * roughly twice the live entry count by opportunistic compaction
     * (exposed so tests can pin the bound).
     */
    std::size_t fifoSlots() const { return fifo_.size(); }

    /** Remove everything. */
    void clear();

  private:
    void evictOne();
    std::uint64_t pickUtilityVictim();
    void erase(std::uint64_t id);
    /** Drop stale fifo slots once they outnumber live ones. */
    void compactFifo();

    std::size_t capacity_;
    EvictionPolicy policy_;
    embedding::ImageEncoder encoder_;
    mutable Rng rng_;

    std::unordered_map<std::uint64_t, CacheEntry> entries_;
    embedding::FlatIndex index_;
    mutable std::uint64_t lookups_ = 0;       // retrieve() calls
    std::deque<std::uint64_t> fifo_;          // FIFO order
    // Recency order, kept only under EvictionPolicy::LRU (the one
    // policy that reads it): a list node plus a map node per entry.
    std::list<std::uint64_t> lruOrder_;       // front = least recent
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
        lruPos_;
    std::size_t staleFifo_ = 0; // fifo_ ids no longer in entries_
    double storedBytes_ = 0.0;
    ImageCacheStats stats_;
};

} // namespace modm::cache

#endif // MODM_CACHE_IMAGE_CACHE_HH
