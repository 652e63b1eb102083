/**
 * @file
 * Nirvana-style latent cache (the paper's primary caching baseline,
 * §2.2).
 *
 * Nirvana stores *intermediate latent representations* of previous
 * generations at several de-noising depths, retrieves by text-to-text
 * similarity between prompt embeddings, and skips the first k steps of
 * the large model. Consequences the paper calls out, all modelled here:
 *
 *  - storage is ~2.5 MB per image (multiple latents) vs 1.4 MB for a
 *    final image;
 *  - latents are model-specific: entries record the producing model and
 *    retrieval rejects mismatched models (cache fragmentation);
 *  - text-to-text retrieval has no visual grounding, so thresholds are
 *    high (0.65-0.95 band) and selected k values are conservative,
 *    capping the end-to-end saving near 20 %.
 */

#ifndef MODM_CACHE_LATENT_CACHE_HH
#define MODM_CACHE_LATENT_CACHE_HH

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.hh"
#include "src/diffusion/image.hh"
#include "src/embedding/encoder.hh"
#include "src/embedding/index.hh"

namespace modm::cache {

/** Bytes of one multi-k latent set (paper §3.1: ~2.5 MB per image). */
constexpr double kLatentSetBytes = 2.5e6;

/** Nirvana text-to-text threshold -> k mapping. */
struct NirvanaThresholds
{
    /** Minimum text-to-text similarity for any hit. */
    double hitThreshold = 0.82;
    /**
     * Similarity floors for increasing k, parallel to kValues. The
     * highest floor not exceeding the observed similarity decides k.
     * Conservative: text-to-text similarity has no visual grounding,
     * so Nirvana cannot risk large skips (the root of its ~20 % cap).
     */
    std::vector<double> similarityFloors = {0.82, 0.90, 0.96};
    /** k values available in the cached latent sets. */
    std::vector<int> kValues = {5, 10, 15};
};

/** One cached latent set. */
struct LatentEntry
{
    /** Final image of the generation whose latents are cached. */
    diffusion::Image image;
    /** Producing model; latents are unusable by other models. */
    std::string modelName;
    double insertTime = 0.0;
    std::uint64_t hits = 0;
};

/** Result of a latent-cache lookup. */
struct LatentHit
{
    bool found = false;
    std::uint64_t entryId = 0;
    /** Text-to-text similarity of the match. */
    double similarity = -1.0;
    /** De-noising steps to skip, per the threshold mapping. */
    int k = 0;
};

/**
 * Fixed-capacity latent cache with utility eviction (Nirvana's policy),
 * keyed by prompt text embeddings.
 */
class LatentCache
{
  public:
    /**
     * @param capacity Maximum number of cached latent sets.
     * @param model_name The single model this cache serves.
     * @param thresholds Similarity -> k mapping.
     * @param seed Seed for sampled utility eviction.
     */
    LatentCache(std::size_t capacity, std::string model_name,
                NirvanaThresholds thresholds = {},
                std::uint64_t seed = 1);

    /**
     * Pre-size the entry map and retrieval index for `expected`
     * entries (clamped to capacity); used before warm-up bulk loads.
     */
    void reserve(std::size_t expected);

    /**
     * Cache the latents of a finished generation. Images from other
     * models are rejected (model dependence) and counted.
     */
    void insert(const diffusion::Image &image,
                const embedding::Embedding &text_embedding, double now);

    /**
     * Look up by the *text* embedding of a new prompt; applies the hit
     * threshold and decides k.
     */
    LatentHit retrieve(const embedding::Embedding &query_text) const;

    /** Record a used hit (utility bookkeeping). */
    void recordHit(std::uint64_t entry_id);

    /** Entry access; panics when absent. */
    const LatentEntry &entry(std::uint64_t entry_id) const;

    /** Number of cached latent sets. */
    std::size_t size() const { return entries_.size(); }

    /** Capacity. */
    std::size_t capacity() const { return capacity_; }

    /**
     * Change the capacity mid-run (scripted knob change). Shrinking
     * evicts down to the new bound; growing just raises it.
     */
    void setCapacity(std::size_t capacity);

    /** Bytes stored (latentSetBytes per entry). */
    double storedBytes() const { return storedBytes_; }

    /** Number of inserts rejected due to model mismatch. */
    std::uint64_t rejectedInserts() const { return rejectedInserts_; }

    /**
     * Slots held by the insertion-order deque, live + stale; bounded
     * at roughly twice the live entry count by compaction (exposed so
     * tests can pin the bound).
     */
    std::size_t orderSlots() const { return order_.size(); }

    /** Times the insertion-order deque was compacted. */
    std::uint64_t orderCompactions() const { return orderCompactions_; }

    /** The flat retrieval index. */
    const embedding::FlatIndex &index() const { return index_; }

    /** Remove everything (node restart); counters are kept. */
    void clear();

  private:
    void evictOne();
    /** Drop stale order slots once they outnumber live ones. */
    void compactOrder();

    std::size_t capacity_;
    std::string modelName_;
    NirvanaThresholds thresholds_;
    mutable Rng rng_;

    std::unordered_map<std::uint64_t, LatentEntry> entries_;
    embedding::FlatIndex index_;
    std::deque<std::uint64_t> order_;
    std::size_t staleOrder_ = 0; // order_ ids no longer in entries_
    std::uint64_t orderCompactions_ = 0;
    double storedBytes_ = 0.0;
    std::uint64_t rejectedInserts_ = 0;
};

} // namespace modm::cache

#endif // MODM_CACHE_LATENT_CACHE_HH
