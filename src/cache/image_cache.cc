#include "src/cache/image_cache.hh"

#include <algorithm>

#include "src/common/log.hh"

namespace modm::cache {

const char *
policyName(EvictionPolicy policy)
{
    switch (policy) {
      case EvictionPolicy::FIFO:
        return "FIFO";
      case EvictionPolicy::LRU:
        return "LRU";
      case EvictionPolicy::Utility:
        return "Utility";
      case EvictionPolicy::LeastHit:
        return "LeastHit";
    }
    panic("unknown EvictionPolicy");
}

ImageCache::ImageCache(std::size_t capacity, EvictionPolicy policy,
                       embedding::ImageEncoderConfig encoder_config,
                       std::uint64_t seed)
    : capacity_(capacity), policy_(policy), encoder_(encoder_config),
      rng_(seed), index_(encoder_config.dim)
{
    MODM_ASSERT(capacity_ > 0, "cache capacity must be positive");
}

void
ImageCache::reserve(std::size_t expected)
{
    const std::size_t n = std::min(expected, capacity_);
    entries_.reserve(n);
    if (policy_ == EvictionPolicy::LRU)
        lruPos_.reserve(n);
    index_.reserve(n);
}

embedding::Embedding
ImageCache::imageKey(const diffusion::Image &image)
{
    ++stats_.encodes;
    return encoder_.encode(image.content, image.fidelity, image.id);
}

void
ImageCache::insert(const diffusion::Image &image, double now)
{
    insert(image, imageKey(image), now);
}

void
ImageCache::insert(const diffusion::Image &image,
                   const embedding::Embedding &key, double now)
{
    MODM_ASSERT(!entries_.count(image.id),
                "duplicate cache insert for image %llu",
                static_cast<unsigned long long>(image.id));
    while (entries_.size() >= capacity_)
        evictOne();

    CacheEntry entry;
    entry.image = image;
    entry.lastHitTime = now;

    index_.insert(image.id, key);
    fifo_.push_back(image.id);
    if (policy_ == EvictionPolicy::LRU) {
        lruOrder_.push_back(image.id);
        lruPos_[image.id] = std::prev(lruOrder_.end());
    }
    storedBytes_ += image.byteSize;
    entries_.emplace(image.id, std::move(entry));
    ++stats_.insertions;
}

RetrievalResult
ImageCache::retrieve(const embedding::Embedding &query) const
{
    ++lookups_;
    RetrievalResult result;
    if (index_.empty())
        return result;
    const auto match = index_.best(query);
    result.found = true;
    result.entryId = match.id;
    result.similarity = match.similarity;
    return result;
}

ImageCacheStats
ImageCache::stats() const
{
    ImageCacheStats stats = stats_;
    stats.lookups = lookups_;
    return stats;
}

void
ImageCache::recordHit(std::uint64_t entry_id, double now)
{
    auto it = entries_.find(entry_id);
    MODM_ASSERT(it != entries_.end(), "recordHit on absent entry");
    ++it->second.hits;
    it->second.lastHitTime = now;
    ++stats_.hitsRecorded;
    if (policy_ != EvictionPolicy::LRU)
        return;
    // Move to most-recently-used position.
    auto pos = lruPos_.find(entry_id);
    MODM_ASSERT(pos != lruPos_.end(), "LRU bookkeeping out of sync");
    lruOrder_.splice(lruOrder_.end(), lruOrder_, pos->second);
    pos->second = std::prev(lruOrder_.end());
}

const CacheEntry &
ImageCache::entry(std::uint64_t entry_id) const
{
    const auto it = entries_.find(entry_id);
    MODM_ASSERT(it != entries_.end(), "entry() on absent id %llu",
                static_cast<unsigned long long>(entry_id));
    return it->second;
}

bool
ImageCache::contains(std::uint64_t entry_id) const
{
    return entries_.count(entry_id) > 0;
}

std::uint64_t
ImageCache::pickUtilityVictim()
{
    // Sampled eviction: examine a bounded number of random candidates
    // and evict the one with the lowest utility (hit count, with mild
    // recency weighting under Utility). Keeps eviction O(sample) like
    // production caches (e.g. Redis' approximated LFU).
    constexpr std::size_t kSample = 24;
    MODM_ASSERT(!fifo_.empty(), "utility eviction on empty cache");
    std::uint64_t victim = 0;
    double worst = 0.0;
    bool first = true;
    for (std::size_t i = 0; i < kSample; ++i) {
        const std::uint64_t id = fifo_[rng_.uniformInt(fifo_.size())];
        const auto it = entries_.find(id);
        if (it == entries_.end())
            continue; // stale fifo slot (already evicted)
        const CacheEntry &e = it->second;
        double utility = static_cast<double>(e.hits);
        if (policy_ == EvictionPolicy::Utility)
            utility += 0.001 * e.lastHitTime;
        if (first || utility < worst) {
            worst = utility;
            victim = id;
            first = false;
        }
    }
    if (first) {
        // All sampled slots were stale: fall back to FIFO head.
        for (std::uint64_t id : fifo_) {
            if (entries_.count(id))
                return id;
        }
        panic("utility eviction found no live entries");
    }
    return victim;
}

void
ImageCache::setCapacity(std::size_t capacity)
{
    MODM_ASSERT(capacity > 0, "cache capacity must be positive");
    capacity_ = capacity;
    while (entries_.size() > capacity_)
        evictOne();
}

void
ImageCache::evictOne()
{
    MODM_ASSERT(!entries_.empty(), "evict on empty cache");
    std::uint64_t victim = 0;
    switch (policy_) {
      case EvictionPolicy::FIFO:
        while (!fifo_.empty() && !entries_.count(fifo_.front())) {
            fifo_.pop_front();
            --staleFifo_;
        }
        MODM_ASSERT(!fifo_.empty(), "FIFO bookkeeping out of sync");
        victim = fifo_.front();
        break;
      case EvictionPolicy::LRU:
        MODM_ASSERT(!lruOrder_.empty(), "LRU bookkeeping out of sync");
        victim = lruOrder_.front();
        break;
      case EvictionPolicy::Utility:
      case EvictionPolicy::LeastHit:
        victim = pickUtilityVictim();
        break;
    }
    erase(victim);
    ++stats_.evictions;
}

void
ImageCache::erase(std::uint64_t id)
{
    const auto it = entries_.find(id);
    MODM_ASSERT(it != entries_.end(), "erase of absent entry");
    storedBytes_ -= it->second.image.byteSize;
    index_.remove(id);
    if (policy_ == EvictionPolicy::LRU) {
        const auto pos = lruPos_.find(id);
        MODM_ASSERT(pos != lruPos_.end(), "LRU bookkeeping out of sync");
        lruOrder_.erase(pos->second);
        lruPos_.erase(pos);
    }
    if (!fifo_.empty() && fifo_.front() == id) {
        fifo_.pop_front();
        // The erased front may expose stale slots behind it.
        while (!fifo_.empty() && !entries_.count(fifo_.front())) {
            fifo_.pop_front();
            --staleFifo_;
        }
    } else {
        // Mid-deque erase (LRU, Utility and LeastHit victims): leave
        // the stale id in fifo_ — eviction paths skip absent ids, and
        // compactFifo() keeps the stale population bounded. Lazy
        // deletion keeps erase O(1) amortized.
        ++staleFifo_;
    }
    entries_.erase(it);
    compactFifo();
}

void
ImageCache::compactFifo()
{
    // Compact once stale slots outnumber live ones: each rebuild is
    // O(fifo) but is triggered only after at least fifo/2 mid-deque
    // erases, so the amortized cost per erase is O(1) and fifo_ never
    // exceeds ~2x the live entry count — previously Utility (and LRU)
    // eviction leaked stale ids unboundedly on long traces.
    if (staleFifo_ * 2 <= fifo_.size() || fifo_.empty())
        return;
    std::deque<std::uint64_t> live;
    for (const std::uint64_t id : fifo_) {
        if (entries_.count(id))
            live.push_back(id);
    }
    fifo_.swap(live);
    staleFifo_ = 0;
    ++stats_.fifoCompactions;
}

void
ImageCache::clear()
{
    entries_.clear();
    index_.clear();
    fifo_.clear();
    lruOrder_.clear();
    lruPos_.clear();
    staleFifo_ = 0;
    storedBytes_ = 0.0;
}

} // namespace modm::cache
