#include "src/cache/latent_cache.hh"

#include <algorithm>

#include "src/common/log.hh"

namespace modm::cache {

LatentCache::LatentCache(std::size_t capacity, std::string model_name,
                         NirvanaThresholds thresholds, std::uint64_t seed)
    : capacity_(capacity), modelName_(std::move(model_name)),
      thresholds_(std::move(thresholds)), rng_(seed),
      index_(embedding::kEmbeddingDim)
{
    MODM_ASSERT(capacity_ > 0, "latent cache capacity must be positive");
    MODM_ASSERT(thresholds_.similarityFloors.size() ==
                thresholds_.kValues.size(),
                "threshold floors and k values must align");
    MODM_ASSERT(std::is_sorted(thresholds_.similarityFloors.begin(),
                               thresholds_.similarityFloors.end()),
                "similarity floors must be ascending");
}

void
LatentCache::reserve(std::size_t expected)
{
    const std::size_t n = std::min(expected, capacity_);
    entries_.reserve(n);
    index_.reserve(n);
}

void
LatentCache::insert(const diffusion::Image &image,
                    const embedding::Embedding &text_embedding, double now)
{
    if (image.modelName != modelName_) {
        // Latents are model-specific: content from other models cannot
        // populate this cache (the fragmentation MoDM avoids).
        ++rejectedInserts_;
        return;
    }
    MODM_ASSERT(!entries_.count(image.id),
                "duplicate latent insert for image %llu",
                static_cast<unsigned long long>(image.id));
    while (entries_.size() >= capacity_)
        evictOne();

    LatentEntry entry;
    entry.image = image;
    entry.modelName = image.modelName;
    entry.insertTime = now;

    index_.insert(image.id, text_embedding);
    order_.push_back(image.id);
    storedBytes_ += kLatentSetBytes;
    entries_.emplace(image.id, std::move(entry));
}

LatentHit
LatentCache::retrieve(const embedding::Embedding &query_text) const
{
    LatentHit hit;
    if (index_.empty())
        return hit;
    const auto match = index_.best(query_text);
    if (match.similarity < thresholds_.hitThreshold)
        return hit;
    hit.found = true;
    hit.entryId = match.id;
    hit.similarity = match.similarity;
    hit.k = thresholds_.kValues.front();
    for (std::size_t i = 0; i < thresholds_.similarityFloors.size(); ++i) {
        if (match.similarity >= thresholds_.similarityFloors[i])
            hit.k = thresholds_.kValues[i];
    }
    return hit;
}

void
LatentCache::recordHit(std::uint64_t entry_id)
{
    auto it = entries_.find(entry_id);
    MODM_ASSERT(it != entries_.end(), "recordHit on absent latent entry");
    ++it->second.hits;
}

const LatentEntry &
LatentCache::entry(std::uint64_t entry_id) const
{
    const auto it = entries_.find(entry_id);
    MODM_ASSERT(it != entries_.end(), "latent entry() on absent id");
    return it->second;
}

void
LatentCache::setCapacity(std::size_t capacity)
{
    MODM_ASSERT(capacity > 0, "cache capacity must be positive");
    capacity_ = capacity;
    while (entries_.size() > capacity_)
        evictOne();
}

void
LatentCache::evictOne()
{
    // Nirvana keeps high-utility latents: sampled eviction of the
    // lowest-hit entry.
    constexpr std::size_t kSample = 24;
    MODM_ASSERT(!order_.empty(), "latent evict on empty cache");
    std::uint64_t victim = 0;
    std::uint64_t worst = 0;
    bool first = true;
    for (std::size_t i = 0; i < kSample; ++i) {
        const std::uint64_t id = order_[rng_.uniformInt(order_.size())];
        const auto it = entries_.find(id);
        if (it == entries_.end())
            continue;
        if (first || it->second.hits < worst) {
            worst = it->second.hits;
            victim = id;
            first = false;
        }
    }
    if (first) {
        while (!order_.empty() && !entries_.count(order_.front())) {
            order_.pop_front();
            --staleOrder_;
        }
        MODM_ASSERT(!order_.empty(), "latent cache bookkeeping out of sync");
        victim = order_.front();
    }
    const auto it = entries_.find(victim);
    MODM_ASSERT(it != entries_.end(), "latent victim vanished");
    index_.remove(victim);
    storedBytes_ -= kLatentSetBytes;
    entries_.erase(it);
    if (!order_.empty() && order_.front() == victim)
        order_.pop_front();
    else
        ++staleOrder_;
    compactOrder();
}

void
LatentCache::compactOrder()
{
    // Same lazy-deletion bound as ImageCache::compactFifo: rebuild the
    // insertion-order deque once stale slots outnumber live ones, so
    // utility eviction cannot grow order_ without bound on long
    // traces. Each O(order) rebuild follows at least order/2 mid-deque
    // erases — O(1) amortized.
    if (staleOrder_ * 2 <= order_.size() || order_.empty())
        return;
    std::deque<std::uint64_t> live;
    for (const std::uint64_t id : order_) {
        if (entries_.count(id))
            live.push_back(id);
    }
    order_.swap(live);
    staleOrder_ = 0;
    ++orderCompactions_;
}

void
LatentCache::clear()
{
    entries_.clear();
    index_.clear();
    order_.clear();
    staleOrder_ = 0;
    storedBytes_ = 0.0;
}

} // namespace modm::cache
