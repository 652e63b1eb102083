#include "src/serving/scheduler.hh"

#include "src/common/log.hh"

namespace modm::serving {

const char *
systemKindName(SystemKind kind)
{
    switch (kind) {
      case SystemKind::MoDM:
        return "MoDM";
      case SystemKind::Vanilla:
        return "Vanilla";
      case SystemKind::Nirvana:
        return "Nirvana";
      case SystemKind::Pinecone:
        return "Pinecone";
      case SystemKind::StandaloneSmall:
        return "StandaloneSmall";
    }
    panic("unknown SystemKind");
}

const char *
cachePartitioningName(CachePartitioning partitioning)
{
    switch (partitioning) {
      case CachePartitioning::Sharded:
        return "sharded";
      case CachePartitioning::Replicated:
        return "replicated";
    }
    panic("unknown CachePartitioning");
}

RequestScheduler::RequestScheduler(const ServingConfig &config)
    : kind_(config.kind), kDecision_(config.kDecision),
      admission_(config.admission)
{
    // MoDM keys its cache by image embedding under the configured
    // policy; Nirvana and Pinecone key theirs by prompt text embedding
    // and evict their least-hit entries. Pinecone's one-floor table
    // grants k = 0: its hits return the cached image unrefined.
    std::size_t capacity = config.cacheCapacity;
    cache::EvictionPolicy policy = cache::EvictionPolicy::LeastHit;
    switch (kind_) {
      case SystemKind::MoDM:
        policy = config.cachePolicy;
        break;
      case SystemKind::Nirvana:
        capacity = config.latentCacheCapacity;
        kDecision_ = KDecision(kNirvanaKDecision);
        break;
      case SystemKind::Pinecone:
        kDecision_ = KDecision({{kPineconeThreshold}, {0}});
        break;
      case SystemKind::Vanilla:
      case SystemKind::StandaloneSmall:
        return; // no cache: every request is a full generation
    }
    cache_ = std::make_unique<cache::ImageCache>(
        capacity, policy, config.imageEncoder, config.seed ^ 0xcac4e5ULL);
}

ClassifiedJob
RequestScheduler::classify(const workload::Request &request, double now)
{
    ClassifiedJob job;
    job.request = &request;
    job.classifiedAt = now;
    job.textEmbedding = text_.encode(request.prompt.visualConcept,
                                     request.prompt.lexicalStyle,
                                     request.prompt.text);
    ++stats_.classified;

    const auto result = cache_ ? cache_->retrieve(job.textEmbedding)
                               : cache::RetrievalResult{};
    if (result.found && kDecision_.isHit(result.similarity)) {
        job.hit = true;
        job.direct = kind_ == SystemKind::Pinecone;
        job.similarity = result.similarity;
        job.k = kDecision_.decide(result.similarity);
        job.base = cache_->entry(result.entryId).image;
        cache_->recordHit(result.entryId, now);
        hitAges_.push_back(now - job.base.createdAt);
        if (job.direct)
            ++stats_.directReturns;
        else
            ++stats_.kCounts[job.k];
    }

    if (job.hit)
        ++stats_.hits;
    else
        ++stats_.misses;
    return job;
}

double
RequestScheduler::cacheBytes() const
{
    if (!cache_)
        return 0.0;
    if (kind_ == SystemKind::MoDM)
        return cache_->storedBytes();
    return static_cast<double>(cache_->size()) * kLatentSetBytes;
}

void
RequestScheduler::clearCaches()
{
    if (cache_)
        cache_->clear();
}

void
RequestScheduler::reserveCache(std::size_t expected)
{
    if (cache_)
        cache_->reserve(expected);
}

void
RequestScheduler::setCacheCapacity(std::size_t capacity)
{
    if (cache_)
        cache_->setCapacity(capacity);
}

const embedding::Embedding *
RequestScheduler::admissionKey(const diffusion::Image &image,
                               const embedding::Embedding &text_embedding,
                               bool from_miss,
                               embedding::Embedding &image_key)
{
    if (!cache_)
        return nullptr;
    if (kind_ != SystemKind::MoDM) {
        // Text-keyed caches admit misses only: full generations of the
        // large model, the one model whose latents Nirvana can reuse.
        return from_miss ? &text_embedding : nullptr;
    }
    if (admission_ != AdmissionPolicy::CacheAll && !from_miss)
        return nullptr;
    image_key = cache_->imageKey(image);
    return &image_key;
}

void
RequestScheduler::admitKeyed(const diffusion::Image &image,
                             const embedding::Embedding &key, double now)
{
    MODM_ASSERT(cache_ != nullptr, "keyed admission without a cache");
    cache_->insert(image, key, now);
}

void
RequestScheduler::admitKeyed(diffusion::Image &&image,
                             const embedding::Embedding &key, double now)
{
    MODM_ASSERT(cache_ != nullptr, "keyed admission without a cache");
    cache_->insert(std::move(image), key, now);
}

CacheKeying
RequestScheduler::keying() const
{
    if (!cache_)
        return CacheKeying::None;
    return kind_ == SystemKind::MoDM ? CacheKeying::Image
                                     : CacheKeying::Text;
}

const embedding::Embedding *
RequestScheduler::warmKey(const embedding::Embedding &key)
{
    switch (keying()) {
      case CacheKeying::None:
        return nullptr;
      case CacheKeying::Image:
        cache_->countEncode();
        break;
      case CacheKeying::Text:
        break;
    }
    return &key;
}

void
RequestScheduler::admitGenerated(const diffusion::Image &image,
                                 const embedding::Embedding &text_embedding,
                                 bool from_miss, double now)
{
    embedding::Embedding imageKey;
    if (const auto *key =
            admissionKey(image, text_embedding, from_miss, imageKey))
        admitKeyed(image, *key, now);
}

} // namespace modm::serving
