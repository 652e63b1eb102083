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
    switch (kind_) {
      case SystemKind::MoDM:
        imageCache_ = std::make_unique<cache::ImageCache>(
            config.cacheCapacity, config.cachePolicy,
            config.imageEncoder, config.seed ^ 0xcac4e5ULL);
        break;
      case SystemKind::Pinecone: {
        // Pinecone serves the image cached under the most *textually*
        // similar prompt; the text-keyed cache structure is shared
        // with Nirvana (single threshold, no k table).
        cache::NirvanaThresholds thresholds;
        thresholds.hitThreshold = kPineconeThreshold;
        thresholds.similarityFloors = {kPineconeThreshold};
        thresholds.kValues = {0};
        latentCache_ = std::make_unique<cache::LatentCache>(
            config.cacheCapacity, config.largeModel.name, thresholds,
            config.seed ^ 0xcac4e5ULL);
        break;
      }
      case SystemKind::Nirvana:
        latentCache_ = std::make_unique<cache::LatentCache>(
            config.latentCacheCapacity, config.largeModel.name,
            cache::NirvanaThresholds{}, config.seed ^ 0xcac4e5ULL);
        break;
      case SystemKind::Vanilla:
      case SystemKind::StandaloneSmall:
        break;
    }
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

    switch (kind_) {
      case SystemKind::Vanilla:
      case SystemKind::StandaloneSmall:
        break; // always a miss; full generation

      case SystemKind::MoDM: {
        const auto result = imageCache_->retrieve(job.textEmbedding);
        if (result.found && kDecision_.isHit(result.similarity)) {
            job.hit = true;
            job.similarity = result.similarity;
            job.k = kDecision_.decide(result.similarity);
            job.base = imageCache_->entry(result.entryId).image;
            imageCache_->recordHit(result.entryId, now);
            hitAges_.push_back(now - job.base.createdAt);
            ++stats_.kCounts[job.k];
        }
        break;
      }

      case SystemKind::Pinecone: {
        const auto hit = latentCache_->retrieve(job.textEmbedding);
        if (hit.found) {
            job.hit = true;
            job.direct = true;
            job.similarity = hit.similarity;
            job.base = latentCache_->entry(hit.entryId).image;
            latentCache_->recordHit(hit.entryId);
            hitAges_.push_back(now - job.base.createdAt);
            ++stats_.directReturns;
        }
        break;
      }

      case SystemKind::Nirvana: {
        const auto hit = latentCache_->retrieve(job.textEmbedding);
        if (hit.found) {
            job.hit = true;
            job.similarity = hit.similarity;
            job.k = hit.k;
            job.base = latentCache_->entry(hit.entryId).image;
            latentCache_->recordHit(hit.entryId);
            hitAges_.push_back(now - job.base.createdAt);
            ++stats_.kCounts[job.k];
        }
        break;
      }
    }

    if (job.hit)
        ++stats_.hits;
    else
        ++stats_.misses;
    return job;
}

const embedding::FlatIndex *
RequestScheduler::retrievalIndex() const
{
    if (imageCache_)
        return &imageCache_->index();
    if (latentCache_)
        return &latentCache_->index();
    return nullptr;
}

void
RequestScheduler::clearCaches()
{
    if (imageCache_)
        imageCache_->clear();
    if (latentCache_)
        latentCache_->clear();
}

void
RequestScheduler::reserveCache(std::size_t expected)
{
    if (imageCache_)
        imageCache_->reserve(expected);
    if (latentCache_)
        latentCache_->reserve(expected);
}

void
RequestScheduler::setCacheCapacity(std::size_t capacity)
{
    if (imageCache_)
        imageCache_->setCapacity(capacity);
    if (latentCache_)
        latentCache_->setCapacity(capacity);
}

void
RequestScheduler::admitGenerated(const diffusion::Image &image,
                                 const embedding::Embedding &text_embedding,
                                 bool from_miss, double now)
{
    switch (kind_) {
      case SystemKind::MoDM:
        if (admission_ == AdmissionPolicy::CacheAll || from_miss)
            imageCache_->insert(image, now);
        break;
      case SystemKind::Pinecone:
        // Retrieval-only serving caches the images it generates,
        // keyed by the producing prompt's text embedding.
        if (from_miss)
            latentCache_->insert(image, text_embedding, now);
        break;
      case SystemKind::Nirvana:
        // Latents exist only for full large-model generations.
        if (from_miss)
            latentCache_->insert(image, text_embedding, now);
        break;
      case SystemKind::Vanilla:
      case SystemKind::StandaloneSmall:
        break;
    }
}

} // namespace modm::serving
