/**
 * @file
 * Unit tests for the cache substrate: the image cache (insert, retrieve,
 * eviction policies, storage accounting), keyed by image embeddings as
 * MoDM runs it and by prompt text embeddings as Nirvana and Pinecone do
 * (text-to-text retrieval, threshold-mapped k).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <vector>

#include "src/cache/image_cache.hh"
#include "src/common/hash.hh"
#include "src/common/rng.hh"
#include "src/diffusion/sampler.hh"
#include "src/embedding/encoder.hh"
#include "src/serving/scheduler.hh"

namespace modm::cache {
namespace {

diffusion::Image
makeImage(std::uint64_t id, Rng &rng)
{
    diffusion::Image img;
    img.id = id;
    img.content = randomUnitVec(embedding::kEmbeddingDim, rng);
    img.fidelity = 0.95;
    img.modelName = "SD3.5L";
    img.byteSize = 1.4e6;
    return img;
}

TEST(ImageCache, InsertAndRetrieve)
{
    Rng rng(3);
    ImageCache cache(10, EvictionPolicy::FIFO);
    const auto img = makeImage(1, rng);
    cache.insert(img, 0.0);
    EXPECT_EQ(cache.size(), 1u);

    embedding::ImageEncoder enc;
    const auto query = enc.encode(img.content, img.fidelity, img.id);
    const auto result = cache.retrieve(query);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.entryId, 1u);
    EXPECT_GT(result.similarity, 0.95);
}

TEST(ImageCache, EmptyRetrieveFindsNothing)
{
    ImageCache cache(10, EvictionPolicy::FIFO);
    Rng rng(5);
    embedding::ImageEncoder enc;
    const auto query =
        enc.encode(randomUnitVec(embedding::kEmbeddingDim, rng), 1.0, 9);
    EXPECT_FALSE(cache.retrieve(query).found);
}

TEST(ImageCache, StatsCountEveryLookup)
{
    // stats().lookups counts retrieve() calls, misses on an empty cache
    // included, and survives clear() like the other counters.
    ImageCache cache(100, EvictionPolicy::FIFO);
    Rng rng(11);
    embedding::ImageEncoder enc;
    const auto query =
        enc.encode(randomUnitVec(embedding::kEmbeddingDim, rng), 1.0, 9);
    EXPECT_EQ(cache.stats().lookups, 0u);
    EXPECT_FALSE(cache.retrieve(query).found);
    EXPECT_EQ(cache.stats().lookups, 1u);
    for (std::uint64_t id = 1; id <= 40; ++id)
        cache.insert(makeImage(id, rng), 0.0);
    for (std::size_t q = 0; q < 50; ++q)
        EXPECT_TRUE(cache.retrieve(query).found);
    EXPECT_EQ(cache.stats().lookups, 51u);
    cache.clear();
    EXPECT_EQ(cache.stats().lookups, 51u);
}

TEST(ImageCache, FifoEvictsOldest)
{
    Rng rng(7);
    ImageCache cache(3, EvictionPolicy::FIFO);
    for (std::uint64_t i = 1; i <= 5; ++i)
        cache.insert(makeImage(i, rng), static_cast<double>(i));
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_FALSE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_TRUE(cache.contains(3));
    EXPECT_TRUE(cache.contains(5));
    EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(ImageCache, LruKeepsHotEntries)
{
    Rng rng(9);
    ImageCache cache(3, EvictionPolicy::LRU);
    cache.insert(makeImage(1, rng), 1.0);
    cache.insert(makeImage(2, rng), 2.0);
    cache.insert(makeImage(3, rng), 3.0);
    cache.recordHit(1, 4.0); // 1 is now most recent; 2 is LRU
    cache.insert(makeImage(4, rng), 5.0);
    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
}

TEST(ImageCache, UtilityKeepsFrequentlyHitEntries)
{
    Rng rng(11);
    ImageCache cache(20, EvictionPolicy::Utility);
    for (std::uint64_t i = 1; i <= 20; ++i)
        cache.insert(makeImage(i, rng), static_cast<double>(i));
    // Entry 5 is hit many times; sampled eviction should spare it.
    for (int hit = 0; hit < 50; ++hit)
        cache.recordHit(5, 100.0 + hit);
    for (std::uint64_t i = 21; i <= 35; ++i)
        cache.insert(makeImage(i, rng), 100.0 + i);
    EXPECT_TRUE(cache.contains(5));
}

TEST(ImageCache, StorageAccounting)
{
    Rng rng(13);
    ImageCache cache(2, EvictionPolicy::FIFO);
    cache.insert(makeImage(1, rng), 0.0);
    cache.insert(makeImage(2, rng), 0.0);
    EXPECT_DOUBLE_EQ(cache.storedBytes(), 2.8e6);
    cache.insert(makeImage(3, rng), 0.0); // evicts one
    EXPECT_DOUBLE_EQ(cache.storedBytes(), 2.8e6);
    cache.clear();
    EXPECT_DOUBLE_EQ(cache.storedBytes(), 0.0);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(ImageCache, RetrievalReturnsBestOfMany)
{
    Rng rng(17);
    ImageCache cache(100, EvictionPolicy::FIFO);
    std::vector<diffusion::Image> images;
    for (std::uint64_t i = 1; i <= 50; ++i) {
        images.push_back(makeImage(i, rng));
        cache.insert(images.back(), 0.0);
    }
    embedding::ImageEncoder enc;
    // Query very close to image 25's content.
    const Vec q = jitterUnitVec(images[24].content, 0.05, rng);
    const auto result = cache.retrieve(enc.encode(q, 1.0, 999999));
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.entryId, 25u);
}

TEST(ImageCache, HitBookkeeping)
{
    Rng rng(19);
    ImageCache cache(10, EvictionPolicy::FIFO);
    cache.insert(makeImage(1, rng), 0.0);
    cache.recordHit(1, 5.0);
    cache.recordHit(1, 6.0);
    EXPECT_EQ(cache.entry(1).hits, 2u);
    EXPECT_DOUBLE_EQ(cache.entry(1).lastHitTime, 6.0);
    EXPECT_EQ(cache.stats().hitsRecorded, 2u);
}

TEST(ImageCache, TextToTextRetrievalAndThresholds)
{
    // Nirvana's keying: entries under the producing prompt's text
    // embedding, hits gated and k chosen by its table.
    Rng rng(29);
    ImageCache cache(10, EvictionPolicy::LeastHit);
    const serving::KDecision kd(serving::kNirvanaKDecision);
    embedding::TextEncoder text;

    const Vec v = randomUnitVec(64, rng);
    const Vec l = randomUnitVec(64, rng);
    const auto stored = text.encode(v, l, "prompt one");
    cache.insert(makeImage(1, rng), stored, 0.0);

    // Nearly identical prompt: very high t2t similarity -> largest k.
    const auto sameQuery =
        text.encode(jitterUnitVec(v, 0.02, rng), l, "prompt one b");
    const auto hit = cache.retrieve(sameQuery);
    ASSERT_TRUE(hit.found);
    EXPECT_EQ(hit.entryId, 1u);
    EXPECT_GE(hit.similarity, 0.96);
    ASSERT_TRUE(kd.isHit(hit.similarity));
    EXPECT_EQ(kd.decide(hit.similarity), 15);

    // Unrelated prompt: below the 0.82 gate -> miss.
    const auto farQuery = text.encode(randomUnitVec(64, rng),
                                      randomUnitVec(64, rng), "other");
    const auto far = cache.retrieve(farQuery);
    ASSERT_TRUE(far.found);
    EXPECT_FALSE(kd.isHit(far.similarity));
}

TEST(ImageCache, LeastHitEvictionSparesHotEntries)
{
    Rng rng(37);
    ImageCache cache(20, EvictionPolicy::LeastHit);
    embedding::TextEncoder text;
    for (std::uint64_t i = 1; i <= 20; ++i) {
        const auto emb = text.encode(randomUnitVec(64, rng),
                                     randomUnitVec(64, rng), "p");
        cache.insert(makeImage(i, rng), emb, 0.0);
    }
    for (int hit = 0; hit < 50; ++hit)
        cache.recordHit(3, 0.0);
    for (std::uint64_t i = 21; i <= 32; ++i) {
        const auto emb = text.encode(randomUnitVec(64, rng),
                                     randomUnitVec(64, rng), "p");
        cache.insert(makeImage(i, rng), emb, 0.0);
    }
    EXPECT_EQ(cache.size(), 20u);
    EXPECT_TRUE(cache.contains(3));
}

/**
 * Parameterized eviction-policy sweep: every policy must respect
 * capacity, keep retrieval consistent, and account storage exactly.
 */
class PolicySweepTest
    : public ::testing::TestWithParam<EvictionPolicy>
{
};

TEST_P(PolicySweepTest, CapacityAndConsistencyUnderChurn)
{
    Rng rng(41);
    ImageCache cache(50, GetParam());
    embedding::ImageEncoder enc;
    for (std::uint64_t i = 1; i <= 500; ++i) {
        cache.insert(makeImage(i, rng), static_cast<double>(i));
        EXPECT_LE(cache.size(), 50u);
        if (i % 7 == 0) {
            const auto q = enc.encode(
                randomUnitVec(embedding::kEmbeddingDim, rng), 1.0,
                1000000 + i);
            const auto r = cache.retrieve(q);
            if (r.found) {
                EXPECT_TRUE(cache.contains(r.entryId));
                cache.recordHit(r.entryId, static_cast<double>(i));
            }
        }
    }
    EXPECT_EQ(cache.size(), 50u);
    EXPECT_DOUBLE_EQ(cache.storedBytes(), 50 * 1.4e6);
    EXPECT_EQ(cache.stats().insertions, 500u);
    EXPECT_EQ(cache.stats().evictions, 450u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicySweepTest,
    ::testing::Values(EvictionPolicy::FIFO, EvictionPolicy::LRU,
                      EvictionPolicy::Utility, EvictionPolicy::LeastHit),
    [](const auto &info) { return policyName(info.param); });

/**
 * Regression for the Utility-policy fifo leak: mid-deque evictions
 * used to leave stale ids in the FIFO deque forever, so long traces
 * grew it without bound. Opportunistic compaction must keep the slot
 * count within ~2x of the live entries at every step, under both
 * sampled policies.
 */
TEST(ImageCache, UtilityFifoSlotsStayBounded)
{
    for (const auto policy :
         {EvictionPolicy::Utility, EvictionPolicy::LeastHit}) {
        SCOPED_TRACE(policyName(policy));
        Rng rng(17);
        constexpr std::size_t kCapacity = 100;
        ImageCache cache(kCapacity, policy);
        embedding::ImageEncoder enc;
        for (std::uint64_t i = 1; i <= 5000; ++i) {
            cache.insert(makeImage(i, rng), static_cast<double>(i));
            if (i % 3 == 0) {
                const auto q = enc.encode(
                    randomUnitVec(embedding::kEmbeddingDim, rng), 1.0,
                    2000000 + i);
                const auto r = cache.retrieve(q);
                if (r.found)
                    cache.recordHit(r.entryId, static_cast<double>(i));
            }
            ASSERT_LE(cache.fifoSlots(), 2 * kCapacity + 1)
                << "stale fifo slots accumulating at insert " << i;
        }
        EXPECT_EQ(cache.size(), kCapacity);
        EXPECT_GT(cache.stats().fifoCompactions, 0u);
    }
}

/** LRU evicts mid-deque too; the same bound must hold. */
TEST(ImageCache, LruFifoSlotsStayBounded)
{
    Rng rng(19);
    constexpr std::size_t kCapacity = 64;
    ImageCache cache(kCapacity, EvictionPolicy::LRU);
    embedding::ImageEncoder enc;
    for (std::uint64_t i = 1; i <= 3000; ++i) {
        cache.insert(makeImage(i, rng), static_cast<double>(i));
        // Hits shuffle LRU order so victims are rarely the fifo front.
        const auto q = enc.encode(
            randomUnitVec(embedding::kEmbeddingDim, rng), 1.0,
            3000000 + i);
        const auto r = cache.retrieve(q);
        if (r.found)
            cache.recordHit(r.entryId, static_cast<double>(i));
        ASSERT_LE(cache.fifoSlots(), 2 * kCapacity + 1);
    }
    EXPECT_EQ(cache.size(), kCapacity);
}

/** Eviction victims, in order, over a fixed churn with a hit per insert. */
std::vector<std::uint64_t>
victimSequence(EvictionPolicy policy)
{
    Rng rng(53);
    ImageCache cache(32, policy);
    embedding::ImageEncoder enc;
    std::vector<std::uint64_t> live;
    std::vector<std::uint64_t> victims;
    // Independent recency model: an id moves to the back when inserted
    // or hit, so under LRU every victim must be its front.
    std::vector<std::uint64_t> recency;
    const auto touch = [&recency](std::uint64_t id) {
        recency.erase(std::remove(recency.begin(), recency.end(), id),
                      recency.end());
        recency.push_back(id);
    };
    for (std::uint64_t i = 1; i <= 600; ++i) {
        cache.insert(makeImage(i, rng), static_cast<double>(i));
        for (auto it = live.begin(); it != live.end();) {
            if (cache.contains(*it)) {
                ++it;
                continue;
            }
            if (policy == EvictionPolicy::LRU) {
                EXPECT_EQ(*it, recency.front()) << "insert " << i;
            }
            recency.erase(std::find(recency.begin(), recency.end(), *it));
            victims.push_back(*it);
            it = live.erase(it);
        }
        live.push_back(i);
        touch(i);
        const auto q = enc.encode(
            randomUnitVec(embedding::kEmbeddingDim, rng), 1.0, 7000000 + i);
        const auto r = cache.retrieve(q);
        if (r.found) {
            cache.recordHit(r.entryId, static_cast<double>(i));
            touch(r.entryId);
        }
    }
    return victims;
}

std::uint64_t
hashIds(const std::vector<std::uint64_t> &ids)
{
    std::uint64_t h = kFnvBasis;
    for (const std::uint64_t id : ids) {
        h = fnv1a64(std::string_view(reinterpret_cast<const char *>(&id),
                                     sizeof(id)),
                    h);
    }
    return h;
}

/**
 * Victim order is policy behaviour the serving digests depend on: FIFO
 * evicts in insertion order, LRU evicts the least recently inserted or
 * hit entry (checked against an independent model inside
 * victimSequence), Utility's sampled victims are pinned to the
 * sequence the cache produced when every policy kept LRU bookkeeping,
 * and LeastHit's to the sequence Nirvana's and Pinecone's caches
 * evict in on this churn.
 */
TEST(ImageCache, VictimSequencesArePinnedPerPolicy)
{
    const auto fifo = victimSequence(EvictionPolicy::FIFO);
    ASSERT_EQ(fifo.size(), 568u);
    for (std::size_t i = 0; i < fifo.size(); ++i)
        EXPECT_EQ(fifo[i], i + 1) << "FIFO victim " << i;

    const auto lru = victimSequence(EvictionPolicy::LRU);
    EXPECT_EQ(lru.size(), 568u);
    EXPECT_NE(lru, fifo); // hits reorder recency
    EXPECT_EQ(hashIds(lru), 0xa8069806e55d6d32ULL);

    const auto utility = victimSequence(EvictionPolicy::Utility);
    EXPECT_EQ(utility.size(), 568u);
    EXPECT_EQ(hashIds(utility), 0xca73852f0d6159b1ULL);

    const auto leastHit = victimSequence(EvictionPolicy::LeastHit);
    EXPECT_EQ(leastHit.size(), 568u);
    EXPECT_NE(leastHit, utility); // no recency term
    EXPECT_EQ(hashIds(leastHit), 0x607a24389d9cb936ULL);
}

/**
 * Eviction on a drained cache is a library bug the guards must catch
 * loudly rather than corrupt bookkeeping.
 */
TEST(ImageCacheDeathTest, ZeroCapacityIsRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(ImageCache(0, EvictionPolicy::FIFO),
                 "capacity must be positive");
}

/** recordHit on an evicted (absent) entry must panic, not corrupt. */
TEST(ImageCacheDeathTest, RecordHitOnAbsentEntryPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Rng rng(23);
    ImageCache cache(2, EvictionPolicy::LRU);
    cache.insert(makeImage(1, rng), 0.0);
    EXPECT_DEATH(cache.recordHit(999, 1.0), "absent entry");
}

/**
 * Utility eviction must keep working when the sampled candidates are
 * dominated by stale fifo slots: a churn-heavy, hit-heavy trace where
 * victims are mostly mid-deque. After churn the cache must still be
 * exactly at capacity with consistent retrieval.
 */
TEST(ImageCache, UtilityEvictionSkipsStaleSlots)
{
    Rng rng(29);
    ImageCache cache(16, EvictionPolicy::Utility);
    embedding::ImageEncoder enc;
    for (std::uint64_t i = 1; i <= 800; ++i) {
        cache.insert(makeImage(i, rng), static_cast<double>(i));
        for (int probe = 0; probe < 2; ++probe) {
            const auto q = enc.encode(
                randomUnitVec(embedding::kEmbeddingDim, rng), 1.0,
                4000000 + i * 2 + probe);
            const auto r = cache.retrieve(q);
            if (r.found) {
                ASSERT_TRUE(cache.contains(r.entryId));
                cache.recordHit(r.entryId, static_cast<double>(i));
            }
        }
    }
    EXPECT_EQ(cache.size(), 16u);
    EXPECT_EQ(cache.stats().evictions, 800u - 16u);
}

} // namespace
} // namespace modm::cache
