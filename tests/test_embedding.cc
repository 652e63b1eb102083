/**
 * @file
 * Unit tests for the synthetic CLIP substrate: the token hash, encoders
 * (determinism, modality-gap structure, lexical contamination), and the
 * cosine index (insert/remove/best-match correctness).
 */

#include <gtest/gtest.h>

#include <limits>

#include "src/common/rng.hh"
#include "src/common/stats.hh"
#include "src/embedding/encoder.hh"
#include "src/embedding/index.hh"
#include "src/embedding/tokenizer.hh"

namespace modm::embedding {
namespace {

TEST(Tokenizer, HashIsStable)
{
    EXPECT_EQ(tokenHash("castle"), tokenHash("castle"));
    EXPECT_NE(tokenHash("castle"), tokenHash("castles"));
}

TEST(Embedding, ConstructionNormalizes)
{
    Embedding e(Vec{3.0f, 4.0f});
    EXPECT_NEAR(norm(e.vec()), 1.0, 1e-6);
    EXPECT_NEAR(e.similarity(e), 1.0, 1e-6);
}

/**
 * NaN and infinity never reach an index: normalize() would spread them
 * over the whole vector, and a NaN row would then win (slot 0) or lose
 * (any other slot) every flat query silently.
 */
TEST(EmbeddingDeathTest, NonFiniteComponentsAreRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_DEATH(Embedding(Vec{1.0f, nan, 0.5f}),
                 "non-finite embedding: component 1 of 3");
    EXPECT_DEATH(Embedding(Vec{-inf, 2.0f}),
                 "non-finite embedding: component 0 of 2");
    // Finite, but so small that the float reciprocal of its norm
    // overflows to infinity inside normalize().
    EXPECT_DEATH(Embedding(Vec{1e-44f, 1e-44f}),
                 "non-finite embedding: the vector is too small");
    // Zero and merely tiny vectors stay legal.
    EXPECT_EQ(Embedding(Vec{0.0f, 0.0f}).vec(), (Vec{0.0f, 0.0f}));
    EXPECT_NEAR(norm(Embedding(Vec{3e-20f, 4e-20f}).vec()), 1.0, 1e-6);
}

class EncoderTest : public ::testing::Test
{
  protected:
    TextEncoder text_;
    ImageEncoder image_;
    Rng rng_{12345};
};

TEST_F(EncoderTest, TextEncodingIsDeterministic)
{
    const Vec v = randomUnitVec(kEmbeddingDim, rng_);
    const Vec l = randomUnitVec(kEmbeddingDim, rng_);
    const auto a = text_.encode(v, l, "a castle at night");
    const auto b = text_.encode(v, l, "a castle at night");
    EXPECT_NEAR(a.similarity(b), 1.0, 1e-6);
}

TEST_F(EncoderTest, ImageEncodingIsDeterministic)
{
    const Vec c = randomUnitVec(kEmbeddingDim, rng_);
    const auto a = image_.encode(c, 0.95, 42);
    const auto b = image_.encode(c, 0.95, 42);
    EXPECT_NEAR(a.similarity(b), 1.0, 1e-6);
}

TEST_F(EncoderTest, ModalityGapCapsCrossModalSimilarity)
{
    // Even a perfect visual match scores well below 1 across modalities
    // (real CLIPScores live around 0.2-0.35).
    RunningStat sims;
    for (int i = 0; i < 200; ++i) {
        const Vec v = randomUnitVec(kEmbeddingDim, rng_);
        const Vec l = randomUnitVec(kEmbeddingDim, rng_);
        const auto t = text_.encode(v, l, "prompt");
        const auto e = image_.encode(v, 1.0, i);
        sims.add(t.similarity(e));
    }
    EXPECT_GT(sims.mean(), 0.25);
    EXPECT_LT(sims.mean(), 0.45);
}

TEST_F(EncoderTest, SameModalitySimilarityHasHighFloor)
{
    // Unrelated prompts still share the text cone: Nirvana's
    // text-to-text thresholds (0.65-0.95) assume this floor.
    RunningStat sims;
    for (int i = 0; i < 200; ++i) {
        const auto a = text_.encode(randomUnitVec(kEmbeddingDim, rng_),
                                    randomUnitVec(kEmbeddingDim, rng_),
                                    "one");
        const auto b = text_.encode(randomUnitVec(kEmbeddingDim, rng_),
                                    randomUnitVec(kEmbeddingDim, rng_),
                                    "two");
        sims.add(a.similarity(b));
    }
    EXPECT_GT(sims.mean(), 0.45);
    EXPECT_LT(sims.mean(), 0.80);
}

TEST_F(EncoderTest, CrossModalTracksVisualAgreement)
{
    // Similarity must increase monotonically (on average) with the
    // cosine between query concept and image content.
    RunningStat close, medium, far;
    for (int i = 0; i < 200; ++i) {
        const Vec v = randomUnitVec(kEmbeddingDim, rng_);
        const Vec l = randomUnitVec(kEmbeddingDim, rng_);
        const auto t = text_.encode(v, l, "q");
        close.add(t.similarity(
            image_.encode(jitterUnitVec(v, 0.2, rng_), 1.0, i)));
        medium.add(t.similarity(
            image_.encode(jitterUnitVec(v, 0.8, rng_), 1.0, 1000 + i)));
        far.add(t.similarity(image_.encode(
            randomUnitVec(kEmbeddingDim, rng_), 1.0, 2000 + i)));
    }
    EXPECT_GT(close.mean(), medium.mean());
    EXPECT_GT(medium.mean(), far.mean());
    EXPECT_NEAR(far.mean(), 0.0, 0.05);
}

TEST_F(EncoderTest, LexicalContaminationHurtsTextToText)
{
    // Same visual intent, different lexical style: text-to-text drops
    // while text-to-image does not — the paper's §3.2 argument for
    // image caching.
    RunningStat t2tSameStyle, t2tDiffStyle;
    for (int i = 0; i < 200; ++i) {
        const Vec v = randomUnitVec(kEmbeddingDim, rng_);
        const Vec style1 = randomUnitVec(kEmbeddingDim, rng_);
        const Vec style2 = randomUnitVec(kEmbeddingDim, rng_);
        const auto a = text_.encode(v, style1, "a");
        const auto same = text_.encode(jitterUnitVec(v, 0.1, rng_),
                                       style1, "b");
        const auto diff = text_.encode(jitterUnitVec(v, 0.1, rng_),
                                       style2, "c");
        t2tSameStyle.add(a.similarity(same));
        t2tDiffStyle.add(a.similarity(diff));
    }
    EXPECT_GT(t2tSameStyle.mean(), t2tDiffStyle.mean() + 0.05);
}

TEST_F(EncoderTest, LowFidelityImagesEmbedNoisier)
{
    RunningStat highFid, lowFid;
    for (int i = 0; i < 200; ++i) {
        const Vec v = randomUnitVec(kEmbeddingDim, rng_);
        const Vec l = randomUnitVec(kEmbeddingDim, rng_);
        const auto t = text_.encode(v, l, "q");
        highFid.add(t.similarity(image_.encode(v, 0.97, i)));
        lowFid.add(t.similarity(image_.encode(v, 0.55, 5000 + i)));
    }
    EXPECT_GT(highFid.mean(), lowFid.mean());
}

TEST_F(EncoderTest, AnchorsAreOrthonormal)
{
    const Vec t = textAnchor(kEmbeddingDim);
    const Vec i = imageAnchor(kEmbeddingDim);
    EXPECT_NEAR(norm(t), 1.0, 1e-6);
    EXPECT_NEAR(norm(i), 1.0, 1e-6);
    EXPECT_NEAR(dot(t, i), 0.0, 1e-6);
}

TEST(FlatIndex, InsertRemoveContains)
{
    Rng rng(7);
    FlatIndex index(8);
    const Embedding e1(randomUnitVec(8, rng));
    const Embedding e2(randomUnitVec(8, rng));
    index.insert(1, e1);
    index.insert(2, e2);
    EXPECT_EQ(index.size(), 2u);
    EXPECT_TRUE(index.contains(1));
    EXPECT_TRUE(index.remove(1));
    EXPECT_FALSE(index.contains(1));
    EXPECT_FALSE(index.remove(1));
    EXPECT_EQ(index.size(), 1u);
}

TEST(FlatIndex, BestFindsNearestNeighbour)
{
    Rng rng(11);
    FlatIndex index(16);
    std::vector<Embedding> stored;
    for (std::uint64_t i = 0; i < 50; ++i) {
        stored.emplace_back(randomUnitVec(16, rng));
        index.insert(i, stored.back());
    }
    // Query close to item 17.
    Vec q = stored[17].vec();
    q = jitterUnitVec(q, 0.1, rng);
    const auto match = index.best(Embedding(q));
    EXPECT_EQ(match.id, 17u);
    EXPECT_GT(match.similarity, 0.9);
}

TEST(FlatIndex, BestAfterSwapRemoval)
{
    // Removal swaps the last row into the vacated slot; retrieval must
    // stay correct afterwards.
    Rng rng(13);
    FlatIndex index(16);
    std::vector<Embedding> stored;
    for (std::uint64_t i = 0; i < 20; ++i) {
        stored.emplace_back(randomUnitVec(16, rng));
        index.insert(i, stored.back());
    }
    index.remove(0);
    index.remove(7);
    const auto match = index.best(stored[19]);
    EXPECT_EQ(match.id, 19u);
    EXPECT_NEAR(match.similarity, 1.0, 1e-6);
}

TEST(FlatIndex, EmptyIndexReturnsNoMatch)
{
    FlatIndex index(8);
    Rng rng(19);
    const auto match = index.best(Embedding(randomUnitVec(8, rng)));
    EXPECT_LT(match.similarity, 0.0);
}

} // namespace
} // namespace modm::embedding
