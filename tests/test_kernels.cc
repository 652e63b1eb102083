/**
 * @file
 * Equivalence tests for the dispatched dot kernels (kernels.hh) and
 * unit tests for the aligned row containers (row_store.hh).
 *
 * The load-bearing property is the determinism contract: scalar,
 * unrolled, and avx2 must agree BIT FOR BIT with an in-test reference
 * that spells out the pinned summation order (4 stripes in i order,
 * combined (s0+s1)+(s2+s3), sequential remainder) — on every dim from
 * 1 through 17 plus the production widths, and on unaligned rows, so
 * no tier can smuggle in an alignment fast path that rounds
 * differently. Everything the batch entry points return —
 * dotBatch, dotGather, bestBatch — must match the single-row kernel
 * exactly, including the tie-break rule.
 *
 * The integer screen kernel (screenBatch) must return exact sums in
 * every tier at unaligned offsets, never overflow int32 at any width,
 * and — through the sketch it serves — prune all but a sliver of
 * serving-shaped rows, so a bound that quietly went loose fails here.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/common/kernels.hh"
#include "src/common/rng.hh"
#include "src/common/row_store.hh"
#include "src/common/sketch.hh"
#include "src/common/vec.hh"
#include "src/embedding/encoder.hh"

namespace modm::kernels {
namespace {

/** Restore the auto-selected tier when a test forced another one. */
class ScopedTier
{
  public:
    ScopedTier() : saved_(active().tier) {}
    ~ScopedTier() { setTier(saved_); }

  private:
    Tier saved_;
};

std::vector<Tier>
availableTiers()
{
    std::vector<Tier> tiers;
    for (const Tier tier : {Tier::Scalar, Tier::Unrolled, Tier::Avx2}) {
        if (tierAvailable(tier))
            tiers.push_back(tier);
    }
    return tiers;
}

/** The contract's summation order, spelled out independently. */
double
referenceDot(const float *a, const float *b, std::size_t n)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        s0 += static_cast<double>(a[i]) * static_cast<double>(b[i]);
        s1 += static_cast<double>(a[i + 1]) *
            static_cast<double>(b[i + 1]);
        s2 += static_cast<double>(a[i + 2]) *
            static_cast<double>(b[i + 2]);
        s3 += static_cast<double>(a[i + 3]) *
            static_cast<double>(b[i + 3]);
    }
    double acc = (s0 + s1) + (s2 + s3);
    for (; i < n; ++i)
        acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    return acc;
}

const std::vector<std::size_t> &
testDims()
{
    static const std::vector<std::size_t> dims = [] {
        std::vector<std::size_t> d;
        for (std::size_t n = 1; n <= 17; ++n)
            d.push_back(n);
        d.push_back(512);
        d.push_back(513);
        return d;
    }();
    return dims;
}

TEST(Kernels, TierNamesAndAvailability)
{
    // The portable tiers exist everywhere; what auto-selection picked
    // must report itself consistently.
    EXPECT_TRUE(tierAvailable(Tier::Scalar));
    EXPECT_TRUE(tierAvailable(Tier::Unrolled));
    const KernelInfo info = active();
    EXPECT_STREQ(info.name, tierName(info.tier));
    EXPECT_TRUE(tierAvailable(info.tier));
    EXPECT_STREQ(tierName(Tier::Scalar), "scalar");
    EXPECT_STREQ(tierName(Tier::Unrolled), "unrolled");
    EXPECT_STREQ(tierName(Tier::Avx2), "avx2");

    ScopedTier guard;
    for (const Tier tier : availableTiers()) {
        EXPECT_TRUE(setTier(tier));
        EXPECT_EQ(active().tier, tier);
    }
    // Forcing an unavailable tier is refused, not crashed into.
    const Tier unknown = static_cast<Tier>(3);
    EXPECT_FALSE(tierAvailable(unknown));
    const Tier before = active().tier;
    EXPECT_FALSE(setTier(unknown));
    EXPECT_EQ(active().tier, before);
}

TEST(Kernels, DotMatchesReferenceOnEveryDimAndOffset)
{
    ScopedTier guard;
    Rng rng(2026);
    for (const std::size_t dim : testDims()) {
        // Rows live at odd float offsets inside a shared buffer, so a
        // tier can't rely on any alignment beyond sizeof(float).
        for (const std::size_t offset : {std::size_t{0}, std::size_t{1},
                                         std::size_t{3}}) {
            std::vector<float> buf(2 * (dim + offset) + 8);
            const Vec a = randomUnitVec(dim, rng);
            const Vec b = randomUnitVec(dim, rng);
            float *pa = buf.data() + offset;
            float *pb = buf.data() + dim + 2 * offset + 4;
            std::memcpy(pa, a.data(), dim * sizeof(float));
            std::memcpy(pb, b.data(), dim * sizeof(float));

            const double expected = referenceDot(pa, pb, dim);
            for (const Tier tier : availableTiers()) {
                ASSERT_TRUE(setTier(tier));
                EXPECT_EQ(dot(pa, pb, dim), expected)
                    << tierName(tier) << " dim " << dim << " offset "
                    << offset;
            }
        }
    }
}

TEST(Kernels, BatchEntryPointsMatchSingleRowDot)
{
    ScopedTier guard;
    constexpr std::size_t kDim = 513; // stride 528: pad in play
    constexpr std::size_t kRows = 71;
    Rng rng(7);
    AlignedRows rows(kDim);
    rows.reserve(kRows);
    for (std::size_t r = 0; r < kRows; ++r)
        rows.pushBack(randomUnitVec(kDim, rng).data());
    const Vec query = randomUnitVec(kDim, rng);

    for (const Tier tier : availableTiers()) {
        ASSERT_TRUE(setTier(tier));
        std::vector<double> batch(kRows);
        dotBatch(query.data(), rows.data(), rows.stride(), kRows, kDim,
                 batch.data());
        std::vector<const float *> scattered(kRows);
        for (std::size_t r = 0; r < kRows; ++r)
            scattered[r] = rows.row(kRows - 1 - r); // reversed order
        std::vector<double> gathered(kRows);
        dotGather(query.data(), scattered.data(), kRows, kDim,
                  gathered.data());
        for (std::size_t r = 0; r < kRows; ++r) {
            const double single = dot(query.data(), rows.row(r), kDim);
            EXPECT_EQ(batch[r], single)
                << tierName(tier) << " dotBatch row " << r;
            EXPECT_EQ(gathered[kRows - 1 - r], single)
                << tierName(tier) << " dotGather row " << r;
        }

        // bestBatch: the earliest slot holding the largest batch score.
        std::size_t slot = 0;
        double score = 0.0;
        ASSERT_TRUE(bestBatch(query.data(), rows.data(), rows.stride(),
                              kRows, kDim, &slot, &score));
        const std::size_t argmax = static_cast<std::size_t>(
            std::max_element(batch.begin(), batch.end()) - batch.begin());
        EXPECT_EQ(slot, argmax) << tierName(tier);
        EXPECT_EQ(score, batch[argmax]) << tierName(tier);
        EXPECT_FALSE(bestBatch(query.data(), rows.data(), rows.stride(),
                               0, kDim, &slot, &score));
    }
}

TEST(Kernels, TiersAgreeBitForBitOnBatches)
{
    ScopedTier guard;
    constexpr std::size_t kDim = 512;
    constexpr std::size_t kRows = 200;
    Rng rng(31);
    AlignedRows rows(kDim);
    rows.reserve(kRows);
    for (std::size_t r = 0; r < kRows; ++r)
        rows.pushBack(randomUnitVec(kDim, rng).data());
    const Vec query = randomUnitVec(kDim, rng);

    ASSERT_TRUE(setTier(Tier::Scalar));
    std::vector<double> baseline(kRows);
    dotBatch(query.data(), rows.data(), rows.stride(), kRows, kDim,
             baseline.data());

    for (const Tier tier : availableTiers()) {
        ASSERT_TRUE(setTier(tier));
        std::vector<double> scores(kRows);
        dotBatch(query.data(), rows.data(), rows.stride(), kRows, kDim,
                 scores.data());
        for (std::size_t r = 0; r < kRows; ++r) {
            EXPECT_EQ(scores[r], baseline[r])
                << tierName(tier) << " row " << r;
        }
    }
}

TEST(Kernels, BestBatchBreaksExactTiesTowardTheEarliestSlot)
{
    ScopedTier guard;
    constexpr std::size_t kDim = 64;
    Rng rng(5);
    const Vec winner = randomUnitVec(kDim, rng);
    const Vec filler = randomUnitVec(kDim, rng);
    AlignedRows rows(kDim);
    // Identical best rows at slots 1 and 3: slot 1 must win in every
    // tier (strictly-greater admission).
    rows.pushBack(filler.data());
    rows.pushBack(winner.data());
    rows.pushBack(filler.data());
    rows.pushBack(winner.data());
    for (const Tier tier : availableTiers()) {
        ASSERT_TRUE(setTier(tier));
        std::size_t slot = 99;
        double score = 0.0;
        ASSERT_TRUE(bestBatch(winner.data(), rows.data(), rows.stride(),
                              rows.size(), kDim, &slot, &score));
        EXPECT_EQ(slot, std::size_t{1}) << tierName(tier);
    }
}

/** A bound whose floor keeps every row. */
const ScreenBound kKeepAll{1.0, 0.0,
                           -std::numeric_limits<double>::infinity()};

/** Exact int64 reference for one screen sum. */
std::int64_t
referenceScreen(const std::int16_t *q, const std::int8_t *row, std::size_t n)
{
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < n; ++i)
        acc += static_cast<std::int64_t>(q[i]) * row[i];
    return acc;
}

TEST(Kernels, ScreenSumsAreExactInEveryTierAtUnalignedOffsets)
{
    ScopedTier guard;
    Rng rng(404);
    constexpr std::size_t kRows = 19; // two 8-row blocks + 3 singles
    for (const std::size_t dim : testDims()) {
        const std::int64_t limit = screenQueryLimit(dim);
        for (const std::size_t offset : {std::size_t{0}, std::size_t{1},
                                         std::size_t{3}}) {
            // Odd strides and offsets: neither rows nor query sit on
            // any boundary wider than their element size.
            const std::size_t stride = dim + 2 * offset + 1;
            std::vector<std::int8_t> codes(offset + kRows * stride);
            for (auto &c : codes)
                c = static_cast<std::int8_t>(rng.uniformInt(255)) - 127;
            std::vector<std::int16_t> qbuf(offset + dim);
            for (auto &c : qbuf) {
                c = static_cast<std::int16_t>(
                    static_cast<std::int64_t>(rng.uniformInt(2 * limit + 1)) -
                    limit);
            }
            const std::int8_t *rows = codes.data() + offset;
            const std::int16_t *query = qbuf.data() + offset;
            std::vector<float> scales(kRows);
            for (auto &scale : scales)
                scale = static_cast<float>(rng.uniform(0.001, 0.004));
            std::vector<std::int64_t> expected(kRows);
            std::vector<double> upper(kRows);
            const ScreenBound keepAll{
                1.0 / static_cast<double>(limit), 0.5 * dim,
                -std::numeric_limits<double>::infinity()};
            for (std::size_t r = 0; r < kRows; ++r) {
                expected[r] = referenceScreen(query, rows + r * stride, dim);
                upper[r] = scales[r] * (keepAll.scale * expected[r] +
                                        keepAll.width);
            }
            ScreenBound median = keepAll;
            median.floor = upper[7];

            for (const Tier tier : availableTiers()) {
                ASSERT_TRUE(setTier(tier));
                std::uint32_t slots[kRows];
                std::int32_t sums[kRows];
                ASSERT_EQ(screenBatch(query, rows, stride, scales.data(),
                                      kRows, dim, keepAll, slots, sums),
                          kRows);
                for (std::size_t r = 0; r < kRows; ++r) {
                    EXPECT_EQ(slots[r], r);
                    EXPECT_EQ(sums[r], expected[r])
                        << tierName(tier) << " dim " << dim << " offset "
                        << offset << " row " << r;
                }
                // A floor keeps exactly the rows whose upper bound
                // reaches it, in row order.
                const std::size_t kept =
                    screenBatch(query, rows, stride, scales.data(), kRows,
                                dim, median, slots, sums);
                std::size_t j = 0;
                for (std::size_t r = 0; r < kRows; ++r) {
                    if (upper[r] < median.floor)
                        continue;
                    ASSERT_LT(j, kept) << tierName(tier);
                    EXPECT_EQ(slots[j], r) << tierName(tier);
                    EXPECT_EQ(sums[j++], expected[r]) << tierName(tier);
                }
                EXPECT_EQ(kept, j) << tierName(tier);
            }
        }
    }
}

TEST(Kernels, ScreenSumsNeverOverflowInt32)
{
    ScopedTier guard;
    constexpr std::int64_t kInt32Max = INT32_MAX;
    // 516 full-range products fit; 517 would not, so the query code
    // range shrinks from there on.
    EXPECT_EQ(screenQueryLimit(64), 32767);
    EXPECT_EQ(screenQueryLimit(516), 32767);
    EXPECT_LE(516 * 127 * std::int64_t{32767}, kInt32Max);
    EXPECT_GT(517 * 127 * std::int64_t{32767}, kInt32Max);
    EXPECT_LT(screenQueryLimit(517), 32767);

    for (const std::size_t dim : {std::size_t{517}, std::size_t{2048}}) {
        const std::int64_t limit = screenQueryLimit(dim);
        const std::int64_t extreme = static_cast<std::int64_t>(dim) * 127 *
            limit;
        EXPECT_LE(extreme, kInt32Max) << dim;
        // Every component at full scale with one shared sign pattern:
        // through the real quantizers every row code is +-127, every
        // query code +-limit, and every product has the same sign.
        Vec row(dim);
        for (std::size_t i = 0; i < dim; ++i)
            row[i] = i % 3 == 0 ? -1.0f : 1.0f;
        Vec negated = row;
        for (auto &x : negated)
            x = -x;
        RowSketch sketch(dim);
        sketch.pushBack(row.data());
        sketch.pushBack(negated.data());
        const SketchQuery query(row.data(), sketch);
        for (std::size_t i = 0; i < dim; ++i) {
            ASSERT_EQ(std::abs(sketch.codes(0)[i]), 127) << i;
            ASSERT_EQ(std::abs(query.codes()[i]), limit) << i;
        }
        for (const Tier tier : availableTiers()) {
            ASSERT_TRUE(setTier(tier));
            std::uint32_t slots[2];
            std::int32_t sums[2];
            ASSERT_EQ(screenBatch(query.codes(), sketch.codes(0),
                                  sketch.stride(), sketch.scales(), 2,
                                  sketch.stride(), kKeepAll, slots, sums),
                      std::size_t{2});
            EXPECT_EQ(sums[0], extreme) << tierName(tier) << " dim " << dim;
            EXPECT_EQ(sums[1], -extreme) << tierName(tier) << " dim " << dim;
        }
    }
}

/**
 * The screen's interval must contain the exact kernels::dot score and
 * be nearly tight. Adversarial rows sit 0.49 of a code step off every
 * code, on the side the query's sign pushes the dot: their errors
 * reach about (n - 1) / n of the worst case the half-width allows, so
 * a width shaved by even 10% excludes their true scores here.
 */
TEST(Kernels, ScreenIntervalContainsTheScoreAndIsNearlyTight)
{
    for (const std::size_t dim : {std::size_t{64}, std::size_t{517}}) {
        Rng rng(31 + dim);
        const double step = 0x1p-10; // the rows' code scale, exact
        Vec query(dim);
        Vec above(dim);
        Vec below(dim);
        for (std::size_t i = 0; i < dim; ++i) {
            const float sign = rng.bernoulli(0.5) ? 1.0f : -1.0f;
            query[i] = sign * 0.125f;
            const double code =
                static_cast<double>(rng.uniformInt(201)) - 100.0;
            above[i] = static_cast<float>((code + 0.49 * sign) * step);
            below[i] = static_cast<float>((code - 0.49 * sign) * step);
        }
        // One exact full-scale component pins both rows' scale.
        above[0] = below[0] = static_cast<float>(127.0 * step);
        RowSketch sketch(dim);
        sketch.pushBack(above.data());
        sketch.pushBack(below.data());
        ASSERT_EQ(sketch.scale(0), step);
        ASSERT_EQ(sketch.scale(1), step);
        const SketchQuery screen(query.data(), sketch);
        std::uint32_t slots[2];
        std::int32_t sums[2];
        ASSERT_EQ(screenBatch(screen.codes(), sketch.codes(0),
                              sketch.stride(), sketch.scales(), 2,
                              sketch.stride(), kKeepAll, slots, sums),
                  std::size_t{2});
        const double reach = step * screen.halfWidth();
        const Vec *rows[2] = {&above, &below};
        for (std::size_t r = 0; r < 2; ++r) {
            const double center = step * (screen.scale() * sums[r]);
            const double error =
                dot(query.data(), rows[r]->data(), dim) - center;
            EXPECT_LE(std::abs(error), reach) << "dim " << dim << " row " << r;
            EXPECT_GE(std::abs(error), 0.9 * reach)
                << "dim " << dim << " row " << r;
            EXPECT_EQ(error > 0.0, r == 0) << "dim " << dim;
        }
    }
}

/**
 * The screen has to pay for itself: on 10k rows shaped like
 * ImageEncoder output (every row shares the image-cone anchor, so raw
 * scores crowd together) and TextEncoder queries, it must re-score at
 * most 1% of the rows per query and still return the full scan's
 * answer. A bound that silently went loose re-scores far more.
 */
TEST(Kernels, ScreenRescoresAtMostOnePercentOfImageConeRows)
{
    constexpr std::size_t kRows = 10000;
    constexpr std::size_t kDim = embedding::kEmbeddingDim;
    Rng rng(2718);
    std::vector<Vec> topics;
    for (std::size_t t = 0; t < 64; ++t)
        topics.push_back(randomUnitVec(kDim, rng));
    const embedding::ImageEncoder images;
    const embedding::TextEncoder text;
    AlignedRows rows(kDim);
    RowSketch sketch(kDim);
    for (std::size_t r = 0; r < kRows; ++r) {
        const Vec content =
            jitterUnitVec(topics[rng.uniformInt(topics.size())], 0.6, rng);
        const auto e = images.encode(content, rng.uniform(0.6, 1.0), r);
        rows.pushBack(e.vec().data());
        sketch.pushBack(e.vec().data());
    }
    std::size_t total = 0;
    std::size_t worst = 0;
    constexpr std::size_t kQueries = 200;
    for (std::size_t q = 0; q < kQueries; ++q) {
        const Vec concept =
            jitterUnitVec(topics[rng.uniformInt(topics.size())], 0.6, rng);
        const auto e = text.encode(concept, randomUnitVec(kDim, rng),
                                   "query " + std::to_string(q));
        std::size_t slot = 0;
        double score = 0.0;
        ASSERT_TRUE(bestBatch(e.vec().data(), rows.data(), rows.stride(),
                              kRows, kDim, &slot, &score));
        const SketchQuery screen(e.vec().data(), sketch);
        std::size_t rescored = 0;
        const SlotScore best = screenBest(screen, rows, sketch, &rescored);
        EXPECT_EQ(best.slot, slot);
        EXPECT_EQ(best.score, score);
        total += rescored;
        worst = std::max(worst, rescored);
    }
    EXPECT_LE(worst, kRows / 100) << "mean " << total / kQueries;
    EXPECT_GE(total, kQueries); // the winner itself is always re-scored
}

} // namespace
} // namespace modm::kernels

namespace modm {
namespace {

TEST(AlignedRows, StrideRoundsUpToWholeCacheLines)
{
    EXPECT_EQ(alignedRowStride(1), std::size_t{16});
    EXPECT_EQ(alignedRowStride(16), std::size_t{16});
    EXPECT_EQ(alignedRowStride(17), std::size_t{32});
    EXPECT_EQ(alignedRowStride(64), std::size_t{64});
    EXPECT_EQ(alignedRowStride(512), std::size_t{512});
    EXPECT_EQ(alignedRowStride(513), std::size_t{528});
}

TEST(AlignedRows, PushBackSwapRemoveAndAlignment)
{
    constexpr std::size_t kDim = 5; // stride 16: pad floats in play
    AlignedRows rows(kDim);
    EXPECT_TRUE(rows.empty());
    EXPECT_EQ(rows.stride(), std::size_t{16});

    const float a[kDim] = {1, 2, 3, 4, 5};
    const float b[kDim] = {6, 7, 8, 9, 10};
    const float c[kDim] = {11, 12, 13, 14, 15};
    EXPECT_EQ(rows.pushBack(a), std::size_t{0});
    EXPECT_EQ(rows.pushBack(b), std::size_t{1});
    EXPECT_EQ(rows.pushBack(c), std::size_t{2});
    EXPECT_EQ(rows.size(), std::size_t{3});
    EXPECT_EQ(rows.memoryBytes(), 3 * 16 * sizeof(float));

    for (std::size_t slot = 0; slot < rows.size(); ++slot) {
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(rows.row(slot)) % 64,
                  std::uintptr_t{0})
            << "slot " << slot;
        // Pad floats are zeroed so full-stride reads are harmless.
        for (std::size_t i = kDim; i < rows.stride(); ++i)
            EXPECT_EQ(rows.row(slot)[i], 0.0f);
    }
    EXPECT_EQ(rows.row(1)[0], 6.0f);

    // swapRemove moves the last row into the hole.
    rows.swapRemove(0);
    ASSERT_EQ(rows.size(), std::size_t{2});
    EXPECT_EQ(rows.row(0)[0], 11.0f);
    EXPECT_EQ(rows.row(1)[4], 10.0f);
    rows.swapRemove(1); // removing the last row moves nothing
    ASSERT_EQ(rows.size(), std::size_t{1});
    EXPECT_EQ(rows.row(0)[0], 11.0f);

    // Growth across reallocations preserves contents.
    AlignedRows grown(kDim);
    for (std::size_t i = 0; i < 5000; ++i) {
        const float v = static_cast<float>(i);
        const float row[kDim] = {v, v, v, v, v};
        grown.pushBack(row);
    }
    for (std::size_t i = 0; i < 5000; ++i)
        ASSERT_EQ(grown.row(i)[3], static_cast<float>(i));
}

TEST(RowStore, StablePointersAndLifoFreelist)
{
    constexpr std::size_t kDim = 64;
    RowStore store(kDim, /*rowsPerChunk=*/8);
    Rng rng(3);
    const Vec first = randomUnitVec(kDim, rng);
    const RowStore::Slot s0 = store.insert(first.data());
    const float *p0 = store.row(s0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p0) % 64,
              std::uintptr_t{0});

    // Grow far past the first chunk: the old pointer must not move
    // (chunks are appended, never reallocated).
    std::vector<RowStore::Slot> slots;
    for (std::size_t i = 0; i < 100; ++i)
        slots.push_back(store.insert(randomUnitVec(kDim, rng).data()));
    EXPECT_EQ(store.row(s0), p0);
    EXPECT_EQ(store.liveRows(), std::size_t{101});
    EXPECT_EQ(store.memoryBytes(), 101 * store.stride() * sizeof(float));
    for (std::size_t i = 0; i < kDim; ++i)
        EXPECT_EQ(p0[i], first[i]);

    // Released slots come back LIFO, reusing the warm lines.
    store.release(slots[10]);
    store.release(slots[20]);
    EXPECT_EQ(store.liveRows(), std::size_t{99});
    const RowStore::Slot r1 = store.insert(first.data());
    const RowStore::Slot r2 = store.insert(first.data());
    EXPECT_EQ(r1, slots[20]);
    EXPECT_EQ(r2, slots[10]);

    store.clear();
    EXPECT_EQ(store.liveRows(), std::size_t{0});
    EXPECT_EQ(store.memoryBytes(), std::size_t{0});
}

} // namespace
} // namespace modm
