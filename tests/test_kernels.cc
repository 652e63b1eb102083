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
 * dotBatch, dotGather, topKBatch, bestBatch — must match the
 * single-row kernel exactly, including ordering and tie-break rules.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/kernels.hh"
#include "src/common/rng.hh"
#include "src/common/row_store.hh"
#include "src/common/vec.hh"

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

        // topKBatch: (score desc, slot asc) against a sorted copy of
        // the batch scores; oversized k returns every row.
        for (const std::size_t k :
             {std::size_t{1}, std::size_t{10}, kRows, kRows + 5}) {
            const auto top = topKBatch(query.data(), rows.data(),
                                       rows.stride(), kRows, kDim, k);
            ASSERT_EQ(top.size(), std::min(k, kRows));
            for (std::size_t i = 1; i < top.size(); ++i) {
                const bool ordered =
                    top[i - 1].score > top[i].score ||
                    (top[i - 1].score == top[i].score &&
                     top[i - 1].slot < top[i].slot);
                EXPECT_TRUE(ordered) << tierName(tier) << " rank " << i;
            }
            for (const auto &scored : top)
                EXPECT_EQ(scored.score, batch[scored.slot]);
        }

        std::size_t slot = 0;
        double score = 0.0;
        ASSERT_TRUE(bestBatch(query.data(), rows.data(), rows.stride(),
                              kRows, kDim, &slot, &score));
        const auto top1 = topKBatch(query.data(), rows.data(),
                                    rows.stride(), kRows, kDim, 1);
        EXPECT_EQ(slot, top1[0].slot) << tierName(tier);
        EXPECT_EQ(score, top1[0].score) << tierName(tier);
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
        const auto top = topKBatch(winner.data(), rows.data(),
                                   rows.stride(), rows.size(), kDim, 2);
        ASSERT_EQ(top.size(), std::size_t{2});
        EXPECT_EQ(top[0].slot, std::size_t{1}) << tierName(tier);
        EXPECT_EQ(top[1].slot, std::size_t{3}) << tierName(tier);
    }
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
