/**
 * @file
 * Equivalence tests for the dispatched dot kernels (kernels.hh) and
 * unit tests for the aligned row container (row_store.hh).
 *
 * The load-bearing property is the determinism contract: scalar and
 * avx2 must agree BIT FOR BIT with an in-test reference
 * that spells out the pinned summation order (4 stripes in i order,
 * combined (s0+s1)+(s2+s3), sequential remainder) — on every dim from
 * 1 through 17, at 512 and 513 (long rows, and a remainder past the
 * last stripe group), and on unaligned rows, so no tier can smuggle in
 * an alignment fast path that rounds differently.
 *
 * The integer screen kernel (screenSums) must return exact sums in
 * every tier at unaligned offsets and at the extreme codes, where a
 * saturating pair sum would corrupt them silently, at every width up
 * to 2048; the interval it feeds must contain the true score and be
 * nearly tight; and — through the sketch it serves — it must prune all
 * but a sliver of serving-shaped rows, so a bound that quietly went
 * loose fails here. MODM_KERNEL's parse must reject a misspelt tier.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
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
    for (const Tier tier : {Tier::Scalar, Tier::Avx2}) {
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
    // The portable tier exists everywhere; what auto-selection picked
    // must report itself consistently.
    EXPECT_TRUE(tierAvailable(Tier::Scalar));
    const KernelInfo info = active();
    EXPECT_STREQ(info.name, tierName(info.tier));
    EXPECT_TRUE(tierAvailable(info.tier));
    EXPECT_STREQ(tierName(Tier::Scalar), "scalar");
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

TEST(Kernels, ParseTierNamesEveryTierAndRejectsTypos)
{
    for (const Tier tier : {Tier::Scalar, Tier::Avx2})
        EXPECT_EQ(parseTier(tierName(tier)), tier);
    // A misspelt MODM_KERNEL must stop the run, naming what it accepts,
    // rather than quietly run the auto-selected tier.
    EXPECT_DEATH(parseTier("avx"),
                 "unknown MODM_KERNEL=avx \\(expected scalar or avx2\\)");
    EXPECT_DEATH(parseTier("unrolled"), "unknown MODM_KERNEL=unrolled");
    EXPECT_DEATH(parseTier("Scalar"), "unknown MODM_KERNEL=Scalar");
    EXPECT_DEATH(parseTier(""), "unknown MODM_KERNEL=");
}

/** The screen's row widths: every remainder of the 4-dim group and of
 *  the 32-byte slab, the 64-dim embedding width and its neighbours, and
 *  wider rows up to 2048. */
const std::vector<std::size_t> &
screenDims()
{
    static const std::vector<std::size_t> dims = [] {
        std::vector<std::size_t> d;
        for (std::size_t n = 1; n <= 17; ++n)
            d.push_back(n);
        for (const std::size_t n : {63, 64, 65, 512, 517, 2048})
            d.push_back(n);
        return d;
    }();
    return dims;
}

/** Exact int64 reference for row `row`'s screen sum over 4 * groups
 *  dims of the interleaved layout (kernels.hh). */
std::int64_t
referenceSum(const std::int8_t *q, const std::uint8_t *blocks,
             std::size_t groups, std::size_t row)
{
    const std::uint8_t *block = blocks + row / 8 * groups * 32;
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < 4 * groups; ++i) {
        acc += static_cast<std::int64_t>(q[i]) *
            block[i / 4 * 32 + row % 8 * 4 + i % 4];
    }
    return acc;
}

/**
 * screenSums over `count` blocks, its flagged rows returned as one flag
 * per row. The flagged indices must be strictly increasing.
 */
std::vector<int>
screenFlags(const std::int8_t *query, const std::uint8_t *blocks,
            std::size_t groups, std::size_t count,
            const std::int32_t *limits, std::int32_t *sums)
{
    std::vector<std::uint32_t> flagged(8 * count);
    const std::size_t n = screenSums(query, blocks, groups, count, limits,
                                     sums, flagged.data());
    std::vector<int> flags(8 * count, 0);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_LT(flagged[i], 8 * count);
        if (i > 0) {
            EXPECT_LT(flagged[i - 1], flagged[i]);
        }
        flags[flagged[i]] = 1;
    }
    return flags;
}

TEST(Kernels, ScreenSumsAreExactInEveryTierAtUnalignedOffsets)
{
    ScopedTier guard;
    Rng rng(404);
    constexpr std::size_t kBlocks = 3;
    constexpr std::int64_t kLimit = kScreenQueryLimit;
    for (const std::size_t dim : screenDims()) {
        const std::size_t groups = (dim + 3) / 4;
        for (const std::size_t offset : {std::size_t{0}, std::size_t{1},
                                         std::size_t{3}}) {
            // Odd offsets: neither blocks nor query sit on any boundary
            // wider than a byte.
            std::vector<std::uint8_t> codes(offset + kBlocks * groups * 32);
            for (auto &c : codes)
                c = static_cast<std::uint8_t>(rng.uniformInt(256));
            std::vector<std::int8_t> qbuf(offset + 4 * groups, 0);
            for (std::size_t i = 0; i < dim; ++i) {
                qbuf[offset + i] = static_cast<std::int8_t>(
                    static_cast<std::int64_t>(
                        rng.uniformInt(2 * kLimit + 1)) -
                    kLimit);
            }
            const std::uint8_t *blocks = codes.data() + offset;
            const std::int8_t *query = qbuf.data() + offset;
            // Limits at the first block's smallest sum, its median and
            // the largest int32: flags on most, half and no rows.
            std::int64_t first[8];
            for (std::size_t r = 0; r < 8; ++r)
                first[r] = referenceSum(query, blocks, groups, r);
            std::sort(first, first + 8);
            const std::int32_t limits[kBlocks] = {
                static_cast<std::int32_t>(first[0]),
                static_cast<std::int32_t>(first[4]), INT32_MAX};
            for (const Tier tier : availableTiers()) {
                ASSERT_TRUE(setTier(tier));
                std::int32_t sums[kBlocks * 8];
                const std::vector<int> flags =
                    screenFlags(query, blocks, groups, kBlocks, limits, sums);
                for (std::size_t r = 0; r < kBlocks * 8; ++r) {
                    const std::int64_t expected =
                        referenceSum(query, blocks, groups, r);
                    EXPECT_EQ(sums[r], expected)
                        << tierName(tier) << " dim " << dim << " offset "
                        << offset << " row " << r;
                    EXPECT_EQ(flags[r], expected > limits[r / 8] ? 1 : 0)
                        << tierName(tier) << " dim " << dim << " row " << r;
                }
            }
        }
    }
}

/**
 * The integer seam at its extremes, through the real quantizers: rows
 * of +-1 give every code +-127 (u = 255 or 1) and queries of +-1 give
 * every query code +-kScreenQueryLimit, so a same-sign pair of u = 255
 * products is the 2 * 255 * 64 = 32640 maddubs sum that one more query
 * step would saturate. Each tier's sums must equal the int64 reference
 * at every width, and the rows each tier flags against the limits of
 * a mid-range floor must be the same.
 */
TEST(Kernels, ScreenSumsStayExactAtTheCodeExtremes)
{
    static_assert(2 * 255 * kScreenQueryLimit <= INT16_MAX);
    static_assert(2 * 255 * (kScreenQueryLimit + 1) > INT16_MAX);
    static_assert(255 * kScreenQueryLimit *
                      static_cast<std::int64_t>(kScreenMaxDim) <=
                  INT32_MAX);
    ScopedTier guard;
    const auto pattern = [](std::size_t dim, int kind) {
        Vec v(dim);
        for (std::size_t i = 0; i < dim; ++i) {
            const bool negative = kind == 0 ? false
                : kind == 1                 ? true
                : kind == 2                 ? i % 2 == 1
                                            : i % 3 == 0;
            v[i] = negative ? -1.0f : 1.0f;
        }
        return v;
    };
    for (const std::size_t dim : screenDims()) {
        AlignedRows rows(dim);
        RowSketch sketch(dim);
        // Two full blocks of extreme rows, every sign pattern twice.
        for (std::size_t r = 0; r < 16; ++r) {
            rows.pushBack(pattern(dim, static_cast<int>(r % 4)).data());
            sketch.pushBack(rows);
        }
        ASSERT_FALSE(sketch.centered());
        for (std::size_t r = 0; r < 4; ++r) {
            const Vec row = pattern(dim, static_cast<int>(r));
            for (std::size_t i = 0; i < dim; ++i)
                ASSERT_EQ(sketch.code(r, i), row[i] > 0 ? 255 : 1);
        }
        for (int kind = 0; kind < 4; ++kind) {
            const Vec q = pattern(dim, kind);
            SketchQuery query;
            query.prepare(q.data(), sketch);
            for (std::size_t i = 0; i < dim; ++i)
                ASSERT_EQ(std::abs(query.codes()[i]), kScreenQueryLimit);
            std::int64_t expected[16];
            std::vector<double> scores;
            for (std::size_t r = 0; r < 16; ++r) {
                expected[r] = referenceSum(query.codes(), sketch.blocks(0),
                                           sketch.groups(), r);
                scores.push_back(dot(q.data(), rows.row(r), dim));
            }
            // The extremes are reached: all-plus against all-plus sums
            // 255 * 64 per dim.
            if (kind == 0) {
                ASSERT_EQ(expected[0], 255 * kScreenQueryLimit *
                                           static_cast<std::int64_t>(dim));
            }
            // A floor between the two best patterns' scores.
            std::sort(scores.begin(), scores.end());
            const auto second = std::upper_bound(scores.rbegin(),
                                                 scores.rend(), scores.back(),
                                                 std::greater<>());
            const double floor = second == scores.rend()
                ? scores.back()
                : 0.5 * (scores.back() + *second);
            std::int32_t limits[2];
            query.limits(sketch, 0, 2, floor, limits);

            std::vector<std::vector<int>> flaggedPerTier;
            for (const Tier tier : availableTiers()) {
                ASSERT_TRUE(setTier(tier));
                std::int32_t sums[16];
                flaggedPerTier.push_back(screenFlags(query.codes(),
                                                     sketch.blocks(0),
                                                     sketch.groups(), 2,
                                                     limits, sums));
                for (std::size_t r = 0; r < 16; ++r) {
                    EXPECT_EQ(sums[r], expected[r])
                        << tierName(tier) << " dim " << dim << " kind "
                        << kind << " row " << r;
                }
            }
            for (const auto &flagged : flaggedPerTier)
                EXPECT_EQ(flagged, flaggedPerTier.front()) << "dim " << dim;
            // Every row above the floor is flagged. A floor above the
            // uncentered sketch's offset (0) lets the limits drop rows.
            std::size_t count = 0;
            for (std::size_t r = 0; r < 16; ++r) {
                const bool flagged = flaggedPerTier.front()[r] != 0;
                count += flagged;
                if (!flagged) {
                    EXPECT_LT(dot(q.data(), rows.row(r), dim), floor)
                        << "dim " << dim << " row " << r;
                }
            }
            if (floor > 0.0 && floor < scores.back()) {
                EXPECT_LT(count, std::size_t{16}) << "dim " << dim;
            }
        }
    }
}

/**
 * A block limit may drop only rows that score below the floor. Two
 * pools, both centered: jittered copies of one direction (the crowded
 * serving shape), where the limits must drop most rows once the floor
 * nears the top, and the same with every fifth row scaled by a power of
 * ten from 1e-30 to 1e30. At floors across each pool's score range,
 * every row whose sum is at or below its block's limit must score below
 * the floor.
 */
TEST(Kernels, ScreenLimitsDropOnlyRowsBelowTheFloor)
{
    for (const std::size_t dim : {std::size_t{7}, std::size_t{64},
                                  std::size_t{517}}) {
        for (const bool scaled : {false, true}) {
            SCOPED_TRACE("dim " + std::to_string(dim) +
                         (scaled ? " scaled" : " unit"));
            Rng rng(808 + dim);
            const Vec anchor = randomUnitVec(dim, rng);
            AlignedRows rows(dim);
            RowSketch sketch(dim);
            for (std::size_t r = 0; r < 600; ++r) {
                Vec row = jitterUnitVec(anchor, 0.4, rng);
                if (scaled && r % 5 == 4) {
                    const float magnitude = std::pow(
                        10.0f,
                        static_cast<float>(rng.uniformInt(61)) - 30.0f);
                    for (auto &x : row)
                        x *= magnitude;
                }
                rows.pushBack(row.data());
                sketch.pushBack(rows);
            }
            ASSERT_TRUE(sketch.centered());
            const std::size_t blocks = (rows.size() + 7) / 8;
            std::vector<std::int32_t> limits(blocks);
            std::vector<std::int32_t> sums(blocks * 8);

            std::size_t nearTop = 0;
            for (std::size_t q = 0; q < 20; ++q) {
                const Vec query = jitterUnitVec(anchor, 0.4, rng);
                SketchQuery screen;
                screen.prepare(query.data(), sketch);
                std::vector<double> scores;
                for (std::size_t r = 0; r < rows.size(); ++r)
                    scores.push_back(dot(query.data(), rows.row(r), dim));
                std::vector<double> sorted = scores;
                std::sort(sorted.begin(), sorted.end());
                for (const double share : {0.1, 0.5, 0.9, 0.99}) {
                    const double floor = sorted[static_cast<std::size_t>(
                        share * static_cast<double>(sorted.size()))];
                    screen.limits(sketch, 0, blocks, floor, limits.data());
                    const std::vector<int> flags = screenFlags(
                        screen.codes(), sketch.blocks(0), sketch.groups(),
                        blocks, limits.data(), sums.data());
                    for (std::size_t r = 0; r < rows.size(); ++r) {
                        if (flags[r]) {
                            nearTop += share == 0.99;
                            continue;
                        }
                        ASSERT_LT(scores[r], floor)
                            << "row " << r << " share " << share;
                    }
                }
            }
            // Near the top of the crowded pool, the limits keep a
            // minority of the rows.
            if (!scaled) {
                EXPECT_LT(nearTop, 20 * rows.size() / 2);
            }
        }
    }
}

/**
 * The screen's interval must contain the exact kernels::dot score and
 * be nearly tight, with centering in play. 256 copies of a row m make
 * mu = m exactly; two adversarial rows follow. Each row's residual is
 * 100.49 code steps along the query's sign pattern (one exact
 * full-scale component pins the row scale), so its code error (0.49
 * of a step) lines up with the query codes, and the query's own code
 * error (0.49 of its step, codes +-63) lines up with the residual.
 * Both terms of the bound then reach about sqrt((n - 1) / n) of their
 * Cauchy-Schwarz limit, so a half-width shaved by 10% excludes their
 * true scores.
 */
TEST(Kernels, ScreenIntervalContainsTheScoreAndIsNearlyTight)
{
    for (const std::size_t dim : {std::size_t{64}, std::size_t{517}}) {
        Rng rng(31 + dim);
        const double step = 0x1p-10; // the rows' code scale, exact
        const double qstep = 0x1p-9; // the query's code scale, exact
        Vec query(dim);
        Vec center(dim);
        Vec above(dim);
        Vec below(dim);
        for (std::size_t i = 0; i < dim; ++i) {
            const double sign = i == 0 || rng.bernoulli(0.5) ? 1.0 : -1.0;
            center[i] = static_cast<float>(
                (static_cast<double>(rng.uniformInt(201)) - 100.0) * step);
            // Component 0 is exact and full-scale in the query and both
            // residuals: it pins both scales.
            const double q = i == 0 ? 64.0 : 63.49;
            const double d = i == 0 ? 127.0 : 100.49;
            query[i] = static_cast<float>(sign * q * qstep);
            above[i] = static_cast<float>(center[i] + sign * d * step);
            below[i] = static_cast<float>(center[i] - sign * d * step);
        }
        AlignedRows rows(dim);
        RowSketch sketch(dim);
        const auto push = [&](const Vec &row) {
            rows.pushBack(row.data());
            sketch.pushBack(rows);
        };
        for (std::size_t r = 0; r < RowSketch::kCenterRows; ++r)
            push(center);
        push(above);
        push(below);
        ASSERT_TRUE(sketch.centered());
        for (std::size_t i = 0; i < dim; ++i)
            ASSERT_EQ(sketch.center()[i], center[i]);
        ASSERT_EQ(sketch.scale(256), step);
        ASSERT_EQ(sketch.scale(257), step);
        SketchQuery screen;
        screen.prepare(query.data(), sketch);
        const std::int32_t keepAll[1] = {INT32_MIN};
        std::int32_t sums[8];
        std::uint32_t flagged[8];
        screenSums(screen.codes(), sketch.blocks(256), sketch.groups(), 1,
                   keepAll, sums, flagged);
        const Vec *adversarial[2] = {&above, &below};
        for (std::size_t r = 0; r < 2; ++r) {
            const ScoreInterval bound =
                screen.interval(sketch, 256 + r, sums[r]);
            const double middle = 0.5 * (bound.lower + bound.upper);
            const double reach = 0.5 * (bound.upper - bound.lower);
            const double error =
                dot(query.data(), adversarial[r]->data(), dim) - middle;
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
        sketch.pushBack(rows);
    }
    std::size_t total = 0;
    std::size_t worst = 0;
    constexpr std::size_t kQueries = 200;
    SketchQuery screen;
    std::vector<SlotScore> kept;
    for (std::size_t q = 0; q < kQueries; ++q) {
        const Vec concept =
            jitterUnitVec(topics[rng.uniformInt(topics.size())], 0.6, rng);
        const auto e = text.encode(concept, randomUnitVec(kDim, rng),
                                   "query " + std::to_string(q));
        // The full scan: every row through dot, strictly greater wins.
        std::size_t slot = 0;
        double score = dot(e.vec().data(), rows.row(0), kDim);
        for (std::size_t r = 1; r < kRows; ++r) {
            const double s = dot(e.vec().data(), rows.row(r), kDim);
            if (s > score) {
                slot = r;
                score = s;
            }
        }
        screen.prepare(e.vec().data(), sketch);
        std::size_t rescored = 0;
        const SlotScore best = screenBest(screen, rows, sketch, 0,
                                          sketch.size(), kept, &rescored);
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
    EXPECT_EQ(rows.size(), std::size_t{0});
    const std::size_t stride = alignedRowStride(kDim);
    EXPECT_EQ(stride, std::size_t{16});

    const float a[kDim] = {1, 2, 3, 4, 5};
    const float b[kDim] = {6, 7, 8, 9, 10};
    const float c[kDim] = {11, 12, 13, 14, 15};
    EXPECT_EQ(rows.pushBack(a), std::size_t{0});
    EXPECT_EQ(rows.pushBack(b), std::size_t{1});
    EXPECT_EQ(rows.pushBack(c), std::size_t{2});
    EXPECT_EQ(rows.size(), std::size_t{3});

    for (std::size_t slot = 0; slot < rows.size(); ++slot) {
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(rows.row(slot)) % 64,
                  std::uintptr_t{0})
            << "slot " << slot;
        // Pad floats are zeroed so full-stride reads are harmless.
        for (std::size_t i = kDim; i < stride; ++i)
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

    // Growth preserves contents, also into mappings (from 16384 rows).
    AlignedRows grown(kDim);
    for (std::size_t i = 0; i < 20000; ++i) {
        const float v = static_cast<float>(i);
        const float row[kDim] = {v, v, v, v, v};
        grown.pushBack(row);
    }
    for (std::size_t i = 0; i < 20000; ++i)
        ASSERT_EQ(grown.row(i)[3], static_cast<float>(i));
}

} // namespace
} // namespace modm
