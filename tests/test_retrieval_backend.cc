/**
 * @file
 * Property tests for the flat retrieval index (index.hh):
 *
 *  - FlatIndex must be bit-identical with a brute-force scan: an
 *    in-test reference reimplements the original semantics
 *    (double-accumulated dots, swap-with-last removal, the best match
 *    with the earliest insertion slot winning ties) and every
 *    FlatIndex result must match it exactly. The int8 screen in front
 *    of the re-score must stay exact on the inputs that stress its
 *    bound: duplicate rows, rows 1 ulp apart, rows with equal codes but
 *    different floats, one-hot, zero and tiny rows, at every dim from
 *    1 to 17 and at 63, 64, 65, 512 and 517.
 *  - memoryBytes must account rows, sketch, ids and locator exactly.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/kernels.hh"
#include "src/common/rng.hh"
#include "src/common/sketch.hh"
#include "src/embedding/index.hh"

namespace modm::embedding {
namespace {

/**
 * Reference reimplementation of the original flat index: flat row
 * storage, swap-with-last removal, serial scan accumulating each dot
 * in double, the earliest slot winning ties. FlatIndex results must
 * match this bit for bit.
 */
class ReferenceIndex
{
  public:
    explicit ReferenceIndex(std::size_t dim) : dim_(dim) {}

    void insert(std::uint64_t id, const Embedding &embedding)
    {
        slotOf_[id] = ids_.size();
        ids_.push_back(id);
        rows_.insert(rows_.end(), embedding.vec().begin(),
                     embedding.vec().end());
    }

    void remove(std::uint64_t id)
    {
        const std::size_t slot = slotOf_.at(id);
        const std::size_t last = ids_.size() - 1;
        if (slot != last) {
            std::memcpy(&rows_[slot * dim_], &rows_[last * dim_],
                        dim_ * sizeof(float));
            ids_[slot] = ids_[last];
            slotOf_[ids_[slot]] = slot;
        }
        rows_.resize(last * dim_);
        ids_.pop_back();
        slotOf_.erase(id);
    }

    Match best(const Embedding &query) const
    {
        Match out;
        const float *q = query.vec().data();
        for (std::size_t slot = 0; slot < ids_.size(); ++slot) {
            // Score every row through kernels::dot — a brute-force
            // oracle for the screen — so the seam this reference pins
            // is the index bookkeeping (insert / remove / slot
            // tie-break / screen), not the dot's floating-point
            // association order, which kernels.hh pins separately.
            const double score = kernels::dot(q, &rows_[slot * dim_], dim_);
            // Strictly greater: the earliest slot wins ties.
            if (slot == 0 || score > out.similarity)
                out = {ids_[slot], score};
        }
        return out;
    }

    std::size_t size() const { return ids_.size(); }

  private:
    std::size_t dim_;
    std::vector<float> rows_;
    std::vector<std::uint64_t> ids_;
    std::unordered_map<std::uint64_t, std::size_t> slotOf_;
};

TEST(FlatIndexSeam, BitIdenticalWithPreRefactorReference)
{
    constexpr std::size_t kDim = kEmbeddingDim;
    Rng rng(2026);
    ReferenceIndex reference(kDim);
    FlatIndex flat(kDim);

    // Interleave inserts and removals so swap-with-last permutes slots
    // the same way in both; then every query must agree exactly.
    std::vector<std::uint64_t> live;
    std::uint64_t nextId = 0;
    for (std::size_t step = 0; step < 4000; ++step) {
        if (live.size() > 64 && rng.bernoulli(0.35)) {
            const std::size_t pick = rng.uniformInt(live.size());
            const std::uint64_t id = live[pick];
            live[pick] = live.back();
            live.pop_back();
            reference.remove(id);
            ASSERT_TRUE(flat.remove(id));
        } else {
            const Embedding e(randomUnitVec(kDim, rng));
            reference.insert(nextId, e);
            flat.insert(nextId, e);
            live.push_back(nextId);
            ++nextId;
        }
    }
    ASSERT_EQ(reference.size(), flat.size());

    for (std::size_t q = 0; q < 40; ++q) {
        const Embedding query(randomUnitVec(kDim, rng));
        const auto expectedBest = reference.best(query);
        EXPECT_EQ(expectedBest.id, flat.best(query).id);
        EXPECT_EQ(expectedBest.similarity, flat.best(query).similarity);
    }
}

/** The sketch codes of one row, through a one-row RowSketch: the
 *  codes every row carries until the sketch centers at 256 rows. */
std::vector<std::uint8_t>
sketchCodes(const Embedding &e)
{
    AlignedRows rows(e.dim());
    rows.pushBack(e.vec().data());
    RowSketch sketch(e.dim());
    sketch.pushBack(rows);
    std::vector<std::uint8_t> codes;
    for (std::size_t i = 0; i < e.dim(); ++i)
        codes.push_back(sketch.code(0, i));
    return codes;
}

/** How many of the screen's hard cases a row pool actually contains. */
struct HardCases
{
    std::size_t ulpPairs = 0;
    std::size_t equalCodePairs = 0;
};

/**
 * Rows that stress the screen's bound, in families around random
 * bases: the base (inserted under several ids, so duplicates tie
 * exactly), a row 1 ulp away from it, a row with the base's int8 codes
 * but different floats, one-hot rows, the zero row, and rows built from
 * tiny features (normalized to unit length, or one-hot with a tail of
 * tiny components).
 */
std::vector<Embedding>
hardRows(std::size_t dim, Rng &rng, HardCases &cases)
{
    std::vector<Embedding> rows;
    for (std::size_t family = 0; family < 6; ++family) {
        // Integer features with one full-scale component: normalizing
        // divides them all by the same float, so small non-integer
        // offsets move the floats but not the codes.
        Vec ints(dim);
        for (auto &x : ints)
            x = static_cast<float>(rng.uniformInt(255)) - 127.0f;
        const std::size_t peak = rng.uniformInt(dim);
        ints[peak] = rng.bernoulli(0.5) ? 127.0f : -127.0f;
        const Embedding base(ints);
        rows.push_back(base);

        Vec nudged = ints;
        for (std::size_t i = 0; i < dim; ++i) {
            if (i != peak)
                nudged[i] += static_cast<float>(rng.uniform() * 0.4 - 0.2);
        }
        const Embedding sameCodes(nudged);
        if (sameCodes.vec() != base.vec() &&
            sketchCodes(sameCodes) == sketchCodes(base))
            ++cases.equalCodePairs;
        rows.push_back(sameCodes);

        // One component one ulp away, if normalizing keeps it so.
        for (std::size_t i = 0; i < dim; ++i) {
            Vec bumped = base.vec();
            bumped[i] = std::nextafter(bumped[i], 2.0f);
            const Embedding near(bumped);
            if (near.vec() == bumped) {
                ++cases.ulpPairs;
                rows.push_back(near);
                break;
            }
        }

        Vec oneHot(dim, 0.0f);
        oneHot[rng.uniformInt(dim)] = rng.bernoulli(0.5) ? 1.0f : -1.0f;
        rows.push_back(Embedding(oneHot));

        Vec tiny = randomUnitVec(dim, rng);
        for (auto &x : tiny)
            x *= 1e-30f;
        rows.push_back(Embedding(tiny));

        Vec tail(dim);
        for (auto &x : tail)
            x = static_cast<float>(rng.normal() * 1e-30);
        tail[rng.uniformInt(dim)] = 1.0f;
        rows.push_back(Embedding(tail));
    }
    rows.push_back(Embedding(Vec(dim, 0.0f)));
    return rows;
}

TEST(FlatIndexScreen, ExactOnHardRowsAtEveryDim)
{
    std::vector<std::size_t> dims;
    for (std::size_t d = 1; d <= 17; ++d)
        dims.push_back(d);
    for (const std::size_t d : {63, 64, 65, 512, 517})
        dims.push_back(d);

    HardCases cases;
    std::size_t queries = 0;
    for (const std::size_t dim : dims) {
        SCOPED_TRACE("dim " + std::to_string(dim));
        Rng rng(1000 + dim);
        const auto pool = hardRows(dim, rng, cases);
        ReferenceIndex reference(dim);
        FlatIndex flat(dim);
        std::vector<std::uint64_t> live;
        std::uint64_t nextId = 0;
        // 10k steps of insert / swap-remove churn over a window that
        // grows to 600 rows (several screen blocks, so later blocks
        // run under a positive floor); every pool row is inserted many
        // times, so duplicates sit at shifting slots.
        for (std::size_t step = 0; step < 10000; ++step) {
            if (live.size() >= 600 ||
                (live.size() > 8 && rng.bernoulli(0.45))) {
                const std::size_t pick = rng.uniformInt(live.size());
                const std::uint64_t id = live[pick];
                live[pick] = live.back();
                live.pop_back();
                reference.remove(id);
                ASSERT_TRUE(flat.remove(id));
            } else {
                const Embedding &e = pool[rng.uniformInt(pool.size())];
                reference.insert(nextId, e);
                flat.insert(nextId, e);
                live.push_back(nextId++);
            }
            if (step % 97 != 0)
                continue;
            // Query with pool rows (exact and near ties) and random
            // directions.
            const Embedding query = rng.bernoulli(0.7)
                ? pool[rng.uniformInt(pool.size())]
                : Embedding(randomUnitVec(dim, rng));
            const auto expectedBest = reference.best(query);
            const auto best = flat.best(query);
            ASSERT_EQ(best.id, expectedBest.id);
            ASSERT_EQ(best.similarity, expectedBest.similarity);
            ++queries;
        }
    }
    EXPECT_GT(queries, std::size_t{2000});
    // The pools really hold the hard cases, not near-misses.
    EXPECT_GE(cases.ulpPairs, std::size_t{100});
    EXPECT_GE(cases.equalCodePairs, std::size_t{100});
}

/**
 * The bound is stated for any finite rows, not only unit ones: raw
 * rows from denormal to 1e30 magnitudes, screened directly, must give
 * the brute-force answer.
 */
TEST(FlatIndexScreen, ExactOnUnnormalizedRowsOfAnyMagnitude)
{
    // One query object and kept list serve every dim, as FlatIndex
    // reuses its own: re-preparing must leave nothing stale behind.
    SketchQuery screen;
    std::vector<SlotScore> kept;
    for (const std::size_t dim : {3, 64, 517}) {
        SCOPED_TRACE("dim " + std::to_string(dim));
        Rng rng(77 + dim);
        AlignedRows rows(dim);
        RowSketch sketch(dim);
        for (std::size_t r = 0; r < 300; ++r) {
            // Magnitudes from 1e-40 (denormal) to 1e28.
            Vec row = gaussianVec(dim, rng);
            const float magnitude = std::pow(
                10.0f, static_cast<float>(rng.uniformInt(69)) - 40.0f);
            for (auto &x : row)
                x *= magnitude;
            rows.pushBack(row.data());
            sketch.pushBack(rows);
        }
        for (std::size_t q = 0; q < 40; ++q) {
            Vec query = gaussianVec(dim, rng);
            const float magnitude = std::pow(
                10.0f, static_cast<float>(rng.uniformInt(41)) - 20.0f);
            for (auto &x : query)
                x *= magnitude;
            // The full scan: every row through kernels::dot, strictly
            // greater wins.
            std::size_t slot = 0;
            double score = kernels::dot(query.data(), rows.row(0), dim);
            for (std::size_t r = 1; r < rows.size(); ++r) {
                const double s = kernels::dot(query.data(), rows.row(r), dim);
                if (s > score) {
                    slot = r;
                    score = s;
                }
            }
            screen.prepare(query.data(), sketch);
            const SlotScore best =
                screenBest(screen, rows, sketch, 0, sketch.size(), kept);
            EXPECT_EQ(best.slot, slot);
            EXPECT_EQ(best.score, score);
        }
    }
}

/**
 * The floor test must keep a row whose estimate trails the leader by
 * nearly two half-widths yet whose true score is higher. 256 fillers
 * come first, so mu is the filler row exactly and the two rows' codes
 * are those of their offsets from it. The leader rounds every code
 * 0.49 of a step against the query, the winner 0.49 of a step with
 * it, and every residual has the same full-scale component, which pins
 * both row scales. The pair is tried twice: winner before the leader
 * in one batch (the batch-final floor already holds the leader's lower
 * bound when the winner is tested) and winner in a later batch than
 * the leader (the floor carries across batches).
 */
TEST(FlatIndexScreen, KeepsAWinnerWhoseEstimateTrailsByNearlyTwoWidths)
{
    constexpr std::size_t kDim = 64;
    const double step = 0x1p-10;
    Rng rng(9);
    Vec query(kDim), leader(kDim), winner(kDim), filler(kDim);
    for (std::size_t i = 0; i < kDim; ++i) {
        const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
        query[i] = static_cast<float>(sign * 0.125);
        // Estimates well above the fillers'; the leader one code step
        // further along the query on 60 components.
        const double code = sign * static_cast<double>(rng.uniformInt(60));
        const double lead = i < 60 ? sign : 0.0;
        filler[i] = static_cast<float>(-sign * 50.0 * step);
        winner[i] = static_cast<float>(filler[i] + (code + 0.49 * sign) * step);
        leader[i] = static_cast<float>(filler[i] +
                                       (code + lead - 0.49 * sign) * step);
    }
    winner[63] = leader[63] = static_cast<float>(filler[63] + 127 * step);
    ASSERT_GT(kernels::dot(query.data(), winner.data(), kDim),
              kernels::dot(query.data(), leader.data(), kDim));

    struct Layout
    {
        std::size_t winnerSlot;
        std::size_t leaderSlot;
    };
    // Slots 288..543 form one screen batch; 270 and 600 sit in the
    // batches before and after it.
    for (const Layout layout : {Layout{400, 420}, Layout{600, 270}}) {
        SCOPED_TRACE("winner slot " + std::to_string(layout.winnerSlot));
        AlignedRows rows(kDim);
        RowSketch sketch(kDim);
        for (std::size_t slot = 0; slot <= 600; ++slot) {
            const Vec &row = slot == layout.winnerSlot ? winner
                : slot == layout.leaderSlot            ? leader
                                                       : filler;
            rows.pushBack(row.data());
            sketch.pushBack(rows);
        }
        ASSERT_EQ(sketch.center()[0], filler[0]);
        ASSERT_EQ(sketch.scale(layout.winnerSlot), step);
        ASSERT_EQ(sketch.scale(layout.leaderSlot), step);
        SketchQuery screen;
        screen.prepare(query.data(), sketch);
        std::size_t rescored = 0;
        std::vector<SlotScore> kept;
        const SlotScore best = screenBest(screen, rows, sketch, 0,
                                          sketch.size(), kept, &rescored);
        EXPECT_EQ(best.slot, layout.winnerSlot);
        EXPECT_EQ(best.score,
                  kernels::dot(query.data(), winner.data(), kDim));
        EXPECT_EQ(rescored, std::size_t{2}); // fillers never reach the floor
    }
}

/**
 * The interleaved layout turns swap-remove into a strided lane move
 * within and across 8-row blocks, and the 256th row re-sketches every
 * row against a new centering vector. Each step below is checked
 * against the brute-force reference for best: ids, similarity bits and
 * tie-breaks (every pool row goes in under two ids, so exact ties sit
 * at shifting slots). Centering shows in memoryBytes(), which counts mu
 * once it exists.
 */
TEST(FlatIndexScreen, BlockBoundaryChurnMatchesBruteForce)
{
    for (const std::size_t dim : {std::size_t{5}, kEmbeddingDim}) {
        SCOPED_TRACE("dim " + std::to_string(dim));
        Rng rng(600 + dim);
        std::vector<Embedding> pool;
        const Vec anchor = randomUnitVec(dim, rng);
        for (std::size_t i = 0; i < 48; ++i)
            pool.push_back(Embedding(jitterUnitVec(anchor, 0.5, rng)));
        ReferenceIndex reference(dim);
        FlatIndex flat(dim);
        std::vector<std::uint64_t> slots; // slot -> id, as both indexes
        std::uint64_t nextId = 0;

        const auto insert = [&](std::size_t count) {
            for (std::size_t i = 0; i < count; ++i) {
                const Embedding &e = pool[nextId / 2 % pool.size()];
                reference.insert(nextId, e);
                flat.insert(nextId, e);
                slots.push_back(nextId++);
            }
        };
        const auto removeSlot = [&](std::size_t slot) {
            ASSERT_LT(slot, slots.size());
            const std::uint64_t id = slots[slot];
            slots[slot] = slots.back();
            slots.pop_back();
            reference.remove(id);
            ASSERT_TRUE(flat.remove(id));
        };
        const auto check = [&](const std::string &step) {
            SCOPED_TRACE(step);
            ASSERT_EQ(flat.size(), slots.size());
            for (std::size_t q = 0; q < 6; ++q) {
                const Embedding query = q < 4
                    ? pool[rng.uniformInt(pool.size())]
                    : Embedding(randomUnitVec(dim, rng));
                const Match expected = reference.best(query);
                const Match got = flat.best(query);
                EXPECT_EQ(got.id, expected.id);
                EXPECT_EQ(got.similarity, expected.similarity);
            }
        };
        const std::size_t rowBytes = dim * sizeof(float) +
            (dim + 3) / 4 * 4 + 3 * sizeof(float) + sizeof(std::uint64_t);
        const auto centered = [&] {
            const std::size_t blocks = (slots.size() + 7) / 8;
            return flat.memoryBytes() !=
                slots.size() * rowBytes + blocks * 3 * sizeof(double) +
                locatorBytes(slots.size(), sizeof(std::size_t));
        };

        insert(13); // blocks: 8 + 5
        check("partly filled last block");
        removeSlot(9); // inside the partly filled last block
        check("remove inside the last block");
        removeSlot(slots.size() - 1); // the last slot itself
        check("remove the last slot");
        insert(6); // 17 rows: the last block holds only slot 16
        check("one row in the last block");
        removeSlot(16); // the last block's only row, and the last slot
        check("remove the only row of the last block");
        insert(1);
        removeSlot(3); // slot 16 moves across blocks into slot 3
        check("the last block's only row moves to an earlier block");
        flat.reserve(2000); // growth mid-churn
        insert(40);
        check("after reserve");
        ASSERT_FALSE(centered());
        // Churn across the 256th row: mu is derived from the rows held
        // then, and every row is re-sketched against it.
        while (slots.size() < RowSketch::kCenterRows - 2) {
            insert(2);
            removeSlot(rng.uniformInt(slots.size()));
        }
        insert(1);
        ASSERT_FALSE(centered());
        check("one row before centering");
        insert(1);
        ASSERT_TRUE(centered());
        check("centered");
        for (std::size_t step = 0; step < 200; ++step) {
            if (rng.bernoulli(0.5))
                insert(1);
            else
                removeSlot(rng.uniformInt(slots.size()));
        }
        check("churn after centering");
        while (slots.size() > 9)
            removeSlot(rng.uniformInt(slots.size()));
        ASSERT_TRUE(centered()); // only clear() drops mu
        check("shrunk below the centering size");

        flat.clear();
        reference = ReferenceIndex(dim);
        slots.clear();
        ASSERT_EQ(flat.memoryBytes(), std::size_t{0});
        insert(100);
        ASSERT_FALSE(centered());
        check("refilled after clear");
        insert(RowSketch::kCenterRows);
        ASSERT_TRUE(centered());
        check("re-centered after clear");
    }
}

TEST(FlatIndexMemory, AccountsExactly)
{
    FlatIndex flat(kEmbeddingDim);
    EXPECT_EQ(flat.memoryBytes(), std::size_t{0});
    Rng rng(1);
    flat.insert(1, Embedding(randomUnitVec(kEmbeddingDim, rng)));
    // One row + its u8 sketch (dim codes + scale, error and residual
    // floats) + one id + one locator entry: 364 B at dim 64, plus three
    // doubles per started 8-row sketch block. The sketch's centering
    // vector appears at 256 rows.
    const std::size_t perEntry = kEmbeddingDim * sizeof(float) +
        kEmbeddingDim + 3 * sizeof(float) + sizeof(std::uint64_t) +
        locatorBytes(1, sizeof(std::size_t));
    const std::size_t perBlock = 3 * sizeof(double);
    EXPECT_EQ(perEntry, std::size_t{364});
    EXPECT_EQ(flat.memoryBytes(), perEntry + perBlock);
    flat.insert(2, Embedding(randomUnitVec(kEmbeddingDim, rng)));
    EXPECT_EQ(flat.memoryBytes(), 2 * perEntry + perBlock);
    flat.remove(1);
    EXPECT_EQ(flat.memoryBytes(), perEntry + perBlock);
    for (std::uint64_t id = 3; id < 11; ++id)
        flat.insert(id, Embedding(randomUnitVec(kEmbeddingDim, rng)));
    EXPECT_EQ(flat.memoryBytes(), 9 * perEntry + 2 * perBlock);
    flat.clear();
    EXPECT_EQ(flat.memoryBytes(), std::size_t{0});
}

} // namespace
} // namespace modm::embedding
