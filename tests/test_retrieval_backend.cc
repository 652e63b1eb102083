/**
 * @file
 * Property tests for the pluggable retrieval-backend seam
 * (vector_index.hh):
 *
 *  - FlatIndex must be bit-identical with a brute-force scan: an
 *    in-test reference reimplements the original semantics
 *    (double-accumulated dots, swap-with-last removal, results ordered
 *    by similarity desc then insertion slot asc) and every FlatIndex
 *    result must match it exactly. The int8 screen in front of the
 *    re-score must stay exact on the inputs that stress its bound:
 *    duplicate rows, rows 1 ulp apart, rows with equal codes but
 *    different floats, one-hot, zero and tiny rows, at every dim from
 *    1 to 17 and the production widths.
 *  - IvfIndex must be fully deterministic (equal build sequences give
 *    equal centroids and equal query results) and must hold recall@1
 *    >= 0.95 at the default nprobe on clustered synthetic embeddings,
 *    including under interleaved insert/evict churn.
 *  - IVF, IVF-PQ and HNSW results over one seeded churn are pinned to
 *    recorded digests.
 *  - HnswIndex and IvfPqIndex must be deterministic across rebuilds,
 *    hold recall@1 >= 0.9 on clustered embeddings under FIFO
 *    insert/evict churn, stay correct after heavy removal (tombstone
 *    repair / swap-remove), and account their memory exactly.
 *  - makeVectorIndex must reject malformed configs with a thrown
 *    diagnostic naming the knob (never a silent clamp), and the
 *    direct constructors must assert-abort as a backstop.
 *  - The backend seam itself: caches build the configured backend and
 *    surface recall accounting; serving runs complete on any backend
 *    with recall wired through to the result.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/cache/image_cache.hh"
#include "src/cache/latent_cache.hh"
#include "src/common/hash.hh"
#include "src/common/kernels.hh"
#include "src/common/rng.hh"
#include "src/common/sketch.hh"
#include "src/diffusion/sampler.hh"
#include "src/embedding/hnsw_index.hh"
#include "src/embedding/index.hh"
#include "src/embedding/ivf_index.hh"
#include "src/embedding/ivf_pq_index.hh"
#include "src/embedding/vector_index.hh"
#include "src/serving/system.hh"
#include "src/workload/generator.hh"

namespace modm::embedding {
namespace {

/**
 * Reference reimplementation of the original flat index: flat row
 * storage, swap-with-last removal, serial scan accumulating each dot
 * in double, results ordered by (similarity desc, slot asc). FlatIndex
 * results must match this bit for bit.
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

    std::vector<Match> topK(const Embedding &query, std::size_t k) const
    {
        struct SlotScore
        {
            std::size_t slot;
            double score;
        };
        std::vector<SlotScore> scored;
        scored.reserve(ids_.size());
        const float *q = query.vec().data();
        for (std::size_t slot = 0; slot < ids_.size(); ++slot) {
            // Score every row through kernels::dot — a brute-force
            // oracle for the screen — so the seam this reference pins
            // is the index bookkeeping (insert / remove / slot
            // tie-break / merge / screen), not the dot's floating-point
            // association order, which kernels.hh pins separately.
            const float *row = &rows_[slot * dim_];
            scored.push_back({slot, kernels::dot(q, row, dim_)});
        }
        std::sort(scored.begin(), scored.end(),
                  [](const SlotScore &a, const SlotScore &b) {
                      if (a.score != b.score)
                          return a.score > b.score;
                      return a.slot < b.slot;
                  });
        std::vector<Match> out;
        for (std::size_t i = 0; i < std::min(k, scored.size()); ++i)
            out.push_back({ids_[scored[i].slot], scored[i].score});
        return out;
    }

    Match best(const Embedding &query) const
    {
        const auto top = topK(query, 1);
        return top.empty() ? Match{} : top.front();
    }

    std::size_t size() const { return ids_.size(); }

  private:
    std::size_t dim_;
    std::vector<float> rows_;
    std::vector<std::uint64_t> ids_;
    std::unordered_map<std::uint64_t, std::size_t> slotOf_;
};

void
expectSameMatches(const std::vector<Match> &expected,
                  const std::vector<Match> &actual, const char *what)
{
    ASSERT_EQ(expected.size(), actual.size()) << what;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].id, actual[i].id) << what << " rank " << i;
        EXPECT_EQ(expected[i].similarity, actual[i].similarity)
            << what << " rank " << i;
    }
}

TEST(FlatIndexSeam, BitIdenticalWithPreRefactorReference)
{
    constexpr std::size_t kDim = kEmbeddingDim;
    constexpr std::size_t kK = 9;
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
        const auto expected = reference.topK(query, kK);
        const auto expectedBest = reference.best(query);

        expectSameMatches(expected, flat.topK(query, kK), "topK");
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
            const auto expected = reference.topK(query, 5);
            const auto expectedBest = reference.best(query);
            const auto best = flat.best(query);
            ASSERT_EQ(best.id, expectedBest.id);
            ASSERT_EQ(best.similarity, expectedBest.similarity);
            expectSameMatches(expected, flat.topK(query, 5),
                              "screened topK");
            if (::testing::Test::HasFailure())
                return;
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
            std::size_t slot = 0;
            double score = 0.0;
            ASSERT_TRUE(kernels::bestBatch(query.data(), rows.data(),
                                           rows.stride(), rows.size(), dim,
                                           &slot, &score));
            const SketchQuery screen(query.data(), sketch);
            const SlotScore best = screenBest(screen, rows, sketch);
            EXPECT_EQ(best.slot, slot);
            EXPECT_EQ(best.score, score);
            const auto top = screenTopK(screen, rows, sketch, 3);
            ASSERT_EQ(top.size(), std::size_t{3});
            EXPECT_EQ(top[0].slot, slot);
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
        const SketchQuery screen(query.data(), sketch);
        std::size_t rescored = 0;
        const SlotScore best = screenBest(screen, rows, sketch, &rescored);
        EXPECT_EQ(best.slot, layout.winnerSlot);
        EXPECT_EQ(best.score,
                  kernels::dot(query.data(), winner.data(), kDim));
        EXPECT_EQ(rescored, std::size_t{2}); // fillers never reach the floor
        const auto top = screenTopK(screen, rows, sketch, 2);
        ASSERT_EQ(top.size(), std::size_t{2});
        EXPECT_EQ(top[0].slot, layout.winnerSlot);
        EXPECT_EQ(top[1].slot, layout.leaderSlot);
    }
}

/**
 * The interleaved layout turns swap-remove into a strided lane move
 * within and across 8-row blocks, and the 256th row re-sketches every
 * row against a new centering vector. Each step below is checked
 * against the brute-force reference for best and topK(1, 3, 8, 40): ids,
 * similarity bits and tie-breaks (every pool row goes in under two
 * ids, so exact ties sit at shifting slots). Centering shows in
 * memoryBytes(), which counts mu once it exists.
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
                // 40 rows outnumber the screen's first batch, so the
                // floor is still open after it.
                for (const std::size_t k : {1, 3, 8, 40}) {
                    expectSameMatches(reference.topK(query, k),
                                      flat.topK(query, k), "topK");
                }
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

/** Clustered synthetic embeddings: the regime CLIP vectors live in. */
std::vector<Vec>
makeCenters(std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Vec> centers;
    for (std::size_t c = 0; c < count; ++c)
        centers.push_back(randomUnitVec(kEmbeddingDim, rng));
    return centers;
}

Embedding
clusteredEmbedding(const std::vector<Vec> &centers, Rng &rng)
{
    const auto &center = centers[rng.uniformInt(centers.size())];
    return Embedding(jitterUnitVec(center, 0.35, rng));
}

TEST(IvfIndexSeam, FullyDeterministicAcrossRebuilds)
{
    const auto centers = makeCenters(48, 5);
    RetrievalBackendConfig config;
    config.kind = RetrievalBackend::Ivf;

    // Two indexes fed the identical insert/remove sequence must agree
    // exactly on every query — centroids, list layout, tiebreaks, all
    // of it a pure function of (sequence, seed).
    IvfIndex a(config), b(config);
    Rng rngA(77), rngB(77);
    const auto feed = [&centers](IvfIndex &index, Rng &rng) {
        std::uint64_t nextId = 0;
        for (std::size_t step = 0; step < 3000; ++step) {
            if (nextId > 400 && rng.bernoulli(0.3)) {
                // Remove a pseudo-random live id (FIFO-ish window).
                const std::uint64_t id = rng.uniformInt(nextId);
                index.remove(id); // may be absent; both feeds agree
            } else {
                index.insert(nextId++, clusteredEmbedding(centers, rng));
            }
        }
    };
    feed(a, rngA);
    feed(b, rngB);

    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.trainings(), b.trainings());
    EXPECT_TRUE(a.trained());

    Rng qrng(123);
    for (std::size_t q = 0; q < 60; ++q) {
        const auto query = clusteredEmbedding(centers, qrng);
        const auto bestA = a.best(query);
        const auto bestB = b.best(query);
        EXPECT_EQ(bestA.id, bestB.id);
        EXPECT_EQ(bestA.similarity, bestB.similarity);
        expectSameMatches(a.topK(query, 7), b.topK(query, 7),
                          "ivf determinism topK");
    }
}

TEST(IvfIndexSeam, RecallAtLeast95OnClusteredEmbeddings)
{
    const auto centers = makeCenters(64, 9);
    RetrievalBackendConfig config;
    config.kind = RetrievalBackend::Ivf; // default nlist/nprobe

    IvfIndex ivf(config);
    FlatIndex exact;
    Rng rng(31);
    for (std::uint64_t id = 0; id < 20000; ++id) {
        const auto e = clusteredEmbedding(centers, rng);
        ivf.insert(id, e);
        exact.insert(id, e);
    }
    ASSERT_TRUE(ivf.trained());
    ASSERT_TRUE(ivf.approximate());

    std::size_t agreed = 0;
    constexpr std::size_t kQueries = 500;
    Rng qrng(47);
    for (std::size_t q = 0; q < kQueries; ++q) {
        const auto query = clusteredEmbedding(centers, qrng);
        if (ivf.best(query).id == exact.best(query).id)
            ++agreed;
        // exactBest must agree with the flat truth on every query.
        EXPECT_EQ(ivf.exactBest(query).id, exact.best(query).id);
    }
    const double recall =
        static_cast<double>(agreed) / static_cast<double>(kQueries);
    EXPECT_GE(recall, 0.95) << "recall@1 at default nprobe";
}

TEST(IvfIndexSeam, RecallHoldsUnderInsertEvictChurn)
{
    const auto centers = makeCenters(64, 13);
    RetrievalBackendConfig config;
    config.kind = RetrievalBackend::Ivf;

    IvfIndex ivf(config);
    FlatIndex exact;
    Rng rng(91);
    constexpr std::size_t kWindow = 6000;
    constexpr std::size_t kOps = 20000;
    std::size_t agreed = 0, checked = 0;
    Rng qrng(17);
    // FIFO eviction: the oldest id leaves as each new one arrives —
    // exactly the churn MoDM's sliding-window cache applies.
    for (std::uint64_t id = 0; id < kOps; ++id) {
        const auto e = clusteredEmbedding(centers, rng);
        ivf.insert(id, e);
        exact.insert(id, e);
        if (id >= kWindow) {
            ASSERT_TRUE(ivf.remove(id - kWindow));
            ASSERT_TRUE(exact.remove(id - kWindow));
        }
        if (id > kWindow && id % 40 == 0) {
            const auto query = clusteredEmbedding(centers, qrng);
            if (ivf.best(query).id == exact.best(query).id)
                ++agreed;
            ++checked;
        }
    }
    ASSERT_EQ(ivf.size(), exact.size());
    ASSERT_GT(checked, std::size_t{300});
    const double recall =
        static_cast<double>(agreed) / static_cast<double>(checked);
    EXPECT_GE(recall, 0.95) << "recall@1 under churn, " << checked
                            << " checks";
}

TEST(IvfIndexSeam, EmptyProbedListsWidenToExhaustiveScan)
{
    // Two far-apart clusters, every row of one of them evicted: a
    // query near the drained cluster probes (mostly) empty lists, and
    // a non-empty index must still return a live entry, never the
    // Match{0, -1} sentinel. IVF-PQ probes through the same quantizer;
    // its 256 rows reach the training floor of its 256-codeword books.
    const auto centers = makeCenters(2, 3);
    constexpr std::uint64_t kRows = IvfPqIndex::kKsub;
    for (const auto kind : {RetrievalBackend::Ivf, RetrievalBackend::IvfPq}) {
        SCOPED_TRACE(retrievalBackendName(kind));
        RetrievalBackendConfig config;
        config.kind = kind;
        config.nlist = 4;
        config.nprobe = 1;
        config.retrainThreshold = 0.0; // churn must not retrain it away

        const auto index = makeVectorIndex(config, kEmbeddingDim);
        Rng rng(7);
        for (std::uint64_t id = 0; id < kRows; ++id) {
            const auto &center = centers[id % 2];
            index->insert(id, Embedding(jitterUnitVec(center, 0.1, rng)));
        }
        ASSERT_TRUE(index->approximate()); // trained
        // Evict cluster 0 entirely (even ids).
        for (std::uint64_t id = 0; id < kRows; id += 2)
            ASSERT_TRUE(index->remove(id));
        ASSERT_EQ(index->size(), kRows / 2);

        Rng qrng(9);
        const Embedding query(jitterUnitVec(centers[0], 0.05, qrng));
        const auto best = index->best(query);
        EXPECT_GT(best.similarity, -1.0);
        EXPECT_TRUE(index->contains(best.id));
        const auto top = index->topK(query, 5);
        ASSERT_FALSE(top.empty());
        for (const auto &m : top)
            EXPECT_TRUE(index->contains(m.id));
    }
}

/** Exact-row oracle over a side map (what the caches provide). */
class MapRowSource final : public RowSource
{
  public:
    void put(std::uint64_t id, const Embedding &e) { rows_[id] = e; }
    void drop(std::uint64_t id) { rows_.erase(id); }

    const float *row(std::uint64_t id) const override
    {
        const auto it = rows_.find(id);
        return it == rows_.end() ? nullptr : it->second.vec().data();
    }

  private:
    std::unordered_map<std::uint64_t, Embedding> rows_;
};

TEST(HnswIndexSeam, FullyDeterministicAcrossRebuilds)
{
    const auto centers = makeCenters(48, 5);
    RetrievalBackendConfig config;
    config.kind = RetrievalBackend::Hnsw;

    // Two graphs fed the identical insert/remove sequence must agree
    // exactly on every query — layers, links, tiebreaks, compactions,
    // all of it a pure function of (sequence, seed).
    HnswIndex a(config), b(config);
    Rng rngA(77), rngB(77);
    const auto feed = [&centers](HnswIndex &index, Rng &rng) {
        std::uint64_t nextId = 0;
        for (std::size_t step = 0; step < 3000; ++step) {
            if (nextId > 400 && rng.bernoulli(0.3)) {
                const std::uint64_t id = rng.uniformInt(nextId);
                index.remove(id); // may be absent; both feeds agree
            } else {
                index.insert(nextId++, clusteredEmbedding(centers, rng));
            }
        }
    };
    feed(a, rngA);
    feed(b, rngB);

    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.slots(), b.slots());
    EXPECT_EQ(a.compactions(), b.compactions());
    EXPECT_EQ(a.memoryBytes(), b.memoryBytes());

    Rng qrng(123);
    for (std::size_t q = 0; q < 60; ++q) {
        const auto query = clusteredEmbedding(centers, qrng);
        const auto bestA = a.best(query);
        const auto bestB = b.best(query);
        EXPECT_EQ(bestA.id, bestB.id);
        EXPECT_EQ(bestA.similarity, bestB.similarity);
        expectSameMatches(a.topK(query, 7), b.topK(query, 7),
                          "hnsw determinism topK");
    }
}

TEST(HnswIndexSeam, RecallAtLeast90UnderInsertEvictChurn)
{
    const auto centers = makeCenters(64, 13);
    RetrievalBackendConfig config;
    config.kind = RetrievalBackend::Hnsw;

    HnswIndex hnsw(config);
    FlatIndex exact;
    Rng rng(91);
    constexpr std::size_t kWindow = 4000;
    constexpr std::size_t kOps = 12000;
    std::size_t agreed = 0, checked = 0;
    Rng qrng(17);
    // FIFO eviction: the oldest id leaves as each new one arrives —
    // exactly the churn MoDM's sliding-window cache applies.
    for (std::uint64_t id = 0; id < kOps; ++id) {
        const auto e = clusteredEmbedding(centers, rng);
        hnsw.insert(id, e);
        exact.insert(id, e);
        if (id >= kWindow) {
            ASSERT_TRUE(hnsw.remove(id - kWindow));
            ASSERT_TRUE(exact.remove(id - kWindow));
        }
        if (id > kWindow && id % 40 == 0) {
            const auto query = clusteredEmbedding(centers, qrng);
            const auto got = hnsw.best(query);
            EXPECT_TRUE(hnsw.contains(got.id)); // never a tombstone
            if (got.id == exact.best(query).id)
                ++agreed;
            ++checked;
        }
    }
    ASSERT_EQ(hnsw.size(), exact.size());
    ASSERT_GT(checked, std::size_t{150});
    const double recall =
        static_cast<double>(agreed) / static_cast<double>(checked);
    EXPECT_GE(recall, 0.9) << "hnsw recall@1 under churn, " << checked
                           << " checks";
    // exactBest must agree with the flat truth (recall accounting).
    Rng vrng(29);
    for (std::size_t q = 0; q < 20; ++q) {
        const auto query = clusteredEmbedding(centers, vrng);
        EXPECT_EQ(hnsw.exactBest(query).id, exact.best(query).id);
    }
}

TEST(HnswIndexSeam, TombstoneRepairSurvivesHeavyRemoval)
{
    const auto centers = makeCenters(32, 21);
    RetrievalBackendConfig config;
    config.kind = RetrievalBackend::Hnsw;

    HnswIndex hnsw(config);
    FlatIndex exact;
    Rng rng(3);
    constexpr std::uint64_t kRows = 2000;
    for (std::uint64_t id = 0; id < kRows; ++id) {
        const auto e = clusteredEmbedding(centers, rng);
        hnsw.insert(id, e);
        exact.insert(id, e);
    }
    // Remove 85% in a pseudo-random order: every entry point
    // replacement, neighbor repair, and the compaction threshold get
    // exercised; the survivors must all stay reachable.
    std::vector<std::uint64_t> ids(kRows);
    for (std::uint64_t id = 0; id < kRows; ++id)
        ids[id] = id;
    Rng shuffle(55);
    for (std::size_t i = ids.size(); i > 1; --i)
        std::swap(ids[i - 1], ids[shuffle.uniformInt(i)]);
    const std::size_t keep = kRows / 100 * 15;
    for (std::size_t i = keep; i < ids.size(); ++i) {
        ASSERT_TRUE(hnsw.remove(ids[i]));
        ASSERT_TRUE(exact.remove(ids[i]));
    }
    ASSERT_EQ(hnsw.size(), keep);
    EXPECT_GE(hnsw.compactions(), std::uint64_t{1});

    std::size_t agreed = 0;
    constexpr std::size_t kQueries = 200;
    Rng qrng(47);
    for (std::size_t q = 0; q < kQueries; ++q) {
        const auto query = clusteredEmbedding(centers, qrng);
        const auto got = hnsw.best(query);
        EXPECT_TRUE(hnsw.contains(got.id));
        if (got.id == exact.best(query).id)
            ++agreed;
        for (const auto &m : hnsw.topK(query, 5))
            EXPECT_TRUE(hnsw.contains(m.id));
    }
    EXPECT_GE(static_cast<double>(agreed) /
                  static_cast<double>(kQueries),
              0.9);

    // Down to one, to zero, and back up again.
    std::vector<std::uint64_t> rest(ids.begin(), ids.begin() + keep);
    for (const std::uint64_t id : rest)
        ASSERT_TRUE(hnsw.remove(id));
    EXPECT_EQ(hnsw.size(), std::size_t{0});
    EXPECT_EQ(hnsw.best(Embedding(centers[0])).similarity, -1.0);
    Rng rng2(9);
    for (std::uint64_t id = 0; id < 50; ++id)
        hnsw.insert(100000 + id, clusteredEmbedding(centers, rng2));
    EXPECT_EQ(hnsw.size(), std::size_t{50});
    EXPECT_TRUE(hnsw.contains(hnsw.best(Embedding(centers[0])).id));
}

TEST(IvfPqIndexSeam, FullyDeterministicAcrossRebuilds)
{
    const auto centers = makeCenters(48, 5);
    RetrievalBackendConfig config;
    config.kind = RetrievalBackend::IvfPq;

    IvfPqIndex a(config), b(config);
    Rng rngA(77), rngB(77);
    const auto feed = [&centers](IvfPqIndex &index, Rng &rng) {
        std::uint64_t nextId = 0;
        for (std::size_t step = 0; step < 3000; ++step) {
            if (nextId > 400 && rng.bernoulli(0.3)) {
                const std::uint64_t id = rng.uniformInt(nextId);
                index.remove(id);
            } else {
                index.insert(nextId++, clusteredEmbedding(centers, rng));
            }
        }
    };
    feed(a, rngA);
    feed(b, rngB);

    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.trainings(), b.trainings());
    EXPECT_TRUE(a.trained());
    EXPECT_EQ(a.memoryBytes(), b.memoryBytes());

    Rng qrng(123);
    for (std::size_t q = 0; q < 60; ++q) {
        const auto query = clusteredEmbedding(centers, qrng);
        const auto bestA = a.best(query);
        const auto bestB = b.best(query);
        EXPECT_EQ(bestA.id, bestB.id);
        EXPECT_EQ(bestA.similarity, bestB.similarity);
        expectSameMatches(a.topK(query, 7), b.topK(query, 7),
                          "ivfpq determinism topK");
    }
}

TEST(IvfPqIndexSeam, RerankedRecallAtLeast90UnderChurn)
{
    const auto centers = makeCenters(64, 13);
    RetrievalBackendConfig config;
    config.kind = RetrievalBackend::IvfPq;

    IvfPqIndex pq(config);
    FlatIndex exact;
    MapRowSource source;
    pq.setRowSource(&source);
    Rng rng(91);
    constexpr std::size_t kWindow = 6000;
    constexpr std::size_t kOps = 20000;
    std::size_t agreed = 0, checked = 0;
    Rng qrng(17);
    for (std::uint64_t id = 0; id < kOps; ++id) {
        const auto e = clusteredEmbedding(centers, rng);
        pq.insert(id, e);
        exact.insert(id, e);
        source.put(id, e);
        if (id >= kWindow) {
            ASSERT_TRUE(pq.remove(id - kWindow));
            ASSERT_TRUE(exact.remove(id - kWindow));
            source.drop(id - kWindow);
        }
        if (id > kWindow && id % 40 == 0) {
            const auto query = clusteredEmbedding(centers, qrng);
            if (pq.best(query).id == exact.best(query).id)
                ++agreed;
            ++checked;
        }
    }
    ASSERT_EQ(pq.size(), exact.size());
    ASSERT_TRUE(pq.trained());
    ASSERT_TRUE(pq.approximate());
    ASSERT_GT(checked, std::size_t{300});
    const double recall =
        static_cast<double>(agreed) / static_cast<double>(checked);
    EXPECT_GE(recall, 0.9) << "ivfpq recall@1 under churn, " << checked
                           << " checks";
    // With the source attached exactBest is the flat truth itself.
    Rng vrng(29);
    for (std::size_t q = 0; q < 20; ++q) {
        const auto query = clusteredEmbedding(centers, vrng);
        EXPECT_EQ(pq.exactBest(query).id, exact.best(query).id);
    }
}

TEST(IvfPqIndexSeam, CodesAreAFractionOfFlatRows)
{
    const auto centers = makeCenters(32, 7);
    RetrievalBackendConfig config;
    config.kind = RetrievalBackend::IvfPq;

    IvfPqIndex pq(config);
    FlatIndex flat;
    Rng rng(5);
    constexpr std::size_t kRows = 20000;
    for (std::uint64_t id = 0; id < kRows; ++id) {
        const auto e = clusteredEmbedding(centers, rng);
        pq.insert(id, e);
        flat.insert(id, e);
    }
    ASSERT_TRUE(pq.trained());
    EXPECT_EQ(pq.codeBytes(), config.pqM);
    // dim 64 flat rows cost 256 B against 8 B of codes; even with ids,
    // locators, centroids, and codebooks amortized the index must
    // shrink by a wide margin (the 1M x 512 bench pins >= 8x).
    const double ratio = static_cast<double>(flat.memoryBytes()) /
        static_cast<double>(pq.memoryBytes());
    EXPECT_GE(ratio, 4.0) << flat.memoryBytes() << " vs "
                          << pq.memoryBytes();
    // Accounting follows removals down.
    const std::size_t before = pq.memoryBytes();
    for (std::uint64_t id = 0; id < kRows / 2; ++id)
        ASSERT_TRUE(pq.remove(id));
    EXPECT_LT(pq.memoryBytes(), before);
}

/** FNV-1a fold of result bit patterns (common/hash.hh). */
class ResultDigest
{
  public:
    void add(std::uint64_t value)
    {
        const char *bytes = reinterpret_cast<const char *>(&value);
        hash_ = fnv1a64(std::string_view(bytes, sizeof value), hash_);
    }
    void add(double value)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        add(bits);
    }
    void add(const Match &m)
    {
        add(m.id);
        add(m.similarity);
    }
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = kFnvBasis;
};

/**
 * Digest of a fixed seeded churn through `index`: 4000 steps of
 * inserts and random removals whose second half draws from two
 * clusters only (skewing the lists enough to retrain), with a query
 * every 50 steps folding topK(8) and exactBest. `at(step)` runs before
 * each step (mid-run knob changes). `source`, when given, mirrors the
 * live rows the way the caches' EmbeddingStore does.
 */
ResultDigest
churnDigest(VectorIndex &index, MapRowSource *source,
            const std::function<void(std::size_t)> &at)
{
    const auto centers = makeCenters(48, 701);
    const std::vector<Vec> skewed(centers.begin(), centers.begin() + 2);
    Rng rng(702), qrng(703);
    ResultDigest digest;
    std::uint64_t nextId = 0;
    for (std::size_t step = 0; step < 4000; ++step) {
        at(step);
        if (nextId > 200 && rng.bernoulli(0.3)) {
            const std::uint64_t id = rng.uniformInt(nextId);
            if (index.remove(id) && source != nullptr)
                source->drop(id);
        } else {
            const auto e =
                clusteredEmbedding(step < 2000 ? centers : skewed, rng);
            index.insert(nextId, e);
            if (source != nullptr)
                source->put(nextId, e);
            ++nextId;
        }
        if (step % 50 != 49)
            continue;
        const auto query = clusteredEmbedding(centers, qrng);
        for (const Match &m : index.topK(query, 8))
            digest.add(m);
        digest.add(index.exactBest(query));
    }
    digest.add(static_cast<std::uint64_t>(index.size()));
    digest.add(static_cast<std::uint64_t>(index.memoryBytes()));
    return digest;
}

/**
 * The approximate backends' results, pinned: every topK(8) id and
 * similarity, exactBest, trainings() and memoryBytes() over one seeded
 * churn that crosses retrains. The IVF constant was recorded before
 * IVF and IVF-PQ shared one coarse quantizer, the IVF-PQ and HNSW ones
 * before load-adaptive search and 4-bit codes were deleted; code that
 * moves a single result, draw or tie-break changes them.
 */
TEST(ApproximateBackends, ResultsPinnedOverSeededChurn)
{
    // IVF, with nprobe overridden mid-run.
    RetrievalBackendConfig ivfConfig;
    ivfConfig.kind = RetrievalBackend::Ivf;
    ivfConfig.nlist = 16;
    ivfConfig.nprobe = 6;
    IvfIndex ivf(ivfConfig);
    ResultDigest ivfDigest = churnDigest(ivf, nullptr, [&](std::size_t s) {
        if (s == 2500)
            ivf.setNprobe(10);
    });
    EXPECT_GE(ivf.trainings(), std::uint64_t{2});
    ivfDigest.add(ivf.trainings());
    EXPECT_EQ(ivfDigest.value(), 0xa145c8d1df0d071aULL);

    // IVF-PQ with and without exact rows, nprobe overridden mid-run.
    const std::pair<bool, std::uint64_t> pqPins[] = {
        {false, 0x463c57c537f1f694ULL}, {true, 0x3a0956460df21400ULL}};
    for (const auto &[withSource, pin] : pqPins) {
        SCOPED_TRACE(withSource ? "ivfpq with rows" : "ivfpq codes only");
        RetrievalBackendConfig pqConfig;
        pqConfig.kind = RetrievalBackend::IvfPq;
        pqConfig.nlist = 16;
        pqConfig.nprobe = 6;
        IvfPqIndex pq(pqConfig);
        MapRowSource source;
        if (withSource)
            pq.setRowSource(&source);
        ResultDigest digest = churnDigest(
            pq, withSource ? &source : nullptr, [&](std::size_t s) {
                if (s == 2500)
                    pq.setNprobe(10);
            });
        EXPECT_GE(pq.trainings(), std::uint64_t{2});
        digest.add(pq.trainings());
        EXPECT_EQ(digest.value(), pin);
    }

    RetrievalBackendConfig hnswConfig;
    hnswConfig.kind = RetrievalBackend::Hnsw;
    hnswConfig.efSearch = 32;
    HnswIndex hnsw(hnswConfig);
    ResultDigest digest = churnDigest(hnsw, nullptr, [](std::size_t) {});
    digest.add(hnsw.compactions());
    EXPECT_EQ(digest.value(), 0x5f1371d590ce5b9cULL);
}

TEST(VectorIndexMemory, FlatAndIvfAccountExactly)
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

    RetrievalBackendConfig ivfConfig;
    ivfConfig.kind = RetrievalBackend::Ivf;
    IvfIndex ivf(ivfConfig);
    const auto centers = makeCenters(8, 3);
    for (std::uint64_t id = 0; id < 1000; ++id)
        ivf.insert(id, clusteredEmbedding(centers, rng));
    ASSERT_TRUE(ivf.trained());
    // Rows + ids + locator + nlist centroids, byte for byte.
    const std::size_t expected = 1000 *
            (kEmbeddingDim * sizeof(float) + sizeof(std::uint64_t)) +
        ivf.nlist() * kEmbeddingDim * sizeof(float) +
        locatorBytes(1000, 2 * sizeof(std::size_t));
    EXPECT_EQ(ivf.memoryBytes(), expected);
}

TEST(VectorIndexFactory, BuildsConfiguredBackend)
{
    RetrievalBackendConfig flat;
    auto f = makeVectorIndex(flat, kEmbeddingDim);
    EXPECT_NE(dynamic_cast<FlatIndex *>(f.get()), nullptr);
    EXPECT_FALSE(f->approximate());

    RetrievalBackendConfig ivf;
    ivf.kind = RetrievalBackend::Ivf;
    auto i = makeVectorIndex(ivf, kEmbeddingDim);
    EXPECT_NE(dynamic_cast<IvfIndex *>(i.get()), nullptr);
    EXPECT_STREQ(retrievalBackendName(ivf.kind), "IVF");

    RetrievalBackendConfig hnsw;
    hnsw.kind = RetrievalBackend::Hnsw;
    auto h = makeVectorIndex(hnsw, kEmbeddingDim);
    const auto *graph = dynamic_cast<HnswIndex *>(h.get());
    ASSERT_NE(graph, nullptr);
    EXPECT_STREQ(retrievalBackendName(hnsw.kind), "HNSW");
    // The scenario knob overrides the configured beam at runtime.
    EXPECT_EQ(graph->efSearch(), hnsw.efSearch);
    h->setEfSearch(96);
    EXPECT_EQ(graph->efSearch(), std::size_t{96});

    RetrievalBackendConfig pq;
    pq.kind = RetrievalBackend::IvfPq;
    auto p = makeVectorIndex(pq, kEmbeddingDim);
    EXPECT_NE(dynamic_cast<IvfPqIndex *>(p.get()), nullptr);
    EXPECT_STREQ(retrievalBackendName(pq.kind), "IVF-PQ");
}

/** The thrown diagnostic for a malformed config, or "" when valid. */
std::string
factoryError(const RetrievalBackendConfig &config,
             std::size_t dim = kEmbeddingDim)
{
    try {
        makeVectorIndex(config, dim);
        return "";
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
}

/** The diagnostic must mention the knob and its offending value. */
void expectErrorContains(const std::string &error,
                         const std::string &needle)
{
    EXPECT_NE(error.find(needle), std::string::npos)
        << "diagnostic \"" << error << "\" lacks \"" << needle << "\"";
}

TEST(VectorIndexFactory, RejectsMalformedConfigsWithNamedKnobs)
{
    RetrievalBackendConfig nprobe;
    nprobe.kind = RetrievalBackend::Ivf;
    nprobe.nprobe = 128;
    nprobe.nlist = 64;
    expectErrorContains(factoryError(nprobe),
                        "nprobe (128) must be <= nlist (64)");
    nprobe.nprobe = 0;
    expectErrorContains(factoryError(nprobe),
                        "nprobe (0) must be >= 1");

    RetrievalBackendConfig m;
    m.kind = RetrievalBackend::Hnsw;
    m.hnswM = 1;
    expectErrorContains(factoryError(m), "hnswM (1) must be >= 2");
    m.hnswM = 16;
    m.efConstruction = 4;
    expectErrorContains(factoryError(m),
                        "efConstruction (4) must be >= hnswM (16)");
    m.efConstruction = 128;
    m.efSearch = 0;
    expectErrorContains(factoryError(m), "efSearch (0) must be >= 1");

    RetrievalBackendConfig pq;
    pq.kind = RetrievalBackend::IvfPq;
    pq.pqM = 5;
    expectErrorContains(
        factoryError(pq),
        "pqM (5) must divide the embedding dimension (64)");
    pq.pqM = 8;
    pq.nlist = 0;
    expectErrorContains(factoryError(pq), "nlist (0) must be >= 1");

    // Valid configs return no diagnostic.
    EXPECT_EQ(factoryError(RetrievalBackendConfig{}), "");
    EXPECT_EQ(validateRetrievalConfig(RetrievalBackendConfig{},
                                      kEmbeddingDim),
              "");
}

TEST(VectorIndexFactoryDeathTest, DirectConstructionAssertsAsBackstop)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    RetrievalBackendConfig bad;
    bad.kind = RetrievalBackend::Ivf;
    bad.nprobe = 0;
    EXPECT_DEATH((IvfIndex(bad, kEmbeddingDim)), "nprobe");
    RetrievalBackendConfig badM;
    badM.kind = RetrievalBackend::Hnsw;
    badM.hnswM = 1;
    EXPECT_DEATH((HnswIndex(badM, kEmbeddingDim)), "M");
    RetrievalBackendConfig badPq;
    badPq.kind = RetrievalBackend::IvfPq;
    badPq.pqM = 5;
    EXPECT_DEATH((IvfPqIndex(badPq, kEmbeddingDim)), "pqM");
}

} // namespace
} // namespace modm::embedding

namespace modm {
namespace {

/** The seam end to end: cache and serving layers honour the config. */
TEST(RetrievalBackendSeam, ImageCacheTracksRecallOnIvfOnly)
{
    embedding::RetrievalBackendConfig ivf;
    ivf.kind = embedding::RetrievalBackend::Ivf;
    cache::ImageCache approx(4000, cache::EvictionPolicy::FIFO, {}, 1,
                             ivf);
    cache::ImageCache flat(4000, cache::EvictionPolicy::FIFO);

    auto gen = workload::makeDiffusionDB(3);
    diffusion::Sampler sampler(5);
    embedding::TextEncoder text;
    for (std::size_t i = 0; i < 2000; ++i) {
        const auto img =
            sampler.generate(diffusion::sd35Large(), gen->next(), 0.0);
        approx.insert(img, 0.0);
        flat.insert(img, 0.0);
    }
    for (std::size_t q = 0; q < 50; ++q) {
        const auto p = gen->next();
        const auto e =
            text.encode(p.visualConcept, p.lexicalStyle, p.text);
        EXPECT_TRUE(approx.retrieve(e).found);
        EXPECT_TRUE(flat.retrieve(e).found);
    }
    // Every IVF lookup past the training floor is checked, no flat one.
    EXPECT_EQ(approx.store().recallChecked(), std::uint64_t{50});
    EXPECT_LE(approx.store().recallAgreed(), std::uint64_t{50});
    EXPECT_EQ(flat.store().recallChecked(), std::uint64_t{0});
    EXPECT_EQ(approx.stats().lookups, std::uint64_t{50});
}

TEST(RetrievalBackendSeam, OnlyIvfPqCachesKeepExactRows)
{
    // Flat, IVF and HNSW hold their own rows, so neither cache keeps a
    // second copy; IVF-PQ stores codes and re-ranks against exact rows
    // the store keeps for it.
    for (const auto kind :
         {embedding::RetrievalBackend::Flat, embedding::RetrievalBackend::Ivf,
          embedding::RetrievalBackend::Hnsw,
          embedding::RetrievalBackend::IvfPq}) {
        SCOPED_TRACE(embedding::retrievalBackendName(kind));
        embedding::RetrievalBackendConfig config;
        config.kind = kind;
        cache::ImageCache images(64, cache::EvictionPolicy::FIFO, {}, 1,
                                 config);
        cache::LatentCache latents(64, diffusion::sd35Large().name, {}, 1,
                                   config);
        auto gen = workload::makeDiffusionDB(3);
        diffusion::Sampler sampler(5);
        embedding::TextEncoder text;
        std::uint64_t lastId = 0;
        for (std::size_t i = 0; i < 80; ++i) {
            const auto p = gen->next();
            const auto img =
                sampler.generate(diffusion::sd35Large(), p, 0.0);
            images.insert(img, 0.0);
            latents.insert(
                img, text.encode(p.visualConcept, p.lexicalStyle, p.text),
                0.0);
            lastId = img.id;
        }
        const bool keeps = kind == embedding::RetrievalBackend::IvfPq;
        EXPECT_EQ(images.store().row(lastId) != nullptr, keeps);
        EXPECT_EQ(latents.store().row(lastId) != nullptr, keeps);
    }
}

TEST(RetrievalBackendSeam, IvfPqRerankReadsCacheRowsZeroCopy)
{
    // Both caches hand the IVF-PQ re-rank their store's slab rows in
    // place; the rowAccesses() counter pins that path so a regression
    // back to copying (or to skipping the exact re-rank) fails loudly.
    embedding::RetrievalBackendConfig pq;
    pq.kind = embedding::RetrievalBackend::IvfPq;
    cache::ImageCache images(4000, cache::EvictionPolicy::FIFO, {}, 1, pq);
    cache::LatentCache latents(4000, diffusion::sd35Large().name, {}, 1, pq);
    const cache::EmbeddingStore *stores[] = {&images.store(),
                                             &latents.store()};

    auto gen = workload::makeDiffusionDB(3);
    diffusion::Sampler sampler(5);
    embedding::TextEncoder text;
    const auto insert = [&](double now) {
        const auto p = gen->next();
        const auto img = sampler.generate(diffusion::sd35Large(), p, now);
        images.insert(img, now);
        latents.insert(
            img, text.encode(p.visualConcept, p.lexicalStyle, p.text), now);
        return img.id;
    };
    std::uint64_t someId = 0;
    for (std::size_t i = 0; i < 2000; ++i)
        someId = insert(0.0);
    std::uint64_t baseline[2];
    for (std::size_t s = 0; s < 2; ++s)
        baseline[s] = stores[s]->rowAccesses();

    for (std::size_t q = 0; q < 50; ++q) {
        const auto p = gen->next();
        const auto e =
            text.encode(p.visualConcept, p.lexicalStyle, p.text);
        EXPECT_TRUE(images.retrieve(e).found);
        latents.retrieve(e);
    }
    for (std::size_t s = 0; s < 2; ++s) {
        SCOPED_TRACE(s == 0 ? "ImageCache" : "LatentCache");
        EXPECT_GT(stores[s]->rowAccesses(), baseline[s])
            << "IVF-PQ retrieval never touched the exact-row re-rank";
    }

    // Zero-copy means the SAME slab pointer every time, stable across
    // unrelated inserts (RowStore chunks never move).
    const float *first[] = {stores[0]->row(someId), stores[1]->row(someId)};
    for (std::size_t i = 0; i < 100; ++i)
        insert(1.0);
    ASSERT_TRUE(images.contains(someId));
    for (std::size_t s = 0; s < 2; ++s) {
        SCOPED_TRACE(s == 0 ? "ImageCache" : "LatentCache");
        ASSERT_NE(first[s], nullptr);
        EXPECT_EQ(stores[s]->row(someId), first[s]);
        EXPECT_EQ(stores[s]->row(1u << 30), nullptr); // absent id
    }
}

TEST(RetrievalBackendSeam, ServingRunsOnBothBackends)
{
    auto gen = workload::makeDiffusionDB(21);
    std::vector<workload::Prompt> warm;
    for (std::size_t i = 0; i < 600; ++i)
        warm.push_back(gen->next());
    const auto trace = workload::buildBatchTrace(*gen, 150);

    const auto runWith = [&](embedding::RetrievalBackend kind) {
        serving::ServingConfig config;
        config.kind = serving::SystemKind::MoDM;
        config.numWorkers = 2;
        config.cacheCapacity = 600;
        config.retrieval.kind = kind;
        serving::ServingSystem system(config);
        system.warmCache(warm);
        return system.run(trace);
    };

    const auto flat = runWith(embedding::RetrievalBackend::Flat);
    EXPECT_EQ(flat.retrievalChecked, std::uint64_t{0});
    EXPECT_EQ(flat.retrievalRecallAt1, 1.0);

    const auto ivf = runWith(embedding::RetrievalBackend::Ivf);
    EXPECT_GT(ivf.retrievalChecked, std::uint64_t{0});
    EXPECT_GE(ivf.retrievalRecallAt1, 0.0);
    EXPECT_LE(ivf.retrievalRecallAt1, 1.0);
    EXPECT_EQ(ivf.metrics.count(), flat.metrics.count());
}

} // namespace
} // namespace modm
